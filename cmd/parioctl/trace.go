package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	pario "repro"
	"repro/internal/probe"
	"repro/internal/stats"
)

// traceCmd summarizes a Chrome trace-event JSON file recorded by the
// flight recorder (`pariobench -run <id> -trace out.json`): the hottest span groups,
// per-device utilization, the exchange/access overlap the pipelined
// collective schedule exists to create, and what StrategyAuto priced the
// routes of every collective call at beside what the call then took.
func traceCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	top := fs.Int("top", 12, "span groups to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: parioctl trace [-top N] FILE")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := pario.ReadChromeTrace(f)
	if err != nil {
		return fmt.Errorf("parse %s: %w", fs.Arg(0), err)
	}

	spans := rec.Spans()
	var lo, hi time.Duration
	for i, s := range spans {
		if i == 0 || s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
	}
	fmt.Fprintf(stdout, "%s: %d spans on %d tracks, virtual window %v .. %v\n\n",
		fs.Arg(0), len(spans), len(rec.Tracks()), lo, hi)

	// Hottest span groups: aggregate by cat/name over the whole trace.
	type group struct {
		key        string
		n          int
		total, max time.Duration
		bytes      int64
	}
	byKey := map[string]*group{}
	for _, s := range spans {
		key := s.Cat + "/" + s.Name
		g := byKey[key]
		if g == nil {
			g = &group{key: key}
			byKey[key] = g
		}
		g.n++
		d := s.End - s.Start
		g.total += d
		if d > g.max {
			g.max = d
		}
		g.bytes += s.Bytes
	}
	groups := make([]*group, 0, len(byKey))
	for _, g := range byKey {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].total != groups[j].total {
			return groups[i].total > groups[j].total
		}
		return groups[i].key < groups[j].key
	})
	if len(groups) > *top {
		groups = groups[:*top]
	}
	t := stats.NewTable("top span groups by total virtual time",
		"span", "count", "total", "mean", "max", "bytes")
	for _, g := range groups {
		t.AddRow(g.key, g.n, g.total.Round(time.Microsecond),
			(g.total / time.Duration(g.n)).Round(time.Microsecond),
			g.max.Round(time.Microsecond), g.bytes)
	}
	fmt.Fprintln(stdout, t.String())

	// Per-device utilization: the dev/<name> service tracks (queue-wait
	// tracks, dev/<name>/q, are listed separately by the full table).
	ut := stats.NewTable("device utilization", "device", "spans", "busy", "util", "bytes")
	devRows := 0
	for _, u := range rec.Usage() {
		if u.Spans == 0 || !strings.Contains(u.Name, "dev/") || strings.HasSuffix(u.Name, "/q") {
			continue
		}
		ut.AddRow(u.Name, u.Spans, u.Busy.Round(time.Microsecond), fmt.Sprintf("%.3f", u.Util), u.Bytes)
		devRows++
	}
	if devRows > 0 {
		fmt.Fprintln(stdout, ut.String())
	}

	// Exchange/access overlap: virtual time with a collective exchange
	// and a collective device access concurrently in flight — the
	// quantity the chunked two-phase schedule maximizes.
	isExchange := func(s probe.Span) bool {
		return s.Cat == "collective" && strings.Contains(s.Name, "exchange")
	}
	isAccess := func(s probe.Span) bool {
		return s.Cat == "collective" && strings.Contains(s.Name, "access")
	}
	ex, acc := rec.UnionBusy(isExchange), rec.UnionBusy(isAccess)
	if ex > 0 || acc > 0 {
		ov := rec.OverlapBusy(isExchange, isAccess)
		fmt.Fprintf(stdout, "collective exchange busy %v, access busy %v, overlap %v",
			ex.Round(time.Microsecond), acc.Round(time.Microsecond), ov.Round(time.Microsecond))
		if m := minDur(ex, acc); m > 0 {
			fmt.Fprintf(stdout, " (%.0f%% of the shorter phase)", 100*ov.Seconds()/m.Seconds())
		}
		fmt.Fprintln(stdout)
	}
	routePrices(stdout, spans, *top)
	return nil
}

// routePrices prints the price table of the priced collective calls in
// the trace (collective/call.<candidate chosen> spans, each the parent of
// its collective/price.<candidate> spans, whose length is the price, and
// of a two-phase pick's collective/cut.<cut> span, which names its round
// table: equal or ramped rounds and their chunks): the first top calls
// one a row, then the price ÷ realised ratio over all of them.
func routePrices(stdout io.Writer, spans []probe.Span, top int) {
	candidates := []string{"vectored", "sieved", "two-phase", "aligned"}
	prices := map[probe.SpanID]map[string]time.Duration{}
	cuts := map[probe.SpanID]string{}
	for _, s := range spans {
		if cut, ok := strings.CutPrefix(s.Name, "cut."); ok && s.Cat == "collective" {
			cuts[s.Parent] = cut
		}
		if name, ok := strings.CutPrefix(s.Name, "price."); ok && s.Cat == "collective" {
			if prices[s.Parent] == nil {
				prices[s.Parent] = map[string]time.Duration{}
			}
			prices[s.Parent][name] = s.End - s.Start
		}
	}
	t := stats.NewTable("route prices of priced collective calls (StrategyAuto)",
		"at", "vectored", "sieved", "two-phase", "aligned", "chosen", "took", "price/took", "cut")
	var ratios []float64
	for _, s := range spans {
		chosen, ok := strings.CutPrefix(s.Name, "call.")
		if !ok || s.Cat != "collective" {
			continue
		}
		took := s.End - s.Start
		ratio := prices[s.ID][chosen].Seconds() / took.Seconds()
		ratios = append(ratios, ratio)
		if len(ratios) > top {
			continue
		}
		row := []any{s.Start.Round(time.Microsecond)}
		for _, c := range candidates {
			if p, ok := prices[s.ID][c]; ok {
				row = append(row, p.Round(time.Microsecond))
			} else {
				row = append(row, "-")
			}
		}
		cut := cuts[s.ID]
		if cut == "" {
			cut = "-"
		}
		t.AddRow(append(row, chosen, took.Round(time.Microsecond), fmt.Sprintf("%.3f", ratio), cut)...)
	}
	if len(ratios) == 0 {
		return
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, t.String())
	sort.Float64s(ratios)
	fmt.Fprintf(stdout, "%d priced calls: price/took min %.3f, median %.3f, max %.3f\n",
		len(ratios), ratios[0], ratios[len(ratios)/2], ratios[len(ratios)-1])
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
