package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/stats"
)

// Chrome trace-event export. The format is the JSON array flavour of
// the trace-event spec, loadable in Perfetto (ui.perfetto.dev) and
// chrome://tracing:
//
//   - one "M" thread_name metadata event per track (pid 1, tid = TrackID),
//     emitted in registration order;
//   - sync-track spans as "X" complete events (ts + dur);
//   - async-track spans as "b"/"e" async pairs keyed by span ID, so
//     overlapping intervals (queue waits, in-flight requests) render on
//     stacked sub-rows instead of corrupting a single row;
//   - instants (End == Start) as "i" events;
//   - causal parent links as "s"/"f" flow arrows.
//
// Timestamps are virtual-clock microseconds with fixed millinanosecond
// precision, formatted manually ("%d.%03d") — no floats and no map
// iteration anywhere on the write path, so the bytes are a pure
// function of the recorded spans: same run, same file.
//
// Every span event also carries args.span (and args.parent / args.bytes
// when set); viewers ignore the extras, and ReadChromeTrace uses them
// to rebuild the recorder losslessly for offline summarization.

// WriteChromeTrace writes the recorder's spans as Chrome trace-event
// JSON. The output is deterministic: byte-identical across runs of the
// same scenario.
func WriteChromeTrace(w io.Writer, r *Recorder) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
		}
		first = false
	}
	if r != nil {
		for i, t := range r.tracks {
			sep()
			fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
				i+1, strconv.Quote(t.name))
		}
		for _, s := range r.spans {
			async := r.tracks[s.Track-1].async
			sep()
			writeSpanEvent(bw, s, async)
			if s.Parent != 0 && int(s.Parent) <= len(r.spans) {
				p := r.spans[s.Parent-1]
				sep()
				fmt.Fprintf(bw, `{"name":"flow","cat":"flow","ph":"s","pid":1,"tid":%d,"ts":%s,"id":%d}`,
					p.Track, usec(p.End), s.ID)
				sep()
				fmt.Fprintf(bw, `{"name":"flow","cat":"flow","ph":"f","bp":"e","pid":1,"tid":%d,"ts":%s,"id":%d}`,
					s.Track, usec(s.Start), s.ID)
			}
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

func writeSpanEvent(bw *bufio.Writer, s Span, async bool) {
	args := spanArgs(s)
	switch {
	case s.End == s.Start:
		fmt.Fprintf(bw, `{"name":%s,"cat":%s,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%s,"args":%s}`,
			strconv.Quote(s.Name), strconv.Quote(s.Cat), s.Track, usec(s.Start), args)
	case async:
		fmt.Fprintf(bw, `{"name":%s,"cat":%s,"ph":"b","pid":1,"tid":%d,"ts":%s,"id":%d,"args":%s},
{"name":%s,"cat":%s,"ph":"e","pid":1,"tid":%d,"ts":%s,"id":%d}`,
			strconv.Quote(s.Name), strconv.Quote(s.Cat), s.Track, usec(s.Start), s.ID, args,
			strconv.Quote(s.Name), strconv.Quote(s.Cat), s.Track, usec(s.End), s.ID)
	default:
		fmt.Fprintf(bw, `{"name":%s,"cat":%s,"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":%s}`,
			strconv.Quote(s.Name), strconv.Quote(s.Cat), s.Track, usec(s.Start), usec(s.End-s.Start), args)
	}
}

func spanArgs(s Span) string {
	a := fmt.Sprintf(`{"span":%d`, s.ID)
	if s.Parent != 0 {
		a += fmt.Sprintf(`,"parent":%d`, s.Parent)
	}
	if s.Bytes != 0 {
		a += fmt.Sprintf(`,"bytes":%d`, s.Bytes)
	}
	return a + "}"
}

// usec renders a virtual-time offset as trace microseconds with fixed
// three-digit sub-microsecond precision.
func usec(d time.Duration) string {
	ns := d.Nanoseconds()
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// traceEvent mirrors the subset of the trace-event schema the reader
// needs.
type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Tid  int32           `json:"tid"`
	Ts   json.Number     `json:"ts"`
	Dur  json.Number     `json:"dur"`
	ID   json.Number     `json:"id"`
	Args json.RawMessage `json:"args"`
}

type traceArgs struct {
	Name   string `json:"name"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Bytes  int64  `json:"bytes"`
}

// ReadChromeTrace parses trace-event JSON produced by WriteChromeTrace
// back into a Recorder (tracks, spans, parent links), for offline
// summarization (`parioctl trace`).
func ReadChromeTrace(rd io.Reader) (*Recorder, error) {
	var evs []traceEvent
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&evs); err != nil {
		return nil, fmt.Errorf("probe: parse trace: %w", err)
	}
	r := New()
	names := map[int32]string{}
	asyncTid := map[int32]bool{}
	type open struct {
		s  Span
		id int64
	}
	var pending []open // open async "b" events awaiting their "e"
	var raw []Span     // spans with original IDs, resolved at the end
	for _, ev := range evs {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				var a traceArgs
				json.Unmarshal(ev.Args, &a)
				names[ev.Tid] = a.Name
			}
		case "X", "i", "b":
			var a traceArgs
			json.Unmarshal(ev.Args, &a)
			ts, err := parseUsec(ev.Name, ev.Ts)
			if err != nil {
				return nil, err
			}
			s := Span{
				ID: SpanID(a.Span), Parent: SpanID(a.Parent),
				Track: TrackID(ev.Tid), Cat: ev.Cat, Name: ev.Name,
				Start: ts, End: ts, Bytes: a.Bytes,
			}
			switch ev.Ph {
			case "X":
				dur, err := parseUsec(ev.Name, ev.Dur)
				if err != nil {
					return nil, err
				}
				if dur > math.MaxInt64-ts {
					return nil, fmt.Errorf("probe: event %q ends past the largest duration", ev.Name)
				}
				s.End = ts + dur
				raw = append(raw, s)
			case "i":
				raw = append(raw, s)
			case "b":
				asyncTid[ev.Tid] = true
				id, _ := ev.ID.Int64()
				pending = append(pending, open{s: s, id: id})
			}
		case "e":
			id, _ := ev.ID.Int64()
			for i := len(pending) - 1; i >= 0; i-- {
				if pending[i].id == id {
					ts, err := parseUsec(ev.Name, ev.Ts)
					if err != nil {
						return nil, err
					}
					s := pending[i].s
					if ts < s.Start {
						return nil, fmt.Errorf("probe: event %q ends at %sµs, before it begins", ev.Name, ev.Ts)
					}
					s.End = ts
					raw = append(raw, s)
					pending = append(pending[:i], pending[i+1:]...)
					break
				}
			}
		}
	}
	for _, o := range pending { // unterminated async spans: keep as instants
		raw = append(raw, o.s)
	}
	// Register tracks in tid order so TrackIDs stay meaningful.
	var tids []int32
	for tid := range names {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	remap := map[TrackID]TrackID{}
	for _, tid := range tids {
		if asyncTid[tid] {
			remap[TrackID(tid)] = r.AsyncTrack(names[tid])
		} else {
			remap[TrackID(tid)] = r.Track(names[tid])
		}
	}
	// Re-issue spans in original-ID order so parent links resolve.
	sort.SliceStable(raw, func(i, j int) bool { return raw[i].ID < raw[j].ID })
	newID := map[SpanID]SpanID{}
	for _, s := range raw {
		trk, ok := remap[s.Track]
		if !ok {
			trk = r.Track(fmt.Sprintf("tid/%d", s.Track))
			remap[s.Track] = trk
		}
		id := r.Span(trk, s.Cat, s.Name, s.Start, s.End, s.Bytes, newID[s.Parent])
		if s.ID != 0 {
			newID[s.ID] = id
		}
	}
	return r, nil
}

// parseUsec reads event's time n, in microseconds, refusing one that is
// negative or whose nanoseconds overflow a time.Duration.
func parseUsec(event string, n json.Number) (time.Duration, error) {
	str := n.String()
	if str == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(str, 64)
	if err != nil {
		return 0, fmt.Errorf("probe: event %q: bad trace time %q: %w", event, str, err)
	}
	ns := f*1000 + 0.5
	if !(f >= 0 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("probe: event %q: trace time %sµs is negative or past the largest duration", event, str)
	}
	return time.Duration(ns), nil
}

// TrackUsage summarizes one track: busy time is the union of its span
// intervals (overlaps counted once), Util the busy fraction of the
// recorder's overall [earliest start, latest end] window.
type TrackUsage struct {
	Name  string
	Spans int
	Busy  time.Duration
	Util  float64
	Bytes int64
}

// Usage computes per-track busy-interval unions, in track registration
// order. Instant spans contribute to counts but not busy time.
func (r *Recorder) Usage() []TrackUsage {
	if r == nil {
		return nil
	}
	var lo, hi time.Duration
	seen := false
	per := make([][]Interval, len(r.tracks))
	out := make([]TrackUsage, len(r.tracks))
	for i, t := range r.tracks {
		out[i].Name = t.name
	}
	for _, s := range r.spans {
		u := &out[s.Track-1]
		u.Spans++
		u.Bytes += s.Bytes
		per[s.Track-1] = append(per[s.Track-1], Interval{s.Start, s.End})
		if !seen || s.Start < lo {
			lo = s.Start
		}
		if !seen || s.End > hi {
			hi = s.End
		}
		seen = true
	}
	span := hi - lo
	for i := range out {
		out[i].Busy = Union(per[i])
		if span > 0 {
			out[i].Util = float64(out[i].Busy) / float64(span)
		}
	}
	return out
}

// UtilizationTable renders Usage as a fixed-width table (tracks with no
// spans are skipped).
func (r *Recorder) UtilizationTable() *stats.Table {
	t := stats.NewTable("utilization", "track", "spans", "busy", "util", "bytes")
	for _, u := range r.Usage() {
		if u.Spans == 0 {
			continue
		}
		t.AddRow(u.Name, u.Spans, u.Busy, u.Util, u.Bytes)
	}
	return t
}

// UnionBusy returns the total virtual time covered by the union of the
// spans accepted by keep (overlaps counted once).
func (r *Recorder) UnionBusy(keep func(Span) bool) time.Duration {
	if r == nil {
		return 0
	}
	return Union(r.intervalsOf(keep))
}

// OverlapBusy returns the virtual time where the union of spans
// accepted by a overlaps the union of spans accepted by b — e.g.
// exchange/access overlap in the pipelined collective.
func (r *Recorder) OverlapBusy(a, b func(Span) bool) time.Duration {
	if r == nil {
		return 0
	}
	return Overlap(r.intervalsOf(a), r.intervalsOf(b))
}

// intervalsOf lists the spans accepted by keep as intervals.
func (r *Recorder) intervalsOf(keep func(Span) bool) []Interval {
	var ivs []Interval
	for _, s := range r.spans {
		if keep(s) {
			ivs = append(ivs, Interval{s.Start, s.End})
		}
	}
	return ivs
}

// Interval is a stretch [From, To) of virtual time: one busy period of a
// track, a phase, a layer. The interval algebra below is the one copy in
// the repository — the recorder's busy accounting and the collective
// layer's exchange/access/overlap statistics both use it.
type Interval struct{ From, To time.Duration }

// Union reports the total time covered by at least one of the intervals
// (which it sorts in place).
func Union(ivs []Interval) time.Duration {
	var total time.Duration
	for _, x := range mergeIntervals(ivs) {
		total += x.To - x.From
	}
	return total
}

// Overlap reports the total time covered by both interval sets (each of
// which it sorts in place).
func Overlap(a, b []Interval) time.Duration {
	am, bm := mergeIntervals(a), mergeIntervals(b)
	var total time.Duration
	i, j := 0, 0
	for i < len(am) && j < len(bm) {
		if lo, hi := max(am[i].From, bm[j].From), min(am[i].To, bm[j].To); hi > lo {
			total += hi - lo
		}
		if am[i].To < bm[j].To {
			i++
		} else {
			j++
		}
	}
	return total
}

// mergeIntervals sorts the intervals in place and returns their merged,
// disjoint cover: intervals that touch or nest coalesce, empty ones
// (To ≤ From) are dropped.
func mergeIntervals(ivs []Interval) []Interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].From < ivs[j].From })
	var out []Interval
	for _, x := range ivs {
		if x.To <= x.From {
			continue
		}
		if k := len(out) - 1; k >= 0 && x.From <= out[k].To {
			out[k].To = max(out[k].To, x.To)
			continue
		}
		out = append(out, x)
	}
	return out
}
