// What StrategyAuto priced, said out loud: with a flight recorder
// attached, every blocking collective call reports which partition its
// two-phase route ran on, how many rounds it was cut into and how (equal
// or ramped chunks), what every candidate route and every pipeline depth
// and cut it tried was priced at, and how far the price of the chosen
// candidate was from what the call then took — the residual that tells a
// reader of the metrics table whether the next choice can be trusted.
// Detached (the default) none of this runs; the prices themselves are
// kept either way (LastPrices).

package collective

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/probe"
)

// explainProbe caches the registry handles of one recorder and rank
// group, so a recorded call costs a few field updates, not as many lookups
// (the depth prices, a handful per priced call, are looked up by name).
type explainProbe struct {
	rec                      *probe.Recorder
	prefix                   string
	trk                      probe.TrackID // "<prefix>/plan": priced calls and their prices
	aligned, logical, ramped *probe.Counter
	rounds, residual         *probe.Histogram
	price                    [4]*probe.Histogram // in Prices.each order
}

// LastPredicted reports the modeled cost StrategyAuto priced the chosen
// candidate of the most recent successfully planned call at, blocking or
// nonblocking — zero when Options.Strategy fixed the route and nothing
// was priced. Valid under the same rules as LastStats.
func (c *Collective) LastPredicted() time.Duration { return c.predicted }

// LastPrices reports what StrategyAuto priced every candidate of the most
// recent successfully planned call at, blocking or nonblocking — all
// zero when Options.Strategy fixed the route and nothing was priced.
// LastPredicted is the chosen one's. Valid under the same rules as
// LastStats.
func (c *Collective) LastPrices() Prices { return c.prices }

// each calls fn with every candidate's name and price, in a fixed order.
func (pr Prices) each(fn func(i int, name string, price time.Duration)) {
	fn(0, "vectored", pr.Vectored)
	fn(1, "sieved", pr.Sieved)
	fn(2, "two-phase", pr.TwoPhase)
	fn(3, "aligned", pr.Aligned)
}

// LastDepth reports the pipeline depth of the most recent successfully
// planned blocking call: the rounds its two-phase route was cut into — 1
// for a call with nothing to overlap, whole exchange then whole access —
// and 0 for the independent routes and for a call no rank asked anything
// of. Under StrategyAuto it is the depth the prices chose, whether or not
// Options.ChunkBytes bounds the chunk. Valid under the same rules as
// LastStats.
func (c *Collective) LastDepth() int {
	if c.sched == nil || c.route != routeTwoPhase {
		return 0
	}
	return c.sched.pl.rounds
}

// LastCut reports how the most recent successfully planned blocking call
// cut its rounds: the blocks each moved of the largest file domain (nil
// where LastDepth is 0), and whether they were ramped — StrategyAuto
// priced that cheaper than equal rounds. Like ForceAligned, a hook of the
// module's own tests and fixtures, out of reach of the public facade.
// Valid under the same rules as LastStats.
func LastCut(c *Collective) (ramped bool, rounds []int64) {
	if c.LastDepth() == 0 {
		return false, nil
	}
	pl := c.sched.pl
	return pl.ramped, chunkSizes(pl.ends)
}

// chunkSizes lists the chunk each round of a round table moves.
func chunkSizes(ends []int64) []int64 {
	out := make([]int64, len(ends))
	var lo int64
	for k, hi := range ends {
		out[k], lo = hi-lo, hi
	}
	return out
}

// explain records one finished blocking call (rank 0, after the closing
// barrier of the access phase; it left the plan barrier at from) in the
// registry of rec:
//
//	collective.<prefix>.plan.aligned   two-phase calls on the drive-aligned partition
//	collective.<prefix>.plan.logical   two-phase calls on the logical partition
//	collective.<prefix>.plan.rounds    their pipeline rounds (1 = nothing overlaps)
//	collective.<prefix>.plan.ramped    those of them whose rounds were ramped, not equal
//	collective.<prefix>.plan.depth_price_ms.<rounds>[.ramped]
//	                                   what the aligned partition was priced at, cut into
//	                                   that many equal (ramped) rounds: one entry per depth
//	                                   and cut tried, with or without a ChunkBytes bound
//	collective.<prefix>.plan.price_ms.{vectored,sieved,two-phase,aligned}
//	                                   what every candidate of a priced call was priced at
//	                                   (two-phase: the logical partition; aligned: at its
//	                                   cheapest depth, when offered)
//	collective.<prefix>.plan.predicted_over_realised
//	                                   the chosen candidate's price ÷ the modeled time the
//	                                   call then took
//
// and every priced call on the async track "<prefix>/plan", for a trace
// to carry what the registry does not outlive the run to say (parioctl
// trace): a span collective/call.<candidate chosen> over the call, and
// under it one span collective/price.<candidate> per price, as long as
// the price, and for a two-phase pick one collective/cut.<cut> naming its
// round table (cutName).
func (c *Collective) explain(rec *probe.Recorder, prefix string, sd *schedule, from, to time.Duration) {
	if rec == nil {
		return
	}
	ex := &c.ex
	if ex.rec != rec || ex.prefix != prefix {
		m, name := rec.Metrics(), "collective."+prefix+".plan."
		*ex = explainProbe{
			rec: rec, prefix: prefix, trk: rec.AsyncTrack(prefix + "/plan"),
			aligned: m.Counter(name + "aligned"), logical: m.Counter(name + "logical"), ramped: m.Counter(name + "ramped"),
			rounds: m.Histogram(name + "rounds"), residual: m.Histogram(name + "predicted_over_realised"),
		}
		Prices{}.each(func(i int, route string, _ time.Duration) {
			ex.price[i] = m.Histogram(name + "price_ms." + route)
		})
	}
	if sd.route == routeTwoPhase {
		if sd.pl.phys != nil {
			ex.aligned.Add(1)
		} else {
			ex.logical.Add(1)
		}
		ex.rounds.Add(float64(sd.pl.rounds))
		if sd.pl.ramped {
			ex.ramped.Add(1)
		}
		for _, d := range sd.depths {
			name := "collective." + prefix + ".plan.depth_price_ms." + strconv.Itoa(int(d.rounds))
			if d.ramped {
				name += ".ramped"
			}
			rec.Metrics().Histogram(name).Add(float64(d.cost) / float64(time.Millisecond))
		}
	}
	if sd.predicted > 0 && to > from {
		chosen := sd.route.String()
		if sd.route == routeTwoPhase && sd.pl.phys != nil {
			chosen = "aligned"
		}
		call := rec.Span(ex.trk, "collective", "call."+chosen, from, to, 0, 0)
		sd.prices.each(func(i int, name string, price time.Duration) {
			if price > 0 {
				ex.price[i].Add(float64(price) / float64(time.Millisecond))
				rec.Span(ex.trk, "collective", "price."+name, from, from+price, 0, call)
			}
		})
		if sd.route == routeTwoPhase {
			rec.Span(ex.trk, "collective", "cut."+cutName(sd.pl), from, to, 0, call)
		}
		ex.residual.Add(sd.predicted.Seconds() / (to - from).Seconds())
	}
}

// cutName names a plan's round table in blocks of the largest domain:
// "equal 8x16" (rounds × chunk, the last may be ragged) or every ramped
// chunk, "ramped [3 7 11 14 18 21 25 29]".
func cutName(pl *plan) string {
	if !pl.ramped {
		return fmt.Sprintf("equal %dx%d", pl.rounds, pl.ends[0])
	}
	return fmt.Sprint("ramped ", chunkSizes(pl.ends))
}
