// What StrategyAuto priced, said out loud: with a flight recorder
// attached, every blocking collective call reports which partition its
// two-phase route ran on, how many rounds it was cut into, what every
// candidate route and every pipeline depth it tried was priced at, and
// how far the price of the chosen candidate was from what the call then
// took — the residual that tells a reader of the metrics table whether
// the next choice can be trusted. Detached (the default) none of this
// runs; the prices themselves are kept either way (LastPrices).

package collective

import (
	"strconv"
	"time"

	"repro/internal/probe"
)

// explainProbe caches the registry handles of one recorder and rank
// group, so a recorded call costs four field updates, not four lookups
// (the depth prices, a handful per priced call, are looked up by name).
type explainProbe struct {
	rec              *probe.Recorder
	prefix           string
	trk              probe.TrackID // "<prefix>/plan": priced calls and their prices
	aligned, logical *probe.Counter
	rounds, residual *probe.Histogram
	price            [4]*probe.Histogram // in Prices.each order
}

// LastPredicted reports the modeled cost StrategyAuto priced the chosen
// candidate of the most recent successfully planned blocking call at —
// zero when Options.Strategy fixed the route and nothing was priced.
// Valid under the same rules as LastStats.
func (c *Collective) LastPredicted() time.Duration { return c.predicted }

// LastPrices reports what StrategyAuto priced every candidate of the most
// recent successfully planned blocking call at — all zero when
// Options.Strategy fixed the route and nothing was priced. LastPredicted
// is the chosen one's. Valid under the same rules as LastStats.
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

// explain records one finished blocking call (rank 0, after the closing
// barrier of the access phase; it left the plan barrier at from) in the
// registry of rec:
//
//	collective.<prefix>.plan.aligned   two-phase calls on the drive-aligned partition
//	collective.<prefix>.plan.logical   two-phase calls on the logical partition
//	collective.<prefix>.plan.rounds    their pipeline rounds (1 = nothing overlaps)
//	collective.<prefix>.plan.depth_price_ms.<rounds>
//	                                   what the aligned partition was priced at, cut into
//	                                   that many rounds: one entry per depth tried, with
//	                                   or without a ChunkBytes bound
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
// the price.
func (c *Collective) explain(rec *probe.Recorder, prefix string, sd *schedule, from, to time.Duration) {
	if rec == nil {
		return
	}
	ex := &c.ex
	if ex.rec != rec || ex.prefix != prefix {
		m, name := rec.Metrics(), "collective."+prefix+".plan."
		*ex = explainProbe{
			rec: rec, prefix: prefix, trk: rec.AsyncTrack(prefix + "/plan"),
			aligned: m.Counter(name + "aligned"), logical: m.Counter(name + "logical"),
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
		for _, d := range sd.depths {
			name := "collective." + prefix + ".plan.depth_price_ms." + strconv.FormatInt(d.rounds, 10)
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
		ex.residual.Add(sd.predicted.Seconds() / (to - from).Seconds())
	}
}
