// What StrategyAuto priced, said out loud: with a flight recorder
// attached, every blocking collective call reports which partition its
// two-phase route ran on, how many rounds it was cut into, what every
// pipeline depth it tried was priced at, and how far the cost model's
// prediction for the chosen candidate was from what the call then took —
// the residual that tells a reader of the metrics table whether the next
// choice can be trusted. Detached (the default) none of this runs.

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
	aligned, logical *probe.Counter
	rounds, residual *probe.Histogram
}

// LastPredicted reports the modeled cost StrategyAuto priced the chosen
// candidate of the most recent successfully planned blocking call at —
// zero when Options.Strategy fixed the route and nothing was priced.
// Valid under the same rules as LastStats.
func (c *Collective) LastPredicted() time.Duration { return c.predicted }

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
// barrier of the access phase) in the registry of rec:
//
//	collective.<prefix>.plan.aligned   two-phase calls on the drive-aligned partition
//	collective.<prefix>.plan.logical   two-phase calls on the logical partition
//	collective.<prefix>.plan.rounds    their pipeline rounds (1 = nothing overlaps)
//	collective.<prefix>.plan.depth_price_ms.<rounds>
//	                                   what the aligned partition was priced at, cut into
//	                                   that many rounds: one entry per depth tried, with
//	                                   or without a ChunkBytes bound
//	collective.<prefix>.plan.predicted_over_realised
//	                                   priced cost ÷ modeled time of every priced call
func (c *Collective) explain(rec *probe.Recorder, prefix string, sd *schedule, realised time.Duration) {
	if rec == nil {
		return
	}
	ex := &c.ex
	if ex.rec != rec || ex.prefix != prefix {
		m, name := rec.Metrics(), "collective."+prefix+".plan."
		*ex = explainProbe{
			rec: rec, prefix: prefix,
			aligned: m.Counter(name + "aligned"), logical: m.Counter(name + "logical"),
			rounds: m.Histogram(name + "rounds"), residual: m.Histogram(name + "predicted_over_realised"),
		}
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
	if sd.predicted > 0 && realised > 0 {
		ex.residual.Add(sd.predicted.Seconds() / realised.Seconds())
	}
}
