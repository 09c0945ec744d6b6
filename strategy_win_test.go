// Strategy-selection acceptance: StrategyAuto must match the best fixed
// access strategy — vectored, sieved, or two-phase collective — on EVERY
// configuration of a density × rank-count × link-bandwidth sweep, and
// strictly beat each fixed strategy on at least one configuration. This
// is the ISSUE 9 tentpole criterion: no fixed choice wins everywhere
// ("Noncontiguous I/O through PVFS"), so the prices have to earn their
// keep on each workload shape where a different mechanism dominates:
//
//   - dense: each rank writes every other block of its own contiguous
//     device partition — half the span is holes no other rank fills, so
//     sieving's two covering-span requests beat one request per piece
//     (vectored) and beat aggregation, which cannot coalesce holes away.
//   - sparse: long runs separated by long holes — vectored's few
//     requests beat moving the holes (sieved) and beat paying exchange
//     traffic for no coalescing gain (collective).
//   - interleaved: ranks' single-block pieces interleave on each device,
//     so the union footprint is dense though no rank's view is — the
//     two-phase exchange wins on a fast link, and a congested link
//     inverts the trade back to independent sieving.
//
// Every strategy must also land the identical bytes (the patterns are
// rank-disjoint), which the sweep checks per configuration.
package pario_test

import (
	"testing"
	"time"

	pario "repro"
	"repro/internal/experiments"
)

// strategyFixed is every fixed strategy Auto competes against.
var strategyFixed = []struct {
	name  string
	strat pario.Strategy
}{
	{"vectored", pario.StrategyVectored},
	{"sieved", pario.StrategySieved},
	{"collective", pario.StrategyCollective},
}

// TestStrategyAutoWins enforces the tentpole acceptance criteria: on
// every sweep configuration Auto's modeled time is no worse than the best
// fixed strategy's (it takes that strategy's route, or a pipeline depth
// no fixed strategy runs), the price it put on its pick is within 5 % of
// the modeled time the call then took — every candidate is priced by the
// code that charges it, so a wider residual is a difference between the
// dry walk and the live one that somebody must name — and for each fixed
// strategy there is at least one configuration where Auto is strictly
// faster. All four runs of a configuration must land byte-identical file
// images.
func TestStrategyAutoWins(t *testing.T) {
	beats := make(map[string]bool)
	for _, cell := range experiments.StrategyCells() {
		t.Run(cell.Name(), func(t *testing.T) {
			auto := mustRun(t, cell.Checkpoint(pario.StrategyAuto))
			best := time.Duration(0)
			for _, fs := range strategyFixed {
				res := mustRun(t, cell.Checkpoint(fs.strat))
				t.Logf("%-10s %12v (route %s)", fs.name, res.Elapsed, res.Route)
				if res.Image != auto.Image {
					t.Errorf("%s image differs from auto image", fs.name)
				}
				if best == 0 || res.Elapsed < best {
					best = res.Elapsed
				}
				if auto.Elapsed < res.Elapsed {
					beats[fs.name] = true
				}
			}
			resid := auto.Predicted.Seconds() / auto.Elapsed.Seconds()
			t.Logf("%-10s %12v (route %s, priced %v: %.3f; candidates %+v)", "auto", auto.Elapsed, auto.Route, auto.Predicted, resid, auto.Prices)
			if auto.Elapsed > best {
				t.Errorf("auto %v is slower than the best fixed strategy (%v)", auto.Elapsed, best)
			}
			if resid < 0.95 || resid > 1.05 {
				t.Errorf("auto priced its pick at %v, the call took %v: ratio %.3f outside [0.95, 1.05]", auto.Predicted, auto.Elapsed, resid)
			}
		})
	}
	for _, fs := range strategyFixed {
		if !beats[fs.name] {
			t.Errorf("auto never strictly beat the fixed %s strategy on any configuration", fs.name)
		}
	}
}

// BenchmarkStrategySweep reports the whole sweep — modeled MB/s per
// (configuration, strategy).
func BenchmarkStrategySweep(b *testing.B) {
	for _, cell := range experiments.StrategyCells() {
		for _, fs := range append(strategyFixed, struct {
			name  string
			strat pario.Strategy
		}{"auto", pario.StrategyAuto}) {
			b.Run(cell.Name()+"/"+fs.name, func(b *testing.B) {
				var res experiments.CheckpointResult
				for i := 0; i < b.N; i++ {
					res = mustRun(b, cell.Checkpoint(fs.strat))
				}
				b.ReportMetric(vMBps(res), "vMB/s")
			})
		}
	}
}
