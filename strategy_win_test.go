// Strategy-selection acceptance: StrategyAuto must match the best fixed
// access strategy — vectored, sieved, or two-phase collective — on EVERY
// configuration of a density × rank-count × link-bandwidth sweep, and
// strictly beat each fixed strategy on at least one configuration. This
// is the ISSUE 9 tentpole criterion: no fixed choice wins everywhere
// ("Noncontiguous I/O through PVFS"), so the cost model has to earn its
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
	"bytes"
	"fmt"
	"testing"
	"time"

	pario "repro"
)

// strategySweepBlocks is the file size of every sweep configuration, in
// 4 KiB blocks, over 4 default 1989 drives.
const (
	strategySweepBlocks = 1024
	strategySweepDisks  = 4
)

// strategySweepConfig is one cell of the density × rank-count ×
// link-bandwidth sweep.
type strategySweepConfig struct {
	pattern   string // "dense", "sparse", "interleaved"
	ranks     int
	congested bool
}

// name is the sub-test / benchmark label.
func (c strategySweepConfig) name() string {
	link := "fast"
	if c.congested {
		link = "congested"
	}
	return fmt.Sprintf("%s/r%d/%s", c.pattern, c.ranks, link)
}

// strategySweepConfigs enumerates the full sweep.
func strategySweepConfigs() []strategySweepConfig {
	var cfgs []strategySweepConfig
	for _, pattern := range []string{"dense", "sparse", "interleaved"} {
		for _, ranks := range []int{4, 8} {
			for _, congested := range []bool{false, true} {
				cfgs = append(cfgs, strategySweepConfig{pattern, ranks, congested})
			}
		}
	}
	return cfgs
}

// strategyPatternVec builds one rank's write descriptor for the
// configuration's access pattern. Patterns are block-disjoint across
// ranks.
func strategyPatternVec(cfg strategySweepConfig, rank int) pario.Vec {
	var vec pario.Vec
	var off int64
	add := func(b, n int64) {
		vec = append(vec, pario.VecSeg{Block: b, N: n, BufOff: off})
		off += n * 4096
	}
	slice := int64(strategySweepBlocks / cfg.ranks)
	base := int64(rank) * slice
	switch cfg.pattern {
	case "dense": // every other block of the rank's partition slice
		for i := int64(0); i < slice/2; i++ {
			add(base+2*i, 1)
		}
	case "sparse": // 8-block runs every 64 blocks of the slice
		for b := int64(0); b+8 <= slice; b += 64 {
			add(base+b, 8)
		}
	case "interleaved": // blocks ≡ rank (mod ranks), file-wide
		for b := int64(rank); b < strategySweepBlocks; b += int64(cfg.ranks) {
			add(b, 1)
		}
	}
	return vec
}

// strategySweepResult is one measured (configuration, strategy) run.
type strategySweepResult struct {
	elapsed time.Duration
	route   string // route the collective took ("two-phase", ...)
	image   []byte // final file bytes (identical across strategies)
}

// runStrategySweep executes one configuration under one strategy: a
// rank-disjoint collective write over a fresh 4-drive machine, returning
// the modeled elapsed time, the route taken and the resulting file
// image. Dense and sparse patterns use a partitioned file (each rank's
// slice physically contiguous on one device, so its holes are real
// on-device holes); the interleaved pattern uses a unit-1 declustered
// file, the layout whose rank views fragment but whose union coalesces.
func runStrategySweep(tb testing.TB, cfg strategySweepConfig, strat pario.Strategy) strategySweepResult {
	tb.Helper()
	m := pario.NewMachine(strategySweepDisks)
	spec := pario.Spec{
		Name: "sweep", RecordSize: 4096, BlockRecords: 1,
		NumRecords: strategySweepBlocks,
	}
	if cfg.pattern == "interleaved" {
		spec.Org = pario.OrgGlobalDirect
		spec.Placement = pario.PlaceStriped
		spec.StripeUnitFS = 1
	} else {
		spec.Org = pario.OrgPartitioned
		spec.Parts = strategySweepDisks
	}
	f, err := m.Volume.Create(spec)
	if err != nil {
		tb.Fatal(err)
	}
	group, err := m.Volume.OpenGroup("sweep")
	if err != nil {
		tb.Fatal(err)
	}
	col, err := pario.OpenCollective(group, cfg.ranks, pario.CollectiveOptions{Strategy: strat})
	if err != nil {
		tb.Fatal(err)
	}
	rg := m.GoRanks(cfg.ranks, "rank", func(r *pario.Rank) {
		vec := strategyPatternVec(cfg, r.Rank())
		var total int64
		for _, sg := range vec {
			total += sg.N
		}
		buf := make([]byte, total*4096)
		for _, sg := range vec {
			for k := int64(0); k < sg.N; k++ {
				blk := buf[sg.BufOff+k*4096 : sg.BufOff+(k+1)*4096]
				for j := range blk {
					blk[j] = byte((sg.Block+k)*37 + int64(j)*11 + 5)
				}
			}
		}
		if err := col.WriteAll(r, []pario.VecReq{{File: 0, Vec: vec}}, buf); err != nil {
			tb.Errorf("rank %d: %v", r.Rank(), err)
		}
	})
	if cfg.congested {
		rg.SetLink(100*time.Microsecond, 2e6)
		rg.SetBisection(1e6)
	} else {
		rg.SetLink(10*time.Microsecond, 100e6)
	}
	if err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	img := make([]byte, strategySweepBlocks*4096)
	if err := f.Set().ReadVec(pario.NewWall(), pario.Vec{{Block: 0, N: strategySweepBlocks}}, img); err != nil {
		tb.Fatal(err)
	}
	return strategySweepResult{elapsed: m.Engine.Now(), route: col.LastRoute(), image: img}
}

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
// every sweep configuration Auto's modeled time is within 5% of the best
// fixed strategy's (it normally picks that strategy's exact route, so
// the times are identical; the slack covers the estimate nature of the
// cost model), and for each fixed strategy there is at least one
// configuration where Auto is strictly faster. All four runs of a
// configuration must land byte-identical file images.
func TestStrategyAutoWins(t *testing.T) {
	beats := make(map[string]bool)
	for _, cfg := range strategySweepConfigs() {
		cfg := cfg
		t.Run(cfg.name(), func(t *testing.T) {
			auto := runStrategySweep(t, cfg, pario.StrategyAuto)
			best := time.Duration(0)
			for _, fs := range strategyFixed {
				res := runStrategySweep(t, cfg, fs.strat)
				t.Logf("%-10s %12v (route %s)", fs.name, res.elapsed, res.route)
				if !bytes.Equal(res.image, auto.image) {
					t.Errorf("%s image differs from auto image", fs.name)
				}
				if best == 0 || res.elapsed < best {
					best = res.elapsed
				}
				if auto.elapsed < res.elapsed {
					beats[fs.name] = true
				}
			}
			t.Logf("%-10s %12v (route %s)", "auto", auto.elapsed, auto.route)
			if float64(auto.elapsed) > float64(best)/0.95 {
				t.Errorf("auto %v is worse than 0.95x the best fixed strategy (%v)", auto.elapsed, best)
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
	for _, cfg := range strategySweepConfigs() {
		for _, fs := range append(strategyFixed, struct {
			name  string
			strat pario.Strategy
		}{"auto", pario.StrategyAuto}) {
			b.Run(cfg.name()+"/"+fs.name, func(b *testing.B) {
				var res strategySweepResult
				var bytes int64
				for i := 0; i < b.N; i++ {
					res = runStrategySweep(b, cfg, fs.strat)
				}
				for _, sg := range strategyPatternVec(cfg, 0) {
					bytes += sg.N * 4096
				}
				bytes *= int64(cfg.ranks)
				b.ReportMetric(float64(bytes)/1e6/res.elapsed.Seconds(), "vMB/s")
			})
		}
	}
}
