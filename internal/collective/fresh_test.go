package collective

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// freshShape is a never-repeating checkpoint's machine and request lists
// at nRanks ranks over 32 drives: a partitioned file of nRanks 32-block
// slices (32 parts) and a unit-1 striped file of 32 rows of nRanks
// blocks, one handle under StrategyAuto with locality over both, and one
// op's request lists from each of three families — dense (every other
// block of a 15-block window of the rank's slice), sparse (one 8-block
// run of it) and interleaved (the rank's column of 8 seeded rows of the
// striped file): the three routes Auto picks between.
type freshShape struct {
	e    *sim.Engine
	c    *Collective
	reqs [3][][]VecReq
	bufs [][]byte
}

const (
	freshDrives = 32
	freshSlice  = 32 // blocks of the partitioned file a rank owns; also the striped file's rows
	freshPer    = 8  // blocks a rank moves per op
	freshBS     = 4096
)

func newFreshShape(tb testing.TB, nRanks int) *freshShape {
	tb.Helper()
	e, g, _ := freshMachine(tb, nRanks)
	c, err := Open(g, nRanks, Options{Locality: true, Strategy: blockio.StrategyAuto})
	if err != nil {
		tb.Fatal(err)
	}
	fs := &freshShape{e: e, c: c, bufs: make([][]byte, nRanks)}
	for r := range fs.bufs {
		fs.bufs[r] = make([]byte, freshPer*freshBS)
	}
	rng := rand.New(rand.NewSource(1))
	for fam := range fs.reqs {
		fs.reqs[fam] = freshReqs(rng, nRanks, fam)
	}
	return fs
}

// freshMachine is freshShape's engine, drives and file group at nRanks
// ranks.
func freshMachine(tb testing.TB, nRanks int) (*sim.Engine, *pfs.FileGroup, []*device.Disk) {
	tb.Helper()
	e := sim.NewEngine()
	disks := make([]*device.Disk, freshDrives)
	for i := range disks {
		disks[i] = device.New(device.Config{Name: fmt.Sprintf("d%d", i), Engine: e, Sched: device.SCAN, MergeQueued: true})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		tb.Fatal(err)
	}
	vol := pfs.NewVolume(store)
	n := int64(nRanks * freshSlice)
	if _, err := vol.Create(pfs.Spec{Name: "part", Org: pfs.OrgPartitioned, RecordSize: freshBS, NumRecords: n, Parts: freshDrives}); err != nil {
		tb.Fatal(err)
	}
	if _, err := vol.Create(pfs.Spec{Name: "striped", Org: pfs.OrgSequential, RecordSize: freshBS, NumRecords: n,
		Placement: pfs.PlaceStriped, StripeUnitFS: 1}); err != nil {
		tb.Fatal(err)
	}
	g, err := vol.OpenGroup("part", "striped")
	if err != nil {
		tb.Fatal(err)
	}
	return e, g, disks
}

// freshReqs draws one op's request lists of family fam at nRanks ranks.
func freshReqs(rng *rand.Rand, nRanks, fam int) [][]VecReq {
	rows := rng.Perm(freshSlice)[:freshPer]
	out := make([][]VecReq, nRanks)
	for r := range out {
		base := int64(r * freshSlice)
		var vec blockio.Vec
		file := 0
		switch fam {
		case 0:
			off := base + rng.Int63n(freshSlice-2*freshPer+2)
			for i := int64(0); i < freshPer; i++ {
				vec = append(vec, blockio.VecSeg{Block: off + 2*i, N: 1, BufOff: i * freshBS})
			}
		case 1:
			vec = blockio.Vec{{Block: base + rng.Int63n(freshSlice-freshPer+1), N: freshPer}}
		default:
			file = 1
			for i, row := range rows {
				vec = append(vec, blockio.VecSeg{Block: int64(row*nRanks + r), N: 1, BufOff: int64(i) * freshBS})
			}
		}
		out[r] = []VecReq{{File: file, Vec: vec}}
	}
	return out
}

// run calls fn as rank 0 of the shape's group, under the tuned
// interconnect, once every other rank has finished: their goroutines
// have parked for good by then, so what fn allocates is its own.
func (fs *freshShape) run(tb testing.TB, fn func(p *mpp.Proc)) {
	tb.Helper()
	g, join := mpp.Run(fs.e, fs.c.size, "fresh", func(p *mpp.Proc) {
		p.Barrier()
		if p.Rank() == 0 {
			p.Sleep(time.Nanosecond)
			fn(p)
		}
	})
	g.SetLink(10*time.Microsecond, 100e6)
	g.SetBisection(50e6)
	fs.e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := fs.e.Run(); err != nil {
		tb.Fatal(err)
	}
}

// build is one uncached schedule of family fam in one direction — the
// plan, then the schedule: route pricing, the partition it picks and its
// tables — built into the handle's one-shot schedule, or with admit into
// memory of its own, as a call whose key the handle has seen is.
func (fs *freshShape) build(tb testing.TB, p *mpp.Proc, fam int, write, admit bool) *schedule {
	c := fs.c
	copy(c.reqs, fs.reqs[fam])
	copy(c.bufs, fs.bufs)
	key, sig := c.fingerprint(write, false)
	mem := c.shotMem()
	if admit {
		mem = new(schedMem)
	}
	sd, err := c.newSchedule(p, mem, write, false, key, sig)
	if err != nil {
		tb.Error(err) // rank 0 is not the test's goroutine: no Fatal
	}
	return sd
}

// buildKinds names the two memories a schedule is built in.
var buildKinds = []struct {
	name  string
	admit bool
}{{"one-shot", false}, {"admitted", true}}

// TestFreshScheduleAllocs: building a schedule afresh allocates a fixed
// number of tables, not a few for every rank — the plan's per-rank lists
// and ranges are slices of flat arrays, the sorts are typed, and the
// independent routes' mapped descriptors share one arena. A one-shot
// build rewrites the handle's one-shot schedule, so once it has grown it
// allocates next to nothing: at most oneShotAllocs objects, at 64 ranks
// and at 512. An admitted build makes its tables: each family, written
// and read, may allocate at 512 ranks no more than at 64 plus a small
// slack.
func TestFreshScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const slack, oneShotAllocs = 8, 2
	allocs := func(nRanks, fam int, write, admit bool) (n float64, route string) {
		fs := newFreshShape(t, nRanks)
		fs.run(t, func(p *mpp.Proc) {
			// Warms the handle's pricing scratch and its one-shot schedule.
			if sd := fs.build(t, p, fam, write, admit); sd != nil {
				route = sd.route.String()
			}
			n = testing.AllocsPerRun(5, func() { fs.build(t, p, fam, write, admit) })
		})
		return n, route
	}
	for _, kind := range buildKinds {
		for fam, name := range []string{"dense", "sparse", "interleaved"} {
			for _, write := range []bool{true, false} {
				small, _ := allocs(64, fam, write, kind.admit)
				large, route := allocs(512, fam, write, kind.admit)
				t.Logf("%s %s write=%v (%s at 512 ranks): %.0f allocations at 64 ranks, %.0f at 512",
					kind.name, name, write, route, small, large)
				switch {
				case !kind.admit && max(small, large) > oneShotAllocs:
					t.Errorf("one-shot %s write=%v: a build takes %.0f allocations at 64 ranks and %.0f at 512, want ≤ %d",
						name, write, small, large, oneShotAllocs)
				case large > small+slack:
					t.Errorf("%s %s write=%v: a fresh schedule takes %.0f allocations at 512 ranks and %.0f at 64: it allocates per rank",
						kind.name, name, write, large, small)
				}
			}
		}
	}
}

// TestAlignedPriceWork counts the host work of the aligned candidate's
// price in exact units, which a wall clock cannot flake: the runs it
// serves or queues for one dense 512-rank build (every other block of a
// 15-block window of each rank's slice, 128 one-block runs a drive),
// written and read. Every pipeline depth and both cuts are priced from
// one walk of the footprint (serialAccess), so the count may reach two
// walks of the footprint's runs and no more.
func TestAlignedPriceWork(t *testing.T) {
	fs := newFreshShape(t, 512)
	fs.run(t, func(p *mpp.Proc) {
		for _, write := range []bool{true, false} {
			if sd := fs.build(t, p, 0, write, false); sd == nil {
				return
			}
			sc := &fs.c.price
			t.Logf("write=%v: %d runs served or queued for a %d-run footprint, %d cuts priced", write, sc.visits, len(sc.foot), len(sc.tried))
			if !sc.serial || sc.visits > 2*len(sc.foot) || len(sc.tried) < 2 {
				t.Errorf("write=%v: %d runs served or queued for a %d-run footprint over %d cuts (serial %v): more than two walks",
					write, sc.visits, len(sc.foot), len(sc.tried), sc.serial)
			}
		}
	})
}

// TestFreshScheduleBytes: a fresh schedule keeps only what its route
// runs, and what the build needs only to price and order the candidates
// — the union, the share table, the mapped descriptors and the logical
// partition with its cut plan — lives in the handle's scratch. At 512
// ranks, once the scratch has grown, one admitted build of each family
// allocates under a bound a build that kept every candidate's tables
// exceeds (dense 1 607 KB written, 1 487 KB read); an independent
// schedule holds no partition table and no cut plan and maps descriptors
// of its own on first use, and a two-phase one holds no mapped
// descriptors. A one-shot build, once the handle's one-shot schedule has
// grown, allocates at most oneShotBytes, at 64 ranks and at 512.
func TestFreshScheduleBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const runs, oneShotBytes = 4, 4 << 10
	bound := [3]uint64{700 << 10, 180 << 10, 800 << 10} // dense, sparse, interleaved
	for _, nRanks := range []int{64, 512} {
		fs := newFreshShape(t, nRanks)
		fs.run(t, func(p *mpp.Proc) {
			for _, kind := range buildKinds {
				if kind.admit && nRanks != 512 {
					continue
				}
				for fam, name := range []string{"dense", "sparse", "interleaved"} {
					for _, write := range []bool{true, false} {
						sd := fs.build(t, p, fam, write, kind.admit) // grows the handle's scratch
						if sd == nil {
							return
						}
						// The least of a few builds: a collection between two may
						// empty blockio's pooled mapping scratch, which the next
						// build then allocates again.
						per := uint64(math.MaxUint64)
						for range runs {
							var before, after runtime.MemStats
							runtime.ReadMemStats(&before)
							sd = fs.build(t, p, fam, write, kind.admit)
							runtime.ReadMemStats(&after)
							per = min(per, after.TotalAlloc-before.TotalAlloc)
						}
						t.Logf("%d ranks, %s %s write=%v (%s): %d B a build", nRanks, kind.name, name, write, sd.route, per)
						if !kind.admit {
							if per > oneShotBytes {
								t.Errorf("%d ranks: a one-shot %s write=%v build allocates %d B, bound %d B", nRanks, name, write, per, oneShotBytes)
							}
							continue
						}
						if per > bound[fam] {
							t.Errorf("%s write=%v: a fresh schedule allocates %d KB, bound %d KB", name, write, per>>10, bound[fam]>>10)
						}
						pl := sd.pl
						if sd.route != routeTwoPhase {
							if pl.covered != nil || pl.cbase != nil || pl.domLo != nil || pl.owner != nil || pl.ends != nil ||
								pl.rng != nil || pl.at != nil || pl.doms != nil || pl.ranks != nil || pl.domAt != nil || pl.rankAt != nil ||
								sd.cut != nil || sd.tab != nil || sd.ownedOf != nil {
								t.Errorf("%s write=%v: the %s schedule holds partition tables or a cut plan", name, write, sd.route)
							}
							if _, err := sd.mapped(fs.c, 0); err != nil || sd.ind == nil || sd.ind == &fs.c.build.mapped {
								t.Errorf("%s write=%v: the %s schedule holds no mapped descriptors of its own (%v)", name, write, sd.route, err)
							}
						} else if sd.ind != nil {
							t.Errorf("%s write=%v: the two-phase schedule holds mapped descriptors", name, write)
						}
					}
				}
			}
		})
	}
}

// TestFreshScheduleOwnsItsTables: what an admitted schedule keeps is its
// own, not the handle's scratch nor its one-shot schedule, which the
// next build rewrites — a cached schedule is replayed after other calls
// have been planned. Every family's admitted schedule, written and read,
// reads the same after the admitted builds of all the others, and again
// after one-shot builds of every family, as it did when it was built; so
// does every family's one-shot schedule once promoted.
func TestFreshScheduleOwnsItsTables(t *testing.T) {
	fs := newFreshShape(t, 512)
	fs.run(t, func(p *mpp.Proc) {
		var sds []*schedule
		var was []string
		check := func(after string) {
			for i, sd := range sds {
				if now := scheduleTables(sd); now != was[i] {
					t.Errorf("schedule %d (%s): its tables changed when %s were built", i, sd.route, after)
				}
			}
		}
		for fam := len(fs.reqs) - 1; fam >= 0; fam-- { // two-phase first: the others rewrite the most
			for _, write := range []bool{true, false} {
				sd := fs.build(t, p, fam, write, true)
				if sd == nil {
					return
				}
				if sd.route != routeTwoPhase {
					sd.mapped(fs.c, 0) // as its first call would
				}
				sds, was = append(sds, sd), append(was, scheduleTables(sd))
			}
		}
		check("later admitted schedules")
		oneShots := func() {
			for fam := range fs.reqs {
				for _, write := range []bool{true, false} {
					if fs.build(t, p, fam, write, false) == nil {
						return
					}
				}
			}
		}
		oneShots()
		check("one-shot schedules")
		// A one-shot schedule admitted as it is, on the second sight of its
		// key, is the cache's from then on.
		for fam := range fs.reqs {
			if fs.build(t, p, fam, true, false) == nil {
				return
			}
			sd := fs.c.promote(fs.c.oneShot)
			if sd.route != routeTwoPhase {
				sd.mapped(fs.c, 0)
			}
			sds, was = append(sds, sd), append(was, scheduleTables(sd))
		}
		oneShots()
		check("one-shot schedules after promotions")
	})
}

// scheduleTables prints what a schedule runs from: its segments and,
// where it holds them, its mapped descriptors, its partition and piece
// table, and its cut plan.
func scheduleTables(sd *schedule) string {
	pl := sd.pl
	out := fmt.Sprint(pl.segs)
	if sd.ind != nil {
		var runs [][]blockio.Run
		for r := range sd.ind.ind {
			ms, _ := sd.ind.of(r)
			for _, m := range ms {
				runs = append(runs, m.Runs())
			}
		}
		out += fmt.Sprint(runs)
	}
	if sd.route == routeTwoPhase {
		out += fmt.Sprint(pl.covered, pl.cbase, pl.domLo, pl.owner, pl.ends, pl.rng, pl.at, pl.doms, pl.ranks,
			pl.domAt, pl.rankAt, sd.tab.parts, sd.ownedOf)
	}
	if sd.cut != nil {
		wins := make([]int64, sd.cut.plan.Windows())
		for w := range wins {
			wins[w] = sd.cut.plan.WindowBlocks(w)
		}
		foot, at := sd.cut.plan.Footprint(nil, nil)
		out += fmt.Sprint(sd.cut.win0, foot, at, wins)
	}
	return out
}

// BenchmarkFreshSchedule is the host cost of one schedule built afresh
// at a never-repeating checkpoint's shape, 512 ranks over 32 drives:
// newSchedule (validation and route pricing included) into the handle's
// one-shot schedule, as a call whose key the handle has not seen is built,
// one sub-benchmark per request family, written and read alternately as
// the checkpoint does. An op is one build.
func BenchmarkFreshSchedule(b *testing.B) {
	for fam, name := range []string{"dense", "sparse", "interleaved"} {
		b.Run(name, func(b *testing.B) {
			fs := newFreshShape(b, 512)
			b.ReportAllocs()
			fs.run(b, func(p *mpp.Proc) {
				fs.build(b, p, fam, true, false)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fs.build(b, p, fam, i%2 == 0, false)
				}
				b.StopTimer()
			})
		})
	}
}
