package collective

import (
	"fmt"
	"math/rand"
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
)

func newFreshShape(tb testing.TB, nRanks int) *freshShape {
	tb.Helper()
	const bs = 4096
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
	if _, err := vol.Create(pfs.Spec{Name: "part", Org: pfs.OrgPartitioned, RecordSize: bs, NumRecords: n, Parts: freshDrives}); err != nil {
		tb.Fatal(err)
	}
	if _, err := vol.Create(pfs.Spec{Name: "striped", Org: pfs.OrgSequential, RecordSize: bs, NumRecords: n,
		Placement: pfs.PlaceStriped, StripeUnitFS: 1}); err != nil {
		tb.Fatal(err)
	}
	g, err := vol.OpenGroup("part", "striped")
	if err != nil {
		tb.Fatal(err)
	}
	c, err := Open(g, nRanks, Options{Locality: true, Strategy: blockio.StrategyAuto})
	if err != nil {
		tb.Fatal(err)
	}
	fs := &freshShape{e: e, c: c, bufs: make([][]byte, nRanks)}
	for r := range fs.bufs {
		fs.bufs[r] = make([]byte, freshPer*bs)
	}
	rng := rand.New(rand.NewSource(1))
	for fam := range fs.reqs {
		rows := rng.Perm(freshSlice)[:freshPer]
		fs.reqs[fam] = make([][]VecReq, nRanks)
		for r := range fs.reqs[fam] {
			base := int64(r * freshSlice)
			var vec blockio.Vec
			file := 0
			switch fam {
			case 0:
				off := base + rng.Int63n(freshSlice-2*freshPer+2)
				for i := int64(0); i < freshPer; i++ {
					vec = append(vec, blockio.VecSeg{Block: off + 2*i, N: 1, BufOff: i * bs})
				}
			case 1:
				vec = blockio.Vec{{Block: base + rng.Int63n(freshSlice-freshPer+1), N: freshPer}}
			default:
				file = 1
				for i, row := range rows {
					vec = append(vec, blockio.VecSeg{Block: int64(row*nRanks + r), N: 1, BufOff: int64(i) * bs})
				}
			}
			fs.reqs[fam][r] = []VecReq{{File: file, Vec: vec}}
		}
	}
	return fs
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

// build is one uncached schedule of family fam in one direction: the
// plan, then the schedule — route pricing, the partition it picks and
// its tables.
func (fs *freshShape) build(tb testing.TB, p *mpp.Proc, fam int, write bool) *schedule {
	c := fs.c
	copy(c.reqs, fs.reqs[fam])
	copy(c.bufs, fs.bufs)
	pl, err := buildPlan(c.group, c.reqs, c.bufs, c.naggs, write, c.opts)
	if err != nil {
		tb.Error(err) // rank 0 is not the test's goroutine: no Fatal
		return nil
	}
	key, sig := c.fingerprint(write, false)
	sd, err := c.newSchedule(p, pl, write, false, key, sig)
	if err != nil {
		tb.Error(err)
	}
	return sd
}

// TestFreshScheduleAllocs: building a schedule afresh allocates a fixed
// number of tables, not a few for every rank — the plan's per-rank lists
// and ranges are slices of flat arrays, the sorts are typed, and the
// independent routes' mapped descriptors share one arena. Each family,
// written and read, may allocate at 512 ranks no more than at 64 plus a
// small slack.
func TestFreshScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const slack = 8
	allocs := func(nRanks, fam int, write bool) (n float64, route string) {
		fs := newFreshShape(t, nRanks)
		fs.run(t, func(p *mpp.Proc) {
			if sd := fs.build(t, p, fam, write); sd != nil { // warms the handle's pricing scratch
				route = sd.route.String()
			}
			n = testing.AllocsPerRun(5, func() { fs.build(t, p, fam, write) })
		})
		return n, route
	}
	for fam, name := range []string{"dense", "sparse", "interleaved"} {
		for _, write := range []bool{true, false} {
			small, _ := allocs(64, fam, write)
			large, route := allocs(512, fam, write)
			t.Logf("%s write=%v (%s at 512 ranks): %.0f allocations at 64 ranks, %.0f at 512", name, write, route, small, large)
			if large > small+slack {
				t.Errorf("%s write=%v: a fresh schedule takes %.0f allocations at 512 ranks and %.0f at 64: it allocates per rank",
					name, write, large, small)
			}
		}
	}
}

// BenchmarkFreshSchedule is the host cost of one schedule built afresh
// at a never-repeating checkpoint's shape, 512 ranks over 32 drives:
// buildPlan and newSchedule (route pricing included) for each of the
// three request families in turn, written and read alternately as the
// checkpoint does. An op is one build.
func BenchmarkFreshSchedule(b *testing.B) {
	fs := newFreshShape(b, 512)
	b.ReportAllocs()
	fs.run(b, func(p *mpp.Proc) {
		fs.build(b, p, 0, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.build(b, p, (i/2)%3, i%2 == 0)
		}
		b.StopTimer()
	})
}
