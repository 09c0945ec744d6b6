// Schedule capture & replay tests: a replayed iteration must be
// bit-identical — modeled time, stats, traffic, probe trace, data — to
// the same iteration planned from scratch, and every invalidation
// trigger (interconnect-model reconfiguration, undersized buffers) must
// force a rebuild that still matches the uncached path exactly.

package collective

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/ioserver"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
)

// replayContent is the byte written at offset i of a rank's buffer in
// iteration it — every iteration writes fresh data, so a replay that
// reused stale payloads would be caught by the read-back.
func replayContent(it, rank int, i int64) byte {
	return byte(7*it + 13*rank + int(i)*3 + 1)
}

// replayScn is one iterated checkpoint scenario: every rank writes the
// same interleaved footprint each iteration with fresh contents, then
// reads it back.
type replayScn struct {
	nRanks, iters int
	opts          Options
	// mutate, when set, runs on rank 0 before iteration it's write
	// (it ≥ 1) — the hook the invalidation tests use to change options
	// or the interconnect model mid-loop.
	mutate func(it int, col *Collective, mg *mpp.Group)
	// bufLen, when set, overrides the write-buffer length for (it, rank)
	// (return <0 for the full length) — the bounds-error test's hook.
	bufLen func(it, rank int) int64
	// force, when set, is the handle's forcePart hook: every call runs
	// two-phase on the partition it names instead of the priced one.
	force *choice
	// nonblocking runs every call as IWriteAll/IReadAll + Wait through a
	// two-worker fair-share I/O server lane.
	nonblocking bool
	// bisection, when set, replaces the 500 MB/s shared pool: a starved
	// one makes the exchange worth hiding behind the drives.
	bisection float64
}

// replayObs is everything observable about one scenario run.
type replayObs struct {
	now       time.Duration
	iterDur   []time.Duration
	rankHash  []uint64
	imageHash uint64
	iterErrs  []string
	aligned   []bool      // per iteration: the write ran on the aligned partition
	depth     []int       // per iteration: the write's pipeline rounds
	routes    [][2]string // per iteration: the write's and the read's route
	cache     CacheStats
	trace     []byte
	metrics   []byte
}

// runReplayScenario executes the scenario on a fresh simulated machine.
// cache=false drops the cached schedules before every call
// (InvalidateSchedules), everything else identical — the comparison
// baseline.
func runReplayScenario(t *testing.T, scn replayScn, cache bool, rec *probe.Recorder) replayObs {
	t.Helper()
	const perRank = 4
	e := sim.NewEngine()
	geom := device.Geometry{BlockSize: testBS, BlocksPerCyl: 8, Cylinders: 64}
	disks := make([]*device.Disk, 8)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name: fmt.Sprintf("d%d", i), Geometry: geom, Engine: e,
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	vol := pfs.NewVolume(store)
	nBlocks := int64(perRank * scn.nRanks)
	if _, err := vol.Create(pfs.Spec{
		Name: "chk", Org: pfs.OrgSequential, RecordSize: testBS,
		NumRecords: nBlocks, Placement: pfs.PlaceStriped, StripeUnitFS: 1,
	}); err != nil {
		t.Fatal(err)
	}
	g, err := vol.OpenGroup("chk")
	if err != nil {
		t.Fatal(err)
	}
	opts := scn.opts
	var srv *ioserver.Server
	if scn.nonblocking {
		srv = ioserver.New(ioserver.Config{Workers: 2, Policy: ioserver.FairShare})
		opts.Service = srv.AddJob(ioserver.JobConfig{Name: "rp"})
		srv.Start(e)
	}
	col, err := Open(g, scn.nRanks, opts)
	if err != nil {
		t.Fatal(err)
	}
	col.forcePart = scn.force
	if rec != nil {
		e.SetProbe(rec)
		for _, d := range disks {
			d.SetProbe(rec)
		}
		store.SetProbe(rec)
		if srv != nil {
			srv.SetProbe(rec)
		}
	}
	// call is one collective in the scenario's mode.
	call := func(p *mpp.Proc, write bool, reqs []VecReq, buf []byte) error {
		if !cache && p.Rank() == 0 {
			col.InvalidateSchedules()
		}
		switch {
		case !scn.nonblocking && write:
			return col.WriteAll(p, reqs, buf)
		case !scn.nonblocking:
			return col.ReadAll(p, reqs, buf)
		}
		h, err := col.istart(p, write, reqs, buf)
		if err != nil {
			return err
		}
		return h.Wait(p)
	}
	obs := replayObs{
		iterDur:  make([]time.Duration, scn.iters),
		rankHash: make([]uint64, scn.nRanks),
		iterErrs: make([]string, scn.iters),
		aligned:  make([]bool, scn.iters),
		depth:    make([]int, scn.iters),
		routes:   make([][2]string, scn.iters),
	}
	var mg *mpp.Group
	var join *sim.Group
	mg, join = mpp.Run(e, scn.nRanks, "rp", func(p *mpp.Proc) {
		rank := p.Rank()
		// Blocks rank + k·nRanks, k in [0, perRank): interleaved, every
		// aggregator hears from many ranks.
		var vec blockio.Vec
		for k := int64(0); k < perRank; k++ {
			vec = append(vec, blockio.VecSeg{
				Block: int64(rank) + k*int64(scn.nRanks), N: 1, BufOff: k * testBS,
			})
		}
		reqs := []VecReq{{File: 0, Vec: vec}}
		buf := make([]byte, perRank*testBS)
		rbuf := make([]byte, perRank*testBS)
		h := fnv.New64a()
		for it := 0; it < scn.iters; it++ {
			if rank == 0 && scn.mutate != nil && it > 0 {
				scn.mutate(it, col, mg)
			}
			for i := range buf {
				buf[i] = replayContent(it, rank, int64(i))
			}
			wbuf := buf
			if scn.bufLen != nil {
				if n := scn.bufLen(it, rank); n >= 0 {
					wbuf = buf[:n]
				}
			}
			t0 := p.Now()
			werr := call(p, true, reqs, wbuf)
			if rank == 0 && werr == nil {
				obs.aligned[it] = col.route == routeTwoPhase && col.sched.pl.phys != nil
				obs.depth[it] = col.LastDepth()
				obs.routes[it][0] = col.LastRoute()
			}
			rerr := call(p, false, reqs, rbuf)
			if rank == 0 {
				obs.routes[it][1] = col.LastRoute()
				obs.iterDur[it] = p.Now() - t0
				var es string
				if werr != nil {
					es = "write: " + werr.Error()
				}
				if rerr != nil {
					es += " read: " + rerr.Error()
				}
				obs.iterErrs[it] = es
			}
			if werr == nil && rerr == nil && scn.bufLen == nil && !bytes.Equal(rbuf, buf) {
				t.Errorf("iter %d rank %d: read back different bytes than written", it, rank)
			}
			h.Write(rbuf)
		}
		obs.rankHash[rank] = h.Sum64()
	})
	mg.SetLink(2*time.Microsecond, 100e6)
	mg.SetBisection(500e6)
	if scn.bisection > 0 {
		mg.SetBisection(scn.bisection)
	}
	if rec != nil {
		mg.SetProbe(rec, "rp")
	}
	e.Go("join", func(sp *sim.Proc) {
		join.Wait(sp)
		if srv != nil {
			srv.Stop(sp)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	obs.now = e.Now()
	obs.cache = col.PlanCacheStats()
	img := readAllBlocks(t, g)
	ih := fnv.New64a()
	ih.Write(img)
	obs.imageHash = ih.Sum64()
	if rec != nil {
		var tr bytes.Buffer
		if err := probe.WriteChromeTrace(&tr, rec); err != nil {
			t.Fatal(err)
		}
		obs.trace = tr.Bytes()
		obs.metrics = []byte(rec.Metrics().Table().String())
	}
	return obs
}

// diffReplayObs asserts two runs observed the same modeled world —
// virtual time, per-iteration durations, data, errors, and (when
// recorded) byte-identical traces and metrics.
func diffReplayObs(t *testing.T, label string, a, b replayObs) {
	t.Helper()
	if a.now != b.now {
		t.Errorf("%s: final virtual time differs: %v vs %v", label, a.now, b.now)
	}
	for it := range a.iterDur {
		if a.iterDur[it] != b.iterDur[it] {
			t.Errorf("%s: iteration %d modeled duration differs: %v vs %v", label, it, a.iterDur[it], b.iterDur[it])
		}
		if a.iterErrs[it] != b.iterErrs[it] {
			t.Errorf("%s: iteration %d errors differ:\n  %q\n  %q", label, it, a.iterErrs[it], b.iterErrs[it])
		}
		if a.aligned[it] != b.aligned[it] || a.depth[it] != b.depth[it] {
			t.Errorf("%s: iteration %d partition differs: aligned %v at depth %d vs %v at depth %d",
				label, it, a.aligned[it], a.depth[it], b.aligned[it], b.depth[it])
		}
	}
	for r := range a.rankHash {
		if a.rankHash[r] != b.rankHash[r] {
			t.Errorf("%s: rank %d read different data between runs", label, r)
		}
	}
	if a.imageHash != b.imageHash {
		t.Errorf("%s: final images differ", label)
	}
	if !bytes.Equal(a.trace, b.trace) {
		t.Errorf("%s: exported traces differ (%d vs %d bytes)", label, len(a.trace), len(b.trace))
	}
	if !bytes.Equal(a.metrics, b.metrics) {
		t.Errorf("%s: metrics tables differ", label)
	}
}

// TestReplayBitIdentical runs the iterated checkpoint loop cached and
// uncached on every route family — two-phase in one round and pipelined,
// auto, vectored and sieved, and the drive-aligned partition:
// forced into one round, forced through pipelines of two, four and six
// rounds (every chunk cut in 2, 4 and 8: the non-owner ranks post all
// their rounds at once), as the tuned options' StrategyAuto prices its
// depth, and as an unbounded handle's StrategyAuto prices it over a
// starved bisection pool (auto-unbounded: ChunkBytes 0 must run deeper
// than one round there) — and on the nonblocking entry
// points, whose cached schedule carries the call-wide plan the I/O
// server executes — and requires bit-identical modeled observables and
// probe traces, while the cached run actually replays.
func TestReplayBitIdentical(t *testing.T) {
	aligned := func(split int) *choice { return &choice{route: routeTwoPhase, aligned: true, split: split} }
	tuned := Options{Locality: true, ChunkBytes: 1 << 20, Strategy: blockio.StrategyAuto}
	cases := []struct {
		name        string
		opts        Options
		force       *choice
		wantAligned bool
		bisection   float64 // 0: the fixture's 500 MB/s
	}{
		{"single-shot", Options{}, nil, false, 0}, // one round: the name the schedule has always had
		{"locality", Options{Locality: true}, nil, false, 0},
		{"pipelined", Options{ChunkBytes: 2 * testBS}, nil, false, 0},
		{"auto", Options{Strategy: blockio.StrategyAuto}, nil, true, 0},
		{"auto-unbounded", Options{Locality: true, Strategy: blockio.StrategyAuto}, nil, true, 500e3},
		{"vectored", Options{Strategy: blockio.StrategyVectored}, nil, false, 0},
		{"sieved", Options{Strategy: blockio.StrategySieved}, nil, false, 0},
		{"aligned", Options{}, aligned(1), true, 0},
		{"aligned-chunked", Options{Locality: true, ChunkBytes: 2 * testBS}, aligned(1), true, 0},
		{"aligned-two-rounds", Options{Locality: true, ChunkBytes: 1 << 20}, aligned(2), true, 0},
		{"aligned-split-4", Options{Locality: true, ChunkBytes: 1 << 20}, aligned(4), true, 0},
		{"aligned-split-8", Options{Locality: true, ChunkBytes: 1 << 20}, aligned(8), true, 0},
		{"aligned-unbounded-split-4", Options{Locality: true}, aligned(4), true, 0},
		{"auto-tuned", tuned, nil, true, 0},
	}
	check := func(name string, scn replayScn, wantAligned bool) {
		t.Run(name, func(t *testing.T) {
			run := func(cache bool) replayObs {
				return runReplayScenario(t, scn, cache, probe.New())
			}
			cached := run(true)
			fresh := run(false)
			diffReplayObs(t, name, cached, fresh)
			for it, al := range cached.aligned {
				if al != wantAligned {
					t.Errorf("iteration %d: aligned partition %v, want %v", it, al, wantAligned)
				}
				// Unbounded is a bound too: where the exchange is worth
				// hiding, ChunkBytes 0 gets a pipeline.
				if name == "auto-unbounded" && cached.depth[it] < 2 {
					t.Errorf("iteration %d: ran %d round(s), want a priced pipeline (≥ 2)", it, cached.depth[it])
				}
			}
			// 5 iterations × (write + read) = 2 misses then 8 replays.
			if cached.cache.Hits != 8 || cached.cache.Misses != 2 {
				t.Errorf("cached run: got %d hits / %d misses, want 8 / 2 (stats %+v)",
					cached.cache.Hits, cached.cache.Misses, cached.cache)
			}
			if fresh.cache.Hits != 0 || fresh.cache.Misses != 10 {
				t.Errorf("uncached run: got %d hits / %d misses, want 0 / 10", fresh.cache.Hits, fresh.cache.Misses)
			}
		})
	}
	for _, tc := range cases {
		check(tc.name, replayScn{nRanks: 24, iters: 5, opts: tc.opts, force: tc.force, bisection: tc.bisection}, tc.wantAligned)
	}
	// Nonblocking calls never leave the logical partition, tuned or not.
	check("nonblocking", replayScn{nRanks: 24, iters: 5, opts: Options{Locality: true}, nonblocking: true}, false)
	check("nonblocking-tuned", replayScn{nRanks: 24, iters: 5, opts: tuned, nonblocking: true}, false)
}

// TestReplayInvalidation reconfigures the interconnect model between
// iterations (SetBisection, SetBisectionPool, then SetLink twice): every
// mutation bumps the model epoch, so it must flush the cache, rebuild
// the schedule, and still match an uncached run bit for bit.
func TestReplayInvalidation(t *testing.T) {
	mutate := func(it int, col *Collective, mg *mpp.Group) {
		switch it {
		case 2:
			mg.SetBisection(200e6)
		case 4:
			// The same bandwidth on a pool of its own: only the epoch
			// tells the model changed.
			mg.SetBisectionPool(mpp.NewBisection(200e6))
		case 6:
			mg.SetLink(5*time.Microsecond, 80e6)
		case 8:
			mg.SetLink(20*time.Microsecond, 20e6)
		}
	}
	scn := replayScn{nRanks: 24, iters: 10, mutate: mutate}
	cached := runReplayScenario(t, scn, true, probe.New())
	fresh := runReplayScenario(t, scn, false, probe.New())
	diffReplayObs(t, "invalidation", cached, fresh)
	// Write+read schedules rebuild at iteration 0 and after each of the
	// four mutations (iterations 2, 4, 6, 8); the odd iterations replay.
	st := cached.cache
	if st.Misses != 10 || st.Hits != 10 {
		t.Errorf("got %d misses / %d hits, want 10 / 10 (stats %+v)", st.Misses, st.Hits, st)
	}
	if st.Invalidations < 4 {
		t.Errorf("got %d invalidations, want ≥ 4 (one per mutation)", st.Invalidations)
	}
}

// TestReplayRepricesPartition is the same fence for the partition choice
// a cached schedule carries: under the tuned options StrategyAuto puts
// the loop on the drive-aligned partition; starving the bisection pool
// mid-loop bumps the model epoch, so the cached aligned schedule must be
// dropped and the call re-priced (onto an independent route — no
// exchange is worth 1 KB/s), and restoring the pool must bring the
// aligned partition back — cached and uncached runs bit-identical
// throughout.
func TestReplayRepricesPartition(t *testing.T) {
	mutate := func(it int, col *Collective, mg *mpp.Group) {
		switch it {
		case 2:
			mg.SetBisection(1e3)
		case 4:
			mg.SetBisection(500e6)
		}
	}
	scn := replayScn{nRanks: 24, iters: 6, mutate: mutate,
		opts: Options{Locality: true, ChunkBytes: 1 << 20, Strategy: blockio.StrategyAuto}}
	cached := runReplayScenario(t, scn, true, probe.New())
	fresh := runReplayScenario(t, scn, false, probe.New())
	diffReplayObs(t, "reprice", cached, fresh)
	for it, want := range []bool{true, true, false, false, true, true} {
		if cached.aligned[it] != want {
			t.Errorf("iteration %d: aligned partition %v, want %v", it, cached.aligned[it], want)
		}
	}
	if st := cached.cache; st.Misses != 6 || st.Hits != 6 {
		t.Errorf("got %d misses / %d hits, want 6 / 6 (stats %+v)", st.Misses, st.Hits, st)
	}
}

// TestReplayBufferBoundsError shrinks one rank's buffer on a later
// iteration of an otherwise-replayed pattern: the cache must fall back
// to a fresh build so the bounds error is byte-identical to the
// uncached path's, instead of silently replaying past the validation.
func TestReplayBufferBoundsError(t *testing.T) {
	scn := replayScn{
		nRanks: 8, iters: 4,
		bufLen: func(it, rank int) int64 {
			if it == 2 && rank == 5 {
				return 2 * testBS // last two segments now exceed the buffer
			}
			return -1
		},
	}
	cached := runReplayScenario(t, scn, true, nil)
	fresh := runReplayScenario(t, scn, false, nil)
	diffReplayObs(t, "bounds", cached, fresh)
	if cached.iterErrs[2] == "" {
		t.Fatal("truncated buffer produced no error")
	}
	if cached.iterErrs[2] != fresh.iterErrs[2] {
		t.Errorf("cached and uncached bounds errors differ:\n  %q\n  %q", cached.iterErrs[2], fresh.iterErrs[2])
	}
}

// TestReplayDeterminism512 is the replay determinism fence: a 512-rank
// contended pipelined checkpoint loop, replayed across 3 iterations
// with the cache enabled, run twice on fresh engines — every modeled
// observable must be bit-identical, and the cache must actually have
// replayed. The CI race job runs this package, so the same scenario is
// exercised under -race.
func TestReplayDeterminism512(t *testing.T) {
	scn := replayScn{nRanks: 512, iters: 3, opts: Options{ChunkBytes: 16 * testBS}}
	a := runReplayScenario(t, scn, true, nil)
	b := runReplayScenario(t, scn, true, nil)
	diffReplayObs(t, "determinism", a, b)
	if a.cache != b.cache {
		t.Errorf("cache stats differ between runs: %+v vs %+v", a.cache, b.cache)
	}
	if a.cache.Hits != 4 || a.cache.Misses != 2 {
		t.Errorf("got %d hits / %d misses, want 4 / 2 (stats %+v)", a.cache.Hits, a.cache.Misses, a.cache)
	}
	for it := range a.iterErrs {
		if a.iterErrs[it] != "" {
			t.Fatalf("iteration %d failed: %s", it, a.iterErrs[it])
		}
	}
}
