// Plan capture & replay acceptance (the PR 10 tentpole criterion): on a
// 1024-rank × 64-iteration contended checkpoint loop, every iteration
// after the first must replay the captured schedule — ≥3× fewer host
// allocations and ≥2× less host wall-clock than iteration 1's fresh
// build — while the modeled times, data, and probe traces stay
// bit-identical to the uncached path. The virtual world cannot tell the
// cache exists; only the host does.

package collective

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
)

// replayWinPerRank is the number of single-block interleaved segments
// each rank writes per checkpoint.
const replayWinPerRank = 8

// replayWinContent is the byte at offset j of rank's k-th block in
// iteration it.
func replayWinContent(it, rank, k, j int) byte {
	return byte(11*it + 17*rank + 23*k + 3*j + 1)
}

// replayWinResult is one measured checkpoint-loop run.
type replayWinResult struct {
	wall    []time.Duration // host wall-clock per iteration (rank-0 window)
	mallocs []uint64        // host allocations per iteration
	vdur    []time.Duration // modeled duration per iteration
	now     time.Duration   // final virtual time
	image   uint64          // FNV-1a of the final file image
	cache   CacheStats
	trace   []byte
	metrics []byte
}

// runReplayWin executes the contended checkpoint loop: nRanks ranks each
// write the same replayWinPerRank interleaved blocks every iteration
// with fresh contents. Host wall-clock and allocation counts are
// measured per iteration at rank 0's call boundaries — under the
// engine's strict alternation the window spans the whole group's work
// for that collective.
func runReplayWin(tb testing.TB, nRanks, iters int, cache bool, rec *probe.Recorder) replayWinResult {
	tb.Helper()
	e := sim.NewEngine()
	geom := device.Geometry{BlockSize: testBS, BlocksPerCyl: 8, Cylinders: 64}
	disks := make([]*device.Disk, 16)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name: fmt.Sprintf("d%d", i), Geometry: geom, Engine: e,
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		tb.Fatal(err)
	}
	vol := pfs.NewVolume(store)
	nBlocks := int64(replayWinPerRank * nRanks)
	if _, err := vol.Create(pfs.Spec{
		Name: "chk", Org: pfs.OrgSequential, RecordSize: testBS,
		NumRecords: nBlocks, Placement: pfs.PlaceStriped, StripeUnitFS: 1,
	}); err != nil {
		tb.Fatal(err)
	}
	g, err := vol.OpenGroup("chk")
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{}
	if !cache {
		opts.PlanCache = -1
	}
	col, err := Open(g, nRanks, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if rec != nil {
		e.SetProbe(rec)
		for _, d := range disks {
			d.SetProbe(rec)
		}
		store.SetProbe(rec)
	}
	res := replayWinResult{
		wall:    make([]time.Duration, iters),
		mallocs: make([]uint64, iters),
		vdur:    make([]time.Duration, iters),
	}
	var mg *mpp.Group
	var join *sim.Group
	mg, join = mpp.Run(e, nRanks, "ck", func(p *mpp.Proc) {
		rank := p.Rank()
		var vec blockio.Vec
		for k := 0; k < replayWinPerRank; k++ {
			vec = append(vec, blockio.VecSeg{
				Block: int64(rank + k*nRanks), N: 1, BufOff: int64(k) * testBS,
			})
		}
		reqs := []VecReq{{File: 0, Vec: vec}}
		buf := make([]byte, replayWinPerRank*testBS)
		var ms runtime.MemStats
		var m0 uint64
		var t0 time.Time
		var v0 time.Duration
		for it := 0; it < iters; it++ {
			for k := 0; k < replayWinPerRank; k++ {
				blk := buf[k*testBS : (k+1)*testBS]
				for j := range blk {
					blk[j] = replayWinContent(it, rank, k, j)
				}
			}
			if rank == 0 {
				runtime.ReadMemStats(&ms)
				m0, t0, v0 = ms.Mallocs, time.Now(), p.Now()
			}
			if err := col.WriteAll(p, reqs, buf); err != nil {
				tb.Errorf("iter %d rank %d: %v", it, rank, err)
			}
			if rank == 0 {
				res.wall[it] = time.Since(t0)
				res.vdur[it] = p.Now() - v0
				runtime.ReadMemStats(&ms)
				res.mallocs[it] = ms.Mallocs - m0
			}
		}
	})
	// Contended interconnect: per-hop latency plus a shared bisection
	// link the whole exchange squeezes through.
	mg.SetLink(2*time.Microsecond, 50e6)
	mg.SetBisection(200e6)
	if rec != nil {
		mg.SetProbe(rec, "ck")
	}
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	res.now = e.Now()
	res.cache = col.PlanCacheStats()

	// Final image: must hold the last iteration's bytes exactly.
	img := make([]byte, nBlocks*testBS)
	if err := g.File(0).Set().ReadVec(sim.NewWall(), blockio.Vec{{Block: 0, N: nBlocks}}, img); err != nil {
		tb.Fatal(err)
	}
	for b := int64(0); b < nBlocks; b++ {
		rank, k := int(b)%nRanks, int(b)/nRanks
		for j := 0; j < 4; j++ { // spot-check a prefix of each block
			if want := replayWinContent(iters-1, rank, k, j); img[b*testBS+int64(j)] != want {
				tb.Errorf("block %d byte %d: got %d, want %d (last iteration's data)", b, j, img[b*testBS+int64(j)], want)
				break
			}
		}
	}
	h := fnv.New64a()
	h.Write(img)
	res.image = h.Sum64()
	if rec != nil {
		var tr traceBuf
		if err := rec.WriteChromeTrace(&tr); err != nil {
			tb.Fatal(err)
		}
		res.trace = tr.b
		res.metrics = []byte(rec.Metrics().Table().String())
	}
	return res
}

// traceBuf is a minimal io.Writer (avoids pulling bytes.Buffer into the
// measured run's allocation profile).
type traceBuf struct{ b []byte }

func (t *traceBuf) Write(p []byte) (int, error) { t.b = append(t.b, p...); return len(p), nil }

// replayWinSummary reduces the per-iteration series: iteration 1's
// fresh-build cost versus the replayed iterations 2..N (median wall —
// robust to a stray GC pause — and mean allocations).
func replayWinSummary(res replayWinResult) (buildWall, replayWall time.Duration, buildAllocs, replayAllocs uint64) {
	buildWall, buildAllocs = res.wall[0], res.mallocs[0]
	rest := append([]time.Duration(nil), res.wall[1:]...)
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	replayWall = rest[len(rest)/2]
	var sum uint64
	for _, m := range res.mallocs[1:] {
		sum += m
	}
	replayAllocs = sum / uint64(len(res.mallocs)-1)
	return
}

// TestPlanReplayWin is the acceptance gate: 1024 ranks × 64 iterations,
// contended. Iterations 2..64 must replay with ≥3× fewer allocations
// than iteration 1's fresh build (the wall-clock ratio is logged, not
// gated: the benchmark ledger owns wall-clock), and the whole cached run
// must be bit-identical — modeled times, final time, data —
// to the uncached path, with byte-identical probe traces checked on a
// traced pair of runs.
func TestPlanReplayWin(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank × 64-iteration loop: skipped in -short")
	}
	const nRanks, iters = 1024, 64
	cached := runReplayWin(t, nRanks, iters, true, nil)
	if cached.cache.Misses != 1 || cached.cache.Hits != uint64(iters-1) {
		t.Errorf("cached run: got %d misses / %d hits, want 1 / %d (stats %+v)",
			cached.cache.Misses, cached.cache.Hits, iters-1, cached.cache)
	}

	// Bit-identity against the uncached path, iteration by iteration.
	fresh := runReplayWin(t, nRanks, iters, false, nil)
	if cached.now != fresh.now {
		t.Errorf("final virtual time differs: cached %v vs uncached %v", cached.now, fresh.now)
	}
	for it := range cached.vdur {
		if cached.vdur[it] != fresh.vdur[it] {
			t.Errorf("iteration %d modeled duration differs: cached %v vs uncached %v", it, cached.vdur[it], fresh.vdur[it])
		}
	}
	if cached.image != fresh.image {
		t.Error("final file images differ between cached and uncached runs")
	}

	// Probe-trace identity, on a smaller traced pair (a 1024×64 trace is
	// hundreds of MB; the replay machinery is scale-independent).
	ctr := runReplayWin(t, 128, 6, true, probe.New())
	ftr := runReplayWin(t, 128, 6, false, probe.New())
	if string(ctr.trace) != string(ftr.trace) {
		t.Errorf("probe traces differ between cached and uncached runs (%d vs %d bytes)", len(ctr.trace), len(ftr.trace))
	}
	if string(ctr.metrics) != string(ftr.metrics) {
		t.Error("metrics tables differ between cached and uncached runs")
	}

	buildWall, replayWall, buildAllocs, replayAllocs := replayWinSummary(cached)
	t.Logf("iteration 1 (fresh build): %v, %d allocs", buildWall, buildAllocs)
	t.Logf("iterations 2..%d (replay): %v median, %d allocs mean (%.1fx wall, %.1fx allocs)",
		iters, replayWall, replayAllocs,
		float64(buildWall)/float64(replayWall), float64(buildAllocs)/float64(replayAllocs))
	if raceEnabled {
		t.Log("race detector active: perf-ratio assertions skipped")
		return
	}
	if replayAllocs*3 > buildAllocs {
		t.Errorf("replayed iterations allocate too much: %d mean vs %d fresh (want ≥3× fewer)", replayAllocs, buildAllocs)
	}
}

// BenchmarkPlanReplay reports the replay trajectory numbers:
// the checkpoint loop cached vs uncached, reporting iteration-1 build
// cost, replayed-iteration cost, and the per-iteration speedup.
func BenchmarkPlanReplay(b *testing.B) {
	for _, mode := range []struct {
		name  string
		cache bool
	}{{"cached", true}, {"uncached", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var res replayWinResult
			for i := 0; i < b.N; i++ {
				res = runReplayWin(b, 1024, 64, mode.cache, nil)
			}
			buildWall, replayWall, buildAllocs, replayAllocs := replayWinSummary(res)
			b.ReportMetric(float64(buildWall.Microseconds())/1e3, "iter1-ms")
			b.ReportMetric(float64(replayWall.Microseconds())/1e3, "iter-ms")
			b.ReportMetric(float64(buildAllocs), "iter1-allocs")
			b.ReportMetric(float64(replayAllocs), "iter-allocs")
			b.ReportMetric(float64(buildWall)/float64(replayWall), "iter-speedup")
		})
	}
}
