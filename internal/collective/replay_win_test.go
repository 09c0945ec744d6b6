// Plan capture & replay acceptance (the PR 10 tentpole criterion): on a
// 1024-rank × 64-iteration contended checkpoint loop, iteration 1 builds
// the schedule into the handle's one-shot schedule, iteration 2 — the
// second sight of the request lists — admits it as it is, and every
// iteration after the first must replay it — ≥3× fewer host allocations
// and ≥2× less host wall-clock than iteration 1's fresh build — while
// the modeled times, data, and probe traces stay bit-identical to the
// uncached path. The virtual world cannot tell the cache exists; only
// the host does.

package collective_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/experiments"
	"repro/internal/probe"
)

// runReplayWin executes the contended checkpoint loop
// (experiments.ReplayLoop): nRanks ranks each write the same eight
// interleaved blocks every iteration with fresh contents. Host wall-clock
// and allocation counts are measured per iteration at rank 0's call
// boundaries — under the engine's strict alternation the window spans the
// whole group's work for that collective. The fixture verifies that the
// final image holds the last iteration's bytes.
func runReplayWin(tb testing.TB, nRanks, iters int, cache bool, rec *probe.Recorder) experiments.CheckpointResult {
	tb.Helper()
	res, err := experiments.ReplayLoop(nRanks, iters, cache).Traced(rec, "").Run()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// traceOf renders what rec recorded: the Chrome trace and the metrics
// table.
func traceOf(tb testing.TB, rec *probe.Recorder) (trace []byte, metrics string) {
	tb.Helper()
	var tr bytes.Buffer
	if err := probe.WriteChromeTrace(&tr, rec); err != nil {
		tb.Fatal(err)
	}
	return tr.Bytes(), rec.Metrics().Table().String()
}

// replayWinSummary reduces the per-iteration series: iteration 1's
// fresh-build cost versus the replayed iterations 2..N (median wall —
// robust to a stray GC pause — and mean allocations).
func replayWinSummary(res experiments.CheckpointResult) (buildWall, replayWall time.Duration, buildAllocs, replayAllocs uint64) {
	buildWall, buildAllocs = res.Calls[0].Wall, res.Calls[0].Mallocs
	var rest []time.Duration
	var sum uint64
	for _, c := range res.Calls[1:] {
		rest = append(rest, c.Wall)
		sum += c.Mallocs
	}
	slices.Sort(rest)
	return buildWall, rest[len(rest)/2], buildAllocs, sum / uint64(len(rest))
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
	if cached.Cache.Misses != 1 || cached.Cache.Hits != uint64(iters-1) {
		t.Errorf("cached run: got %d misses / %d hits, want 1 / %d (stats %+v)",
			cached.Cache.Misses, cached.Cache.Hits, iters-1, cached.Cache)
	}

	// Bit-identity against the uncached path, iteration by iteration.
	fresh := runReplayWin(t, nRanks, iters, false, nil)
	if cached.Elapsed != fresh.Elapsed {
		t.Errorf("final virtual time differs: cached %v vs uncached %v", cached.Elapsed, fresh.Elapsed)
	}
	for it := range cached.Calls {
		if cached.Calls[it].Modeled != fresh.Calls[it].Modeled {
			t.Errorf("iteration %d modeled duration differs: cached %v vs uncached %v", it, cached.Calls[it].Modeled, fresh.Calls[it].Modeled)
		}
	}
	if cached.Image != fresh.Image {
		t.Error("final file images differ between cached and uncached runs")
	}

	// Probe-trace identity, on a smaller traced pair (a 1024×64 trace is
	// hundreds of MB; the replay machinery is scale-independent).
	crec, frec := probe.New(), probe.New()
	runReplayWin(t, 128, 6, true, crec)
	runReplayWin(t, 128, 6, false, frec)
	ctrace, cmetrics := traceOf(t, crec)
	ftrace, fmetrics := traceOf(t, frec)
	if !bytes.Equal(ctrace, ftrace) {
		t.Errorf("probe traces differ between cached and uncached runs (%d vs %d bytes)", len(ctrace), len(ftrace))
	}
	if cmetrics != fmetrics {
		t.Error("metrics tables differ between cached and uncached runs")
	}

	buildWall, replayWall, buildAllocs, replayAllocs := replayWinSummary(cached)
	t.Logf("iteration 1 (fresh build): %v, %d allocs", buildWall, buildAllocs)
	t.Logf("iterations 2..%d (replay): %v median, %d allocs mean (%.1fx wall, %.1fx allocs)",
		iters, replayWall, replayAllocs,
		float64(buildWall)/float64(replayWall), float64(buildAllocs)/float64(replayAllocs))
	if collective.RaceEnabled {
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
			var res experiments.CheckpointResult
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
