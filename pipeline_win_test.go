// Pipelined-collective acceptance: on a large contended checkpoint, the
// chunked two-phase schedule (CollectiveOptions.ChunkBytes) must beat
// the single-shot collective by ≥1.3× modeled time — in a link-bound
// variant (exchange the larger phase) and a disk-bound one (device
// access the larger phase) — with LastStats showing genuinely
// concurrent exchange and access. These are the ISSUE 5 acceptance
// numbers, enforced so they cannot regress.
//
// The single-shot schedule is a hard barrier: while the ~14.7 MB
// exchange crosses the shared bisection pool the drives idle, and while
// the aggregators' batches stream the drives the link idles, so the
// total is exchange + access. The pipelined schedule cuts each
// 1024-block file domain into 256-block chunks and exchanges chunk k+1
// while chunk k is in the drives: the total approaches max(exchange,
// access) plus one pipeline fill, at the price of per-chunk request
// overhead and a bounded 2-chunk staging buffer per aggregator.
package pario_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	pario "repro"
	"repro/internal/experiments"
)

// runPipelinedCheckpoint writes experiments.PipelinedCheckpoint under a
// live recorder (it must not perturb modeled time).
func runPipelinedCheckpoint(tb testing.TB, chunkBytes int64, bisection float64) experiments.CheckpointResult {
	tb.Helper()
	return mustRun(tb, experiments.PipelinedCheckpoint(chunkBytes, bisection).Traced(pario.NewRecorder(), ""))
}

// TestPipelineWin enforces the acceptance criteria in both regimes:
// ≥1.3× better modeled time for the chunked schedule, nonzero
// exchange/access overlap in its stats, zero overlap and identical byte
// split for the single-shot baseline.
func TestPipelineWin(t *testing.T) {
	const chunk = 256 * 4096 // 256-block chunks of each 1024-block domain (4 rounds)
	for _, tc := range []struct {
		name      string
		bisection float64
	}{
		// ~14.7 MB crosses the link: at 3.5 MB/s the exchange (~4.3 s)
		// outweighs the ~2.9 s of device streaming; at 6 MB/s (~2.5 s)
		// the drives dominate.
		{"link-bound", 3.5e6},
		{"disk-bound", 6e6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := runPipelinedCheckpoint(t, 0, tc.bisection)
			piped := runPipelinedCheckpoint(t, chunk, tc.bisection)
			ratio := serial.Elapsed.Seconds() / piped.Elapsed.Seconds()
			t.Logf("elapsed %v -> %v (%.2fx; %.2f -> %.2f MB/s)",
				serial.Elapsed, piped.Elapsed, ratio,
				vMBps(serial), vMBps(piped))
			t.Logf("requests %d -> %d; piped exchange %v, access %v, overlap %v; link idle %.0f%% -> %.0f%%",
				serial.Requests, piped.Requests,
				piped.Stats.ExchangeTime, piped.Stats.AccessTime, piped.Stats.Overlap,
				100*(1-serial.Stats.ExchangeTime.Seconds()/serial.Elapsed.Seconds()),
				100*(1-piped.Stats.ExchangeTime.Seconds()/piped.Elapsed.Seconds()))
			if ratio < 1.3 {
				t.Errorf("modeled time improvement %.2fx < 1.3x", ratio)
			}
			if serial.Stats.Overlap != 0 {
				t.Errorf("single-shot write reported overlap %v, want none", serial.Stats.Overlap)
			}
			if piped.Stats.Overlap <= 0 {
				t.Errorf("pipelined stats report no exchange/access overlap: %+v", piped.Stats)
			}
			if serial.Stats.BytesMoved != piped.Stats.BytesMoved || serial.Stats.BytesLocal != piped.Stats.BytesLocal {
				t.Errorf("schedules moved different bytes: %+v vs %+v", serial.Stats, piped.Stats)
			}
		})
	}
}

// BenchmarkPipelinedCheckpoint tracks the pipelined-collective
// trajectory: modeled MB/s and exchange/access overlap for the
// single-shot and chunked schedules on the link-bound checkpoint.
func BenchmarkPipelinedCheckpoint(b *testing.B) {
	for _, mode := range []struct {
		name  string
		chunk int64
	}{{"single-shot", 0}, {"pipelined", 256 * 4096}} {
		b.Run(mode.name, func(b *testing.B) {
			var res experiments.CheckpointResult
			for i := 0; i < b.N; i++ {
				res = runPipelinedCheckpoint(b, mode.chunk, 3.5e6)
			}
			b.ReportMetric(vMBps(res), "vMB/s")
			b.ReportMetric(res.Stats.Overlap.Seconds(), "overlap-s")
			b.ReportMetric(float64(res.Requests), "requests")
		})
	}
}

// depthResult is the steady state of the 512-rank checkpoint at one
// pipeline depth: the last of twelve calls in modeled time, the last
// eleven in engine dispatches per call, and the cheapest of those eleven
// in allocations. Steady calls differ in what they allocate only by
// long-lived tables that grow by doubling — the recorder keeps every
// same-instant batch size, so its sample grows on calls 1, 2, 4 and 8 —
// and by the runtime's own caches topping up once; the cheapest call
// does neither, and calls 3, 5, 6, 7, 9 and 10 all read it.
type depthResult struct {
	rounds     int
	ramped     bool
	cut        []int64 // blocks each round moved of the largest domain
	elapsed    time.Duration
	predicted  time.Duration
	requests   int64
	dispatches float64
	mallocs    float64
	allocBytes float64
}

// runDepthCheckpoint issues TestAlignedDomainsWin's checkpoint
// (alignedCheckpoint) under TunedProfile twelve times through one handle
// whose ChunkBytes is chunk (TunedProfile's own is 1 MiB; 0 sets no
// bound). split 0 leaves the pipeline depth to StrategyAuto's prices;
// split > 0 forces the drive-aligned partition with every chunk cut in
// split, on equal rounds, through the collective package's test hook.
func runDepthCheckpoint(tb testing.TB, chunk int64, split int) depthResult {
	tb.Helper()
	pf := pario.TunedProfile()
	pf.Collective.ChunkBytes = chunk
	return runDepthCheckpointOn(tb, pf, split)
}

// runDepthCheckpointOn is runDepthCheckpoint on any profile's machine,
// interconnect and handle options.
func runDepthCheckpointOn(tb testing.TB, pf pario.Profile, split int) depthResult {
	tb.Helper()
	const calls = 12
	ck := alignedCheckpoint(pf, calls)
	ck.ForceSplit = split
	// The engine alone is probed: its dispatch counter is wanted, and
	// spans from the layers above would be most of the allocations.
	ck.Rec, ck.EngineOnly = pario.NewRecorder(), true
	// Allocations are counted on one P with the collector held off: a
	// collection inside a call empties the sync.Pools the call then
	// refills, and processes spread over several Ps take fresh goroutines
	// and pool slots while another P holds free ones. Either would charge
	// a call a few objects it does not allocate on one P, and those few
	// are the size of what the comparisons below must catch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := mustRun(tb, ck)
	last := run.Calls[calls-1]
	res := depthResult{
		rounds: run.Depth, ramped: run.Ramped, cut: run.Rounds, predicted: run.Predicted,
		elapsed: last.Modeled, requests: last.Requests,
		mallocs: math.Inf(1), allocBytes: math.Inf(1),
	}
	for _, c := range run.Calls[1:] {
		res.dispatches += float64(c.Dispatches) / (calls - 1)
		res.mallocs = min(res.mallocs, float64(c.Mallocs))
		res.allocBytes = min(res.allocBytes, float64(c.Bytes))
	}
	return res
}

// TestPipelineDepthPriced enforces that the pipeline's depth is a price,
// not a constant: on the declustered checkpoint StrategyAuto must land
// on the depth that is in fact the fastest of 1, 2, 4, 8 and 16 equal
// rounds, and run it no slower than those equal rounds (it ramps them,
// ramp_win_test.go), its prediction within 5 % of what the call then
// takes, ≥ 1.10× faster
// than the two rounds the parent commit stopped at — and for less host
// work than those two rounds cost there, because the 480 ranks that own
// no domain post their rounds and park once instead of taking four
// engine dispatches a round each: no more engine dispatches per call
// than the parent's two-round call took, and no more allocations than
// two rounds take here. Posting moves no modeled time: two rounds forced
// take what they took at the parent, to the nanosecond.
func TestPipelineDepthPriced(t *testing.T) {
	// The parent commit on this fixture (it priced two rounds itself).
	const (
		parentDispatches = 6301
		parentTwoRounds  = 535061172 * time.Nanosecond
	)
	priced := runDepthCheckpoint(t, 1<<20, 0)
	forced := map[int]depthResult{}
	best := 0
	for _, split := range []int{1, 2, 4, 8, 16} {
		r := runDepthCheckpoint(t, 1<<20, split)
		if r.rounds != split {
			t.Fatalf("split %d ran %d rounds", split, r.rounds)
		}
		forced[split] = r
		if best == 0 || r.elapsed < forced[best].elapsed {
			best = split
		}
		t.Logf("depth %2d: %v per call, %d device requests, %.0f dispatches, %.0f allocations",
			split, r.elapsed, r.requests, r.dispatches, r.mallocs)
	}
	t.Logf("priced: depth %d, %v per call (predicted %v), %.0f dispatches, %.0f allocations",
		priced.rounds, priced.elapsed, priced.predicted, priced.dispatches, priced.mallocs)
	if priced.rounds != best {
		t.Errorf("StrategyAuto priced its way to %d rounds; %d rounds are fastest (%v against %v)",
			priced.rounds, best, forced[best].elapsed, priced.elapsed)
	}
	if priced.elapsed > forced[priced.rounds].elapsed {
		t.Errorf("priced call took %v, the same depth forced on equal rounds %v", priced.elapsed, forced[priced.rounds].elapsed)
	}
	if priced.requests != int64(alignDrives*priced.rounds) {
		t.Errorf("priced call issued %d device requests, want one per drive per round (%d)",
			priced.requests, alignDrives*priced.rounds)
	}
	if forced[2].elapsed != parentTwoRounds {
		t.Errorf("two rounds take %v, the parent's took %v: posted rounds moved modeled time", forced[2].elapsed, parentTwoRounds)
	}
	if ratio := forced[2].elapsed.Seconds() / priced.elapsed.Seconds(); ratio < 1.10 {
		t.Errorf("priced depth is %.2fx faster than two rounds, want ≥ 1.10x", ratio)
	}
	if resid := priced.predicted.Seconds() / priced.elapsed.Seconds(); resid < 1/1.05 || resid > 1.05 {
		t.Errorf("predicted %v for a call of %v: ratio %.3f outside [0.952, 1.05]", priced.predicted, priced.elapsed, resid)
	}
	if priced.dispatches > parentDispatches {
		t.Errorf("priced call cost %.0f engine dispatches, the parent's two-round call %d", priced.dispatches, parentDispatches)
	}
	if !raceEnabled && priced.mallocs > forced[2].mallocs {
		t.Errorf("priced call allocates %.0f objects in steady state, two rounds %.0f", priced.mallocs, forced[2].mallocs)
	}
}

// TestUnboundedDepthPriced enforces that no bound is a bound too: a
// handle that grants the aggregators unbounded staging (ChunkBytes 0)
// must get the pipeline a 1 MiB bound gets — the same eight ramped rounds
// on the 512-rank checkpoint, to the nanosecond, priced within 5 % —
// where it used to run the one round depth 1 forced still runs, 1.45×
// slower, and must pay no more host memory per steady call for it than
// that one round does: a depth-d pipeline stages two of its largest
// chunks, out of the handle's free list. Nor may its unequal rounds
// allocate more per steady call than equal rounds at its depth do:
// staging is taken at the table's largest chunk, so a large round reuses
// what a small one used. Where depth buys nothing it must not be
// bought: with a free interconnect (the exchange is priced at nothing, so
// every depth ties and the shallowest wins) and with fewer aggregators
// than drives (domains of several drives, whose chunk windows nobody
// prices) the call stays at one round.
func TestUnboundedDepthPriced(t *testing.T) {
	const (
		pricedCall = 433390091 * time.Nanosecond // a steady call at the priced depth and cut
		oneRound   = 678334513 * time.Nanosecond // what ChunkBytes 0 ran before: depth 1
	)
	unbounded := runDepthCheckpoint(t, 0, 0)
	bounded := runDepthCheckpoint(t, 1<<20, 0)
	depth1 := runDepthCheckpoint(t, 0, 1)
	t.Logf("unbounded: depth %d, %v per call (predicted %v), %.0f allocations / %.0f KB per call",
		unbounded.rounds, unbounded.elapsed, unbounded.predicted, unbounded.mallocs, unbounded.allocBytes/1024)
	t.Logf("1 MiB:     depth %d, %v per call; depth 1 forced: %v per call, %.0f allocations / %.0f KB per call",
		bounded.rounds, bounded.elapsed, depth1.elapsed, depth1.mallocs, depth1.allocBytes/1024)
	if unbounded.rounds != 8 || unbounded.rounds != bounded.rounds || !unbounded.ramped || !bounded.ramped {
		t.Errorf("ChunkBytes 0 ran %d rounds (ramped %v), 1 MiB %d (ramped %v), want 8 ramped rounds each",
			unbounded.rounds, unbounded.ramped, bounded.rounds, bounded.ramped)
	}
	if unbounded.elapsed != bounded.elapsed || unbounded.predicted != bounded.predicted {
		t.Errorf("ChunkBytes 0 took %v (predicted %v), 1 MiB %v (predicted %v): the bound changed the schedule",
			unbounded.elapsed, unbounded.predicted, bounded.elapsed, bounded.predicted)
	}
	if unbounded.elapsed != pricedCall {
		t.Errorf("a steady call took %v, want the priced depth's %v", unbounded.elapsed, pricedCall)
	}
	if resid := unbounded.predicted.Seconds() / unbounded.elapsed.Seconds(); resid < 1/1.05 || resid > 1.05 {
		t.Errorf("predicted %v for a call of %v: ratio %.3f outside [0.952, 1.05]", unbounded.predicted, unbounded.elapsed, resid)
	}
	if depth1.rounds != 1 || depth1.elapsed != oneRound {
		t.Errorf("depth 1 forced ran %d rounds in %v, want 1 round in %v (what ChunkBytes 0 ran before)",
			depth1.rounds, depth1.elapsed, oneRound)
	}
	if ratio := depth1.elapsed.Seconds() / unbounded.elapsed.Seconds(); ratio < 1.40 {
		t.Errorf("priced depth is %.2fx faster than one round, want ≥ 1.40x", ratio)
	}
	if !raceEnabled && unbounded.allocBytes > depth1.allocBytes {
		t.Errorf("unbounded call allocates %.0f bytes in steady state, one round %.0f", unbounded.allocBytes, depth1.allocBytes)
	}
	equal := runDepthCheckpoint(t, 0, unbounded.rounds)
	t.Logf("%d equal rounds forced: %v per call, %.0f allocations / %.0f KB per call",
		equal.rounds, equal.elapsed, equal.mallocs, equal.allocBytes/1024)
	if !raceEnabled && (unbounded.mallocs > equal.mallocs || unbounded.allocBytes > equal.allocBytes) {
		t.Errorf("ramped call allocates %.0f objects / %.0f bytes in steady state, %d equal rounds %.0f / %.0f",
			unbounded.mallocs, unbounded.allocBytes, equal.rounds, equal.mallocs, equal.allocBytes)
	}

	// A free interconnect: StrategyAuto on the paper's machine, no link set.
	paper := pario.PaperProfile()
	paper.Collective.Strategy = pario.StrategyAuto
	free := runDepthCheckpointOn(t, paper, 0)
	if free.rounds != 1 {
		t.Errorf("free interconnect: ran %d rounds, want 1 (every depth ties at the access time)", free.rounds)
	}
	// Fewer aggregators than drives: domains of two drives each.
	wide := pario.TunedProfile()
	wide.Collective.ChunkBytes, wide.Collective.Aggregators = 0, alignDrives/2
	multi := runDepthCheckpointOn(t, wide, 0)
	if multi.rounds != 1 {
		t.Errorf("%d aggregators over %d drives: ran %d rounds, want 1", wide.Collective.Aggregators, alignDrives, multi.rounds)
	}
	t.Logf("free interconnect: depth %d, %v per call; %d aggregators: depth %d, %v per call",
		free.rounds, free.elapsed, wide.Collective.Aggregators, multi.rounds, multi.elapsed)
}
