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
	"runtime"
	"testing"
	"time"

	pario "repro"
	"repro/internal/collective"
)

const (
	pipeRanks   = 8
	pipeRecords = 4096 // 4 KiB records = fs blocks, unit-1 declustered
)

// pipeResult is one measured checkpoint write.
type pipeResult struct {
	elapsed  time.Duration
	requests int64
	stats    pario.ExchangeStats
	bytes    int64
}

// runPipelinedCheckpoint writes the 8-rank strided checkpoint over 4
// default 1989 drives through a collective with the given chunking, on
// a contended interconnect (100 MB/s per-process links sharing a
// bisection pool of the given bandwidth), and verifies the landed
// bytes.
func runPipelinedCheckpoint(tb testing.TB, chunkBytes int64, bisection float64) pipeResult {
	tb.Helper()
	m := pario.NewMachine(4)
	m.SetProbe(pario.NewRecorder()) // live recorder: must not perturb modeled time
	f, err := m.Volume.Create(pario.Spec{
		Name: "ckpt", Org: pario.OrgGlobalDirect,
		RecordSize: 4096, BlockRecords: 1, NumRecords: pipeRecords,
		Placement: pario.PlaceStriped, StripeUnitFS: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	group, err := m.Volume.OpenGroup("ckpt")
	if err != nil {
		tb.Fatal(err)
	}
	col, err := pario.OpenCollective(group, pipeRanks, pario.CollectiveOptions{ChunkBytes: chunkBytes})
	if err != nil {
		tb.Fatal(err)
	}
	rg := m.GoRanks(pipeRanks, "rank", func(r *pario.Rank) {
		rank := int64(r.Rank())
		var vec pario.Vec
		var off int64
		for b := rank; b < pipeRecords; b += pipeRanks {
			vec = append(vec, pario.VecSeg{Block: b, N: 1, BufOff: off})
			off += 4096
		}
		buf := make([]byte, off)
		for i, sg := range vec {
			buf[int64(i)*4096] = byte(sg.Block)
			buf[int64(i)*4096+1] = byte(sg.Block >> 8)
		}
		if err := col.WriteAll(r, []pario.VecReq{{File: 0, Vec: vec}}, buf); err != nil {
			tb.Errorf("rank %d: %v", rank, err)
		}
	})
	rg.SetLink(10*time.Microsecond, 100e6)
	rg.SetBisection(bisection)
	if err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	var res pipeResult
	res.elapsed = m.Engine.Now()
	res.stats = col.LastStats()
	res.bytes = pipeRecords * 4096
	for _, d := range m.Disks {
		res.requests += d.Stats().Requests()
	}
	ctx := pario.NewWall()
	blk := make([]byte, 4096)
	for b := int64(0); b < pipeRecords; b++ {
		if err := f.Set().ReadBlock(ctx, b, blk); err != nil {
			tb.Fatal(err)
		}
		if blk[0] != byte(b) || blk[1] != byte(b>>8) {
			tb.Fatalf("block %d corrupt after checkpoint (chunk=%d)", b, chunkBytes)
		}
	}
	return res
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
			ratio := serial.elapsed.Seconds() / piped.elapsed.Seconds()
			t.Logf("elapsed %v -> %v (%.2fx; %.2f -> %.2f MB/s)",
				serial.elapsed, piped.elapsed, ratio,
				float64(serial.bytes)/1e6/serial.elapsed.Seconds(),
				float64(piped.bytes)/1e6/piped.elapsed.Seconds())
			t.Logf("requests %d -> %d; piped exchange %v, access %v, overlap %v; link idle %.0f%% -> %.0f%%",
				serial.requests, piped.requests,
				piped.stats.ExchangeTime, piped.stats.AccessTime, piped.stats.Overlap,
				100*(1-serial.stats.ExchangeTime.Seconds()/serial.elapsed.Seconds()),
				100*(1-piped.stats.ExchangeTime.Seconds()/piped.elapsed.Seconds()))
			if ratio < 1.3 {
				t.Errorf("modeled time improvement %.2fx < 1.3x", ratio)
			}
			if serial.stats.Overlap != 0 {
				t.Errorf("single-shot write reported overlap %v, want none", serial.stats.Overlap)
			}
			if piped.stats.Overlap <= 0 {
				t.Errorf("pipelined stats report no exchange/access overlap: %+v", piped.stats)
			}
			if !serial.stats.SameBytes(piped.stats) {
				t.Errorf("schedules moved different bytes: %+v vs %+v", serial.stats, piped.stats)
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
			var res pipeResult
			for i := 0; i < b.N; i++ {
				res = runPipelinedCheckpoint(b, mode.chunk, 3.5e6)
			}
			b.ReportMetric(float64(res.bytes)/1e6/res.elapsed.Seconds(), "vMB/s")
			b.ReportMetric(res.stats.Overlap.Seconds(), "overlap-s")
			b.ReportMetric(float64(res.requests), "requests")
		})
	}
}

// depthResult is the steady state of the 512-rank checkpoint at one
// pipeline depth: the last of four calls in modeled time, and the last
// three in host cost per call.
type depthResult struct {
	rounds     int
	elapsed    time.Duration
	predicted  time.Duration
	requests   int64
	dispatches float64
	mallocs    float64
	allocBytes float64
}

// runDepthCheckpoint issues TestAlignedDomainsWin's checkpoint — 512
// ranks × 32 drives, a unit-1 striped file, eight strided blocks a rank,
// TunedProfile — four times through one handle whose ChunkBytes is chunk
// (TunedProfile's own is 1 MiB; 0 sets no bound). split 0 leaves the
// pipeline depth to StrategyAuto's prices; split > 0 forces the
// drive-aligned partition with every chunk cut in split, through the
// collective package's test hook.
func runDepthCheckpoint(tb testing.TB, chunk int64, split int) depthResult {
	tb.Helper()
	pf := pario.TunedProfile()
	pf.Collective.ChunkBytes = chunk
	return runDepthCheckpointOn(tb, pf, pf.Collective, split)
}

// runDepthCheckpointOn is runDepthCheckpoint on any profile's machine and
// interconnect, through a handle with the given options.
func runDepthCheckpointOn(tb testing.TB, pf pario.Profile, opts pario.CollectiveOptions, split int) depthResult {
	tb.Helper()
	const calls = 4
	m := pario.NewProfiledMachine(alignDrives, pf)
	// The engine alone is probed: its dispatch counter is wanted, and
	// spans from the layers above would be most of the allocations.
	rec := pario.NewRecorder()
	m.Engine.SetProbe(rec)
	if _, err := m.Volume.Create(pario.Spec{
		Name: "chk", Org: pario.OrgGlobalDirect,
		RecordSize: 4096, BlockRecords: 1, NumRecords: alignRanks * alignPerRank,
		Placement: pario.PlaceStriped, StripeUnitFS: 1,
	}); err != nil {
		tb.Fatal(err)
	}
	group, err := m.Volume.OpenGroup("chk")
	if err != nil {
		tb.Fatal(err)
	}
	col, err := pario.OpenCollective(group, alignRanks, opts)
	if err != nil {
		tb.Fatal(err)
	}
	collective.ForceAligned(col, split)
	dispatches := rec.Metrics().Counter("sim.dispatches")
	var res depthResult
	rg := m.GoRanks(alignRanks, "ck", func(r *pario.Rank) {
		rank := int64(r.Rank())
		vec := make(pario.Vec, alignPerRank)
		buf := make([]byte, alignPerRank*4096)
		for k := range vec {
			vec[k] = pario.VecSeg{Block: int64(k)*alignRanks + rank, N: 1, BufOff: int64(k) * 4096}
		}
		reqs := []pario.VecReq{{File: 0, Vec: vec}}
		var t0 time.Duration
		var disp0, req0 int64
		var ms runtime.MemStats
		var mallocs0, bytes0 uint64
		for call := 0; call < calls; call++ {
			if rank == 0 && call == 1 {
				disp0 = dispatches.Value()
				runtime.ReadMemStats(&ms)
				mallocs0, bytes0 = ms.Mallocs, ms.TotalAlloc
			}
			if rank == 0 && call == calls-1 {
				t0 = r.Now()
				for _, d := range m.Disks {
					req0 += d.Stats().Requests()
				}
			}
			if err := col.WriteAll(r, reqs, buf); err != nil {
				tb.Errorf("rank %d: %v", rank, err)
			}
		}
		if rank == 0 {
			runtime.ReadMemStats(&ms)
			res.elapsed = r.Now() - t0
			res.dispatches = float64(dispatches.Value()-disp0) / (calls - 1)
			res.mallocs = float64(ms.Mallocs-mallocs0) / (calls - 1)
			res.allocBytes = float64(ms.TotalAlloc-bytes0) / (calls - 1)
			for _, d := range m.Disks {
				res.requests += d.Stats().Requests()
			}
			res.requests -= req0
		}
	})
	pf.ConfigureRanks(rg)
	if err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	res.rounds, res.predicted = col.LastDepth(), col.LastPredicted()
	return res
}

// TestPipelineDepthPriced enforces that the pipeline's depth is a price,
// not a constant: on the declustered checkpoint StrategyAuto must land
// on the depth that is in fact the fastest of 1, 2, 4, 8 and 16 rounds,
// its prediction within 5 % of what the call then takes, ≥ 1.10× faster
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
	if priced.elapsed != forced[priced.rounds].elapsed {
		t.Errorf("priced call took %v, the same depth forced %v", priced.elapsed, forced[priced.rounds].elapsed)
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
// must get the pipeline a 1 MiB bound gets — the same eight rounds on the
// 512-rank checkpoint, to the nanosecond, priced within 5 % — where it
// used to run the one round depth 1 forced still runs, 1.45× slower, and
// must pay no more host memory per steady call for it than that one
// round does: a depth-d pipeline stages two chunks of domain/d, out of
// the handle's free list. Where depth buys nothing it must not be
// bought: with a free interconnect (the exchange is priced at nothing, so
// every depth ties and the shallowest wins) and with fewer aggregators
// than drives (domains of several drives, whose chunk windows nobody
// prices) the call stays at one round.
func TestUnboundedDepthPriced(t *testing.T) {
	const (
		pricedCall = 468131288 * time.Nanosecond // a steady call at the priced depth
		oneRound   = 678334513 * time.Nanosecond // what ChunkBytes 0 ran before: depth 1
	)
	unbounded := runDepthCheckpoint(t, 0, 0)
	bounded := runDepthCheckpoint(t, 1<<20, 0)
	depth1 := runDepthCheckpoint(t, 0, 1)
	t.Logf("unbounded: depth %d, %v per call (predicted %v), %.0f allocations / %.0f KB per call",
		unbounded.rounds, unbounded.elapsed, unbounded.predicted, unbounded.mallocs, unbounded.allocBytes/1024)
	t.Logf("1 MiB:     depth %d, %v per call; depth 1 forced: %v per call, %.0f allocations / %.0f KB per call",
		bounded.rounds, bounded.elapsed, depth1.elapsed, depth1.mallocs, depth1.allocBytes/1024)
	if unbounded.rounds != 8 || unbounded.rounds != bounded.rounds {
		t.Errorf("ChunkBytes 0 ran %d rounds, 1 MiB %d, want 8 and 8", unbounded.rounds, bounded.rounds)
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

	// A free interconnect: StrategyAuto on the paper's machine, no link set.
	free := runDepthCheckpointOn(t, pario.PaperProfile(), pario.CollectiveOptions{Strategy: pario.StrategyAuto}, 0)
	if free.rounds != 1 {
		t.Errorf("free interconnect: ran %d rounds, want 1 (every depth ties at the access time)", free.rounds)
	}
	// Fewer aggregators than drives: domains of two drives each.
	tuned := pario.TunedProfile()
	wide := tuned.Collective
	wide.ChunkBytes, wide.Aggregators = 0, alignDrives/2
	multi := runDepthCheckpointOn(t, tuned, wide, 0)
	if multi.rounds != 1 {
		t.Errorf("%d aggregators over %d drives: ran %d rounds, want 1", wide.Aggregators, alignDrives, multi.rounds)
	}
	t.Logf("free interconnect: depth %d, %v per call; %d aggregators: depth %d, %v per call",
		free.rounds, free.elapsed, wide.Aggregators, multi.rounds, multi.elapsed)
}
