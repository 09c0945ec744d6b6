package mpp

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// exchangeResult captures everything a scenario run observes, so dense
// and sparse paths can be compared field by field.
type exchangeResult struct {
	now       time.Duration
	msgs      int64
	bytes     int64
	checksums []uint64
	wall      time.Duration
	allocs    uint64
}

// runChunkedScenario drives a pinned chunked-exchange scenario — every
// rank ships a payload to fanout neighbors each round under both link
// models — through either the dense (pre-sparse) Exchange path or the
// sparse one, and reports modeled time, traffic, per-rank payload
// checksums, and the wall-clock/allocation cost of simulating it.
func runChunkedScenario(ranks, rounds, fanout, payload int, sparse bool) exchangeResult {
	eng := sim.NewEngine()
	checksums := make([]uint64, ranks)
	g, _ := Run(eng, ranks, "w", func(p *Proc) {
		r := p.Rank()
		buf := make([]byte, payload)
		for i := range buf {
			buf[i] = byte(r + i)
		}
		var sum uint64
		digest := func(src int, data []byte) {
			for _, b := range data {
				sum = sum*31 + uint64(b)
			}
			sum = sum*31 + uint64(src)
		}
		if sparse {
			ex := p.NewSparseExchange()
			send := make([]Msg, 0, fanout)
			for round := 0; round < rounds; round++ {
				send = send[:0]
				for j := 1; j <= fanout; j++ {
					send = append(send, Msg{Dst: (r + j) % ranks, Data: buf})
				}
				recv := ex.Round(send)
				slices.SortFunc(recv, bySrc)
				for _, m := range recv {
					digest(m.Src, m.Data)
				}
				p.RecycleRecv(recv)
			}
		} else {
			ex := p.NewExchange()
			send := make([][]byte, ranks)
			for round := 0; round < rounds; round++ {
				for j := 1; j <= fanout; j++ {
					send[(r+j)%ranks] = buf
				}
				recv := ex.Round(send)
				for j := 1; j <= fanout; j++ {
					send[(r+j)%ranks] = nil
				}
				for src, data := range recv {
					if data != nil {
						digest(src, data)
					}
				}
			}
		}
		checksums[r] = sum
	})
	g.SetLink(2*time.Microsecond, 100e6)
	g.SetBisection(500e6)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := eng.Run(); err != nil {
		panic(err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	msgs, bytes := g.Traffic()
	return exchangeResult{
		now:       eng.Now(),
		msgs:      msgs,
		bytes:     bytes,
		checksums: checksums,
		wall:      wall,
		allocs:    after.Mallocs - before.Mallocs,
	}
}

// bySrc orders received messages by source rank.
func bySrc(a, b RecvMsg) int { return a.Src - b.Src }

// TestSparseMatchesDenseChunked checks the sparse exchange's core
// guarantee: same modeled time, same Traffic, same delivered payloads
// as the dense path it replaces.
func TestSparseMatchesDenseChunked(t *testing.T) {
	dense := runChunkedScenario(16, 4, 3, 96, false)
	sp := runChunkedScenario(16, 4, 3, 96, true)
	if dense.now != sp.now {
		t.Fatalf("modeled time differs: dense %v, sparse %v", dense.now, sp.now)
	}
	if dense.msgs != sp.msgs || dense.bytes != sp.bytes {
		t.Fatalf("traffic differs: dense (%d, %d), sparse (%d, %d)",
			dense.msgs, dense.bytes, sp.msgs, sp.bytes)
	}
	for r := range dense.checksums {
		if dense.checksums[r] != sp.checksums[r] {
			t.Fatalf("rank %d received different payloads: dense %x, sparse %x",
				r, dense.checksums[r], sp.checksums[r])
		}
	}
}

// TestAlltoallvSparseMatchesDense compares the single-shot forms,
// including self-sends.
func TestAlltoallvSparseMatchesDense(t *testing.T) {
	const ranks = 8
	run := func(sparse bool) (time.Duration, int64, int64, []uint64) {
		eng := sim.NewEngine()
		sums := make([]uint64, ranks)
		g, _ := Run(eng, ranks, "w", func(p *Proc) {
			r := p.Rank()
			pl := make([]byte, 16+4*r)
			for i := range pl {
				pl[i] = byte(r ^ i)
			}
			digest := func(src int, data []byte) {
				for _, b := range data {
					sums[r] = sums[r]*31 + uint64(b)
				}
				sums[r] = sums[r]*31 + uint64(src)
			}
			// Send to self, next, and next-next ranks.
			if sparse {
				recv := p.AlltoallvSparse([]Msg{
					{Dst: r, Data: pl},
					{Dst: (r + 1) % ranks, Data: pl},
					{Dst: (r + 2) % ranks, Data: pl},
				})
				slices.SortFunc(recv, bySrc)
				for _, m := range recv {
					digest(m.Src, m.Data)
				}
				p.RecycleRecv(recv)
			} else {
				send := make([][]byte, ranks)
				send[r] = pl
				send[(r+1)%ranks] = pl
				send[(r+2)%ranks] = pl
				recv := p.Alltoallv(send)
				for src, data := range recv {
					if data != nil {
						digest(src, data)
					}
				}
			}
		})
		g.SetLink(time.Microsecond, 50e6)
		g.SetBisection(200e6)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		msgs, bytes := g.Traffic()
		return eng.Now(), msgs, bytes, sums
	}
	dNow, dMsgs, dBytes, dSums := run(false)
	sNow, sMsgs, sBytes, sSums := run(true)
	if dNow != sNow || dMsgs != sMsgs || dBytes != sBytes {
		t.Fatalf("dense (%v, %d, %d) != sparse (%v, %d, %d)",
			dNow, dMsgs, dBytes, sNow, sMsgs, sBytes)
	}
	for r := range dSums {
		if dSums[r] != sSums[r] {
			t.Fatalf("rank %d payloads differ", r)
		}
	}
}

// TestRecycleRecvReused checks the inbox pool actually recycles: after
// warm-up rounds, sparse rounds should allocate almost nothing.
func TestRecycleRecvReused(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race")
	}
	warm := runChunkedScenario(64, 2, 4, 64, true)
	long := runChunkedScenario(64, 34, 4, 64, true)
	// Signed: a steady round allocates nothing, so goroutine start-up noise
	// can leave the long run below the short one, and the uint64 difference
	// would wrap.
	perRound := (float64(long.allocs) - float64(warm.allocs)) / 32
	// Each extra round involves 64 ranks; without recycling, receive
	// lists alone would cost ≥ 64 allocations a round.
	if perRound > 32 {
		t.Fatalf("sparse steady state allocates %.1f objects per round; inbox recycling broken", perRound)
	}
}

// TestEngineScaleWin is the PR's enforced win: on a pinned 1024-rank
// chunked exchange, the sparse path must simulate the identical modeled
// scenario with at least 4x fewer allocations per round than the dense
// pre-PR path (the wall-clock ratio is logged, not gated: the benchmark
// ledger owns wall-clock).
func TestEngineScaleWin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ratios are distorted under -race")
	}
	if testing.Short() {
		t.Skip("1024-rank comparison skipped in -short mode")
	}
	const (
		ranks   = 1024
		rounds  = 20
		fanout  = 3
		payload = 64
	)
	dense := runChunkedScenario(ranks, rounds, fanout, payload, false)
	sp := runChunkedScenario(ranks, rounds, fanout, payload, true)
	if dense.now != sp.now {
		t.Fatalf("modeled time differs: dense %v, sparse %v", dense.now, sp.now)
	}
	if dense.msgs != sp.msgs || dense.bytes != sp.bytes {
		t.Fatalf("traffic differs: dense (%d, %d), sparse (%d, %d)",
			dense.msgs, dense.bytes, sp.msgs, sp.bytes)
	}
	for r := range dense.checksums {
		if dense.checksums[r] != sp.checksums[r] {
			t.Fatalf("rank %d received different payloads", r)
		}
	}
	denseAllocs := float64(dense.allocs) / rounds
	sparseAllocs := float64(sp.allocs) / rounds
	t.Logf("dense: %v wall, %.0f allocs/round; sparse: %v wall, %.0f allocs/round",
		dense.wall, denseAllocs, sp.wall, sparseAllocs)
	if denseAllocs < 4*sparseAllocs {
		t.Errorf("allocation win %.2fx < 4x (dense %.0f, sparse %.0f per round)",
			denseAllocs/sparseAllocs, denseAllocs, sparseAllocs)
	}
	// Wall-clock is reported, not gated: the benchmark ledger owns it.
	t.Logf("wall-clock win %.2fx (dense %v, sparse %v)",
		float64(dense.wall)/float64(sp.wall), dense.wall, sp.wall)
}
