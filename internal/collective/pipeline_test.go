package collective

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/mpp"
	"repro/internal/sim"
)

// TestPipelinedEquivalence checks, across store kinds × layouts ×
// locality × chunk sizes (sub-block, one block, odd multi-block, larger
// than any domain), that the chunked schedule lands and reads back
// exactly the bytes the single-shot schedule does.
func TestPipelinedEquivalence(t *testing.T) {
	chunks := []int64{1, testBS, 3*testBS + 7, 1 << 20}
	for _, kind := range []storeKind{storeDirect, storeParity, storeMirror} {
		for _, pl := range testPlacements {
			for _, locality := range []bool{false, true} {
				for _, chunk := range chunks {
					t.Run(fmt.Sprintf("%s/%s/locality=%v/chunk=%d", kind, pl.name, locality, chunk), func(t *testing.T) {
						const nRanks = 8
						e, g, _ := collectiveFixture(t, kind, pl.spec)
						col, err := Open(g, nRanks, Options{Locality: locality, ChunkBytes: chunk})
						if err != nil {
							t.Fatal(err)
						}
						mg, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
							reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
							for i, gb := range slots {
								pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
							}
							if err := col.WriteAll(p, reqs, buf); err != nil {
								t.Errorf("rank %d write: %v", p.Rank(), err)
								return
							}
							// Read the stride back through the same chunked
							// handle and verify in place.
							rbuf := make([]byte, len(buf))
							if err := col.ReadAll(p, reqs, rbuf); err != nil {
								t.Errorf("rank %d read: %v", p.Rank(), err)
								return
							}
							if !bytes.Equal(rbuf, buf) {
								t.Errorf("rank %d: chunked read-back diverges", p.Rank())
							}
						})
						mg.SetLink(0, 100e6)
						mg.SetBisection(500e6)
						e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
						if err := e.Run(); err != nil {
							t.Fatal(err)
						}
						got := readAllBlocks(t, g)
						want := make([]byte, testBS)
						for gb := int64(0); gb < g.TotalFSBlocks(); gb++ {
							pattern(gb, want)
							if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], want) {
								t.Fatalf("global block %d corrupt after chunked collective write", gb)
							}
						}
					})
				}
			}
		}
	}
}

// TestPipelinedRaggedChunks drives the two ragged shapes at once: a
// footprint that does not divide by the aggregator count (the last
// domain short) and a chunk size that does not divide the domain (the
// last chunk of every domain short), over a footprint straddling the
// file boundary.
func TestPipelinedRaggedChunks(t *testing.T) {
	const nRanks = 4
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	// 10 covered blocks over 4 aggregators → domains 3+3+3+1; chunk of 2
	// blocks → rounds=2 with ragged chunk tails in every domain.
	col, err := Open(g, nRanks, Options{Aggregators: 4, ChunkBytes: 2 * testBS})
	if err != nil {
		t.Fatal(err)
	}
	_, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
		r := int64(p.Rank())
		var vecA, vecB blockio.Vec
		buf := make([]byte, 0, 3*testBS)
		for gb := int64(36) + r; gb < 46; gb += nRanks {
			off := int64(len(buf))
			buf = append(buf, make([]byte, testBS)...)
			pattern(gb, buf[off:])
			if gb < 40 {
				vecA = append(vecA, blockio.VecSeg{Block: gb, N: 1, BufOff: off})
			} else {
				vecB = append(vecB, blockio.VecSeg{Block: gb - 40, N: 1, BufOff: off})
			}
		}
		var reqs []VecReq
		if len(vecA) > 0 {
			reqs = append(reqs, VecReq{File: 0, Vec: vecA})
		}
		if len(vecB) > 0 {
			reqs = append(reqs, VecReq{File: 1, Vec: vecB})
		}
		if err := col.WriteAll(p, reqs, buf); err != nil {
			t.Errorf("rank %d: %v", p.Rank(), err)
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := readAllBlocks(t, g)
	want := make([]byte, testBS)
	for gb := int64(36); gb < 46; gb++ {
		pattern(gb, want)
		if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], want) {
			t.Fatalf("global block %d corrupt after ragged chunked write", gb)
		}
	}
	zero := make([]byte, testBS)
	for _, gb := range []int64{0, 35, 46, g.TotalFSBlocks() - 1} {
		if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], zero) {
			t.Fatalf("global block %d touched outside the footprint", gb)
		}
	}
}

// TestPipelinedOverlapStats: with both the link and the drives charging
// real time, the chunked schedule must report genuinely concurrent
// exchange and access (nonzero Overlap) while the single-shot write
// schedule reports none, and the chunked write must finish earlier.
func TestPipelinedOverlapStats(t *testing.T) {
	run := func(chunk int64) (ExchangeStats, time.Duration) {
		const nRanks = 8
		e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
		col, err := Open(g, nRanks, Options{ChunkBytes: chunk})
		if err != nil {
			t.Fatal(err)
		}
		mg, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
			reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
			for i, gb := range slots {
				pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
			}
			if err := col.WriteAll(p, reqs, buf); err != nil {
				t.Errorf("rank %d: %v", p.Rank(), err)
			}
		})
		mg.SetLink(10*time.Microsecond, 1e6)
		mg.SetBisection(4e6)
		e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return col.LastStats(), e.Now()
	}
	serial, serialTime := run(0)
	piped, pipedTime := run(4 * testBS)
	if serial.BytesMoved != piped.BytesMoved || serial.BytesLocal != piped.BytesLocal {
		t.Errorf("schedules moved different bytes: %+v vs %+v", serial, piped)
	}
	if serial.Overlap != 0 {
		t.Errorf("single-shot write reported %v overlap, want none", serial.Overlap)
	}
	if piped.Overlap <= 0 {
		t.Errorf("chunked write reported no exchange/access overlap: %+v", piped)
	}
	if piped.ExchangeTime <= 0 || piped.AccessTime <= 0 {
		t.Errorf("chunked phase times degenerate: %+v", piped)
	}
	// No modeled-time assertion here: on this deliberately tiny fixture
	// the per-chunk request overhead swamps the overlap. TestPipelineWin
	// (package pario_test) enforces the win on a realistic checkpoint.
	t.Logf("single-shot %v (overlap %v) → chunked %v (exchange %v, access %v, overlap %v)",
		serialTime, serial.Overlap, pipedTime, piped.ExchangeTime, piped.AccessTime, piped.Overlap)
}
