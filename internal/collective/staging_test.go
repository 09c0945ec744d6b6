// The one executor's edges: calls some or all ranks ask nothing of, and
// the per-handle staging free list a blocking call's chunk buffers come
// from — in the style of TestNonblockingDomainBuffersRecycle, which holds
// the nonblocking calls' buffers of the same list to the same rules.

package collective

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/mpp"
	"repro/internal/sim"
)

// depthCases are handles that run the strided footprint of the 4-drive
// fixture (four 16-block domains) in one, two and eight rounds — on the
// logical partition through a ChunkBytes bound, and unbounded on the
// drive-aligned one at a forced split, the shape StrategyAuto's priced
// depth takes.
var depthCases = []struct {
	name   string
	opts   Options
	split  int // > 0: forced aligned, every domain cut in split
	rounds int
}{
	{"one-round", Options{}, 0, 1},
	{"two-rounds", Options{ChunkBytes: 8 * testBS}, 0, 2},
	{"eight-rounds", Options{ChunkBytes: 2 * testBS}, 0, 8},
	{"aligned-one-round", Options{}, 1, 1},
	{"aligned-unbounded-two-rounds", Options{}, 2, 2},
	{"aligned-unbounded-eight-rounds", Options{Locality: true}, 8, 8},
}

// TestOneExecutorEmptyCalls: a call no rank asks anything of keeps its
// barriers and its contract — nil on every rank, no rounds, nothing
// staged, no modeled time — in both directions and at every depth, and a
// call only some ranks ask something of moves exactly their bytes, the
// silent ranks posting empty rounds.
func TestOneExecutorEmptyCalls(t *testing.T) {
	for _, tc := range depthCases {
		t.Run(tc.name, func(t *testing.T) {
			const nRanks = 8
			e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
			col, err := Open(g, nRanks, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ForceAligned(col, tc.split)
			mg, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
				rank := p.Rank()
				quiet := func(what string) {
					t0 := p.Now()
					if err := col.WriteAll(p, nil, nil); err != nil {
						t.Errorf("%s: rank %d empty write: %v", what, rank, err)
					}
					if err := col.ReadAll(p, nil, nil); err != nil {
						t.Errorf("%s: rank %d empty read: %v", what, rank, err)
					}
					if rank == 0 {
						if d := col.LastDepth(); d != 0 {
							t.Errorf("%s: an all-empty call ran %d rounds", what, d)
						}
						if p.Now() != t0 || col.domOut != 0 {
							t.Errorf("%s: all-empty calls took %v with %d buffers out", what, p.Now()-t0, col.domOut)
						}
					}
				}
				quiet("first call on the handle")
				// Odd ranks sit the next two calls out.
				reqs, buf, slots := strideReqs(g, rank, nRanks)
				for i, gb := range slots {
					pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
				}
				if rank%2 == 1 {
					reqs, buf = nil, nil
				}
				if err := col.WriteAll(p, reqs, buf); err != nil {
					t.Errorf("rank %d write: %v", rank, err)
				}
				// Half the footprint: half the rounds a ChunkBytes bound asks for.
				if d := col.LastDepth(); rank == 0 && (d < 1 || d > tc.rounds) {
					t.Errorf("ran %d rounds, want 1 to %d", d, tc.rounds)
				}
				rbuf := make([]byte, len(buf))
				if err := col.ReadAll(p, reqs, rbuf); err != nil {
					t.Errorf("rank %d read: %v", rank, err)
				}
				if !bytes.Equal(rbuf, buf) {
					t.Errorf("rank %d: read-back diverges", rank)
				}
				quiet("after a partial call")
			})
			mg.SetLink(2*time.Microsecond, 100e6)
			mg.SetBisection(500e6)
			e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			// Even ranks' blocks landed, odd ranks' stayed zero.
			got := readAllBlocks(t, g)
			want, zero := make([]byte, testBS), make([]byte, testBS)
			for f := 0; f < g.Len(); f++ {
				for b := int64(0); b < g.File(f).Mapper().TotalFSBlocks(); b++ {
					gb := g.Offset(f) + b
					exp := zero
					if b%nRanks%2 == 0 {
						pattern(gb, want)
						exp = want
					}
					if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], exp) {
						t.Fatalf("global block %d wrong after the partial write", gb)
					}
				}
			}
		})
	}
}

// TestStagingPoolInvariants: a blocking call's chunk staging comes from
// the handle's free list and goes back when the aggregator's pipeline has
// drained. With the schedule cache off — every call a fresh schedule, as
// when request lists never repeat — at one, two and eight rounds: nothing
// is out after any call; the list holds after the first call everything
// later calls need (its population stops growing, so a fresh schedule
// allocates no staging); a call rejected at validation takes nothing; and
// a call whose drive fails under it still returns what it took, reports
// the identical joined error on every rank, and leaves a handle whose
// next call, after Repair, succeeds.
func TestStagingPoolInvariants(t *testing.T) {
	for _, tc := range depthCases {
		t.Run(tc.name, func(t *testing.T) {
			const nRanks = 8
			e, g, disks := collectiveFixture(t, storeDirect, testPlacements[0].spec)
			col, err := Open(g, nRanks, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ForceAligned(col, tc.split)
			parked := 0
			check := func(p *mpp.Proc, what string) {
				if p.Rank() == 0 {
					col.InvalidateSchedules() // the next call plans afresh
					if col.domOut != 0 {
						t.Errorf("%s: %d staging buffers still out", what, col.domOut)
					}
					if n := freeDomBufs(col); parked == 0 {
						parked = n
					} else if n != parked {
						t.Errorf("%s: free list holds %d buffers, %d after the first call", what, n, parked)
					}
				}
				p.Barrier() // nobody starts the next call before rank 0 has looked
			}
			var rejected, failed [nRanks]error
			mg, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
				rank := p.Rank()
				reqs, buf, slots := strideReqs(g, rank, nRanks)
				fill := func(k int64) {
					for i, gb := range slots {
						pattern(gb+1000*k, buf[int64(i)*testBS:int64(i+1)*testBS])
					}
				}
				fill(1)
				t0 := p.Now()
				if err := col.WriteAll(p, reqs, buf); err != nil {
					t.Errorf("rank %d: %v", rank, err)
				}
				took := p.Now() - t0
				if rank == 0 {
					// One chunk buffer per domain, and the second of the double
					// buffer only where there is a second chunk.
					if want := 4 * min(tc.rounds, 2); freeDomBufs(col) != want {
						t.Errorf("a %d-round call staged %d buffers, want %d", tc.rounds, freeDomBufs(col), want)
					}
				}
				check(p, "first write")
				rbuf := make([]byte, len(buf))
				if err := col.ReadAll(p, reqs, rbuf); err != nil || !bytes.Equal(rbuf, buf) {
					t.Errorf("rank %d: read-back failed (%v)", rank, err)
				}
				check(p, "read")

				// Rejected at validation: ranks 0 and 1 both claim block 0.
				bad := reqs
				if rank == 1 {
					bad = append([]VecReq{{File: 0, Vec: blockio.Vec{{Block: 0, N: 1, BufOff: 0}}}}, reqs[1:]...)
				}
				rejected[rank] = col.WriteAll(p, bad, buf)
				check(p, "rejected call")

				// A drive fails halfway through the next write.
				fill(2)
				if rank == 0 {
					p.Engine().Go("saboteur", func(sp *sim.Proc) {
						sp.Sleep(took / 2)
						disks[1].Fail()
					})
				}
				failed[rank] = col.WriteAll(p, reqs, buf)
				check(p, "failed call")
				if rank == 0 {
					disks[1].Repair()
				}
				p.Barrier()
				fill(3)
				if err := col.WriteAll(p, reqs, buf); err != nil {
					t.Errorf("rank %d after Repair: %v", rank, err)
				}
				check(p, "write after Repair")
			})
			mg.SetLink(2*time.Microsecond, 100e6)
			mg.SetBisection(500e6)
			e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
			if err := e.Run(); err != nil {
				t.Fatal(err) // a hang is a deadlock report here
			}
			for r := range rejected {
				if rejected[r] == nil || fmt.Sprint(rejected[r]) != fmt.Sprint(rejected[0]) {
					t.Errorf("rejected call: rank %d returned %v, rank 0 %v", r, rejected[r], rejected[0])
				}
				if !errors.Is(failed[r], device.ErrFailed) || fmt.Sprint(failed[r]) != fmt.Sprint(failed[0]) {
					t.Errorf("failed call: rank %d returned %v, rank 0 %v", r, failed[r], failed[0])
				}
			}
			if st := col.PlanCacheStats(); st.Hits != 0 {
				t.Errorf("cache disabled, yet %d calls replayed", st.Hits)
			}
			checkPatternImage(t, g, 3000)
		})
	}
}

// TestStagingPoolBounded: what bounds the free list is the number of
// sizes it keeps (maxDomSizes; one more starts it over) times what one
// call has out at its peak. A handle alternating two footprints whose
// domains differ in size keeps both sizes and stops growing after the
// first call of each; a handle whose every call has a new domain size
// never holds more than maxDomSizes of them.
func TestStagingPoolBounded(t *testing.T) {
	const nRanks = 4
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	col, err := Open(g, nRanks, Options{ChunkBytes: 2 * testBS})
	if err != nil {
		t.Fatal(err)
	}
	// call writes the first n blocks of file 0, rank r the r-th quarter:
	// four domains of n/4 blocks, staged through chunks of min(n/4, 2).
	call := func(p *mpp.Proc, n int64) {
		if p.Rank() == 0 {
			col.InvalidateSchedules() // every call plans afresh
		}
		q := n / nRanks
		reqs := []VecReq{{File: 0, Vec: blockio.Vec{{Block: int64(p.Rank()) * q, N: q}}}}
		if err := col.WriteAll(p, reqs, make([]byte, q*testBS)); err != nil {
			t.Errorf("rank %d, %d blocks: %v", p.Rank(), n, err)
		}
		p.Barrier()
	}
	_, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
		var after [6]int
		for it := range after {
			call(p, 32) // two-block chunks, double-buffered
			call(p, 4)  // one-block domains: one round
			after[it] = freeDomBufs(col)
		}
		if p.Rank() == 0 {
			// 4 domains × 2 two-block buffers + 4 × 1 one-block buffer.
			if after[0] != 12 || after[5] != after[0] || len(col.domFree) != 2 {
				t.Errorf("alternating footprints: free list %v buffers over %d sizes, want 12 throughout over 2", after, len(col.domFree))
			}
		}
		p.Barrier()
		// Every call a new chunk size: unbounded staging, domains of 1 to
		// 10 blocks (file 0 has 40), on top of the two sizes above.
		if p.Rank() == 0 {
			col.SetOptions(Options{})
		}
		p.Barrier()
		for q := int64(1); q <= 10; q++ {
			call(p, q*nRanks)
			if n := len(col.domFree); p.Rank() == 0 && (n > maxDomSizes || freeDomBufs(col) > maxDomSizes*2*nRanks) {
				t.Errorf("after %d-block domains: free list keeps %d sizes, %d buffers; want at most %d and %d",
					q, n, freeDomBufs(col), maxDomSizes, maxDomSizes*2*nRanks)
			}
			p.Barrier()
		}
		if p.Rank() == 0 {
			if len(col.domFree[10*testBS]) != nRanks {
				t.Errorf("the last call's size holds %d buffers, want %d", len(col.domFree[10*testBS]), nRanks)
			}
			if col.domOut != 0 {
				t.Errorf("%d staging buffers still out", col.domOut)
			}
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
