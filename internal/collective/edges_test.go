// The one executor's edges: calls some or all ranks ask nothing of, calls
// rejected or failing under a handle that must stay usable, reads whose
// drive fails, and clips that overlap — which the drives move straight
// between the files and the ranks' buffers, with no staging between.

package collective

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/ioserver"
	"repro/internal/mpp"
	"repro/internal/pfs"
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
// barriers and its contract — nil on every rank, no rounds, no modeled
// time — in both directions and at every depth, and a
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
						if p.Now() != t0 {
							t.Errorf("%s: all-empty calls took %v", what, p.Now()-t0)
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

// TestRejectedAndFailedWritesRecover: with the schedule cache off —
// every call a fresh schedule, as when request lists never repeat — at
// one, two and eight rounds, a call rejected at validation returns the
// identical error on every rank, a call whose drive fails under it
// returns the identical joined drive failure on every rank, and the
// handle stays usable: after Repair the next call succeeds and the image
// is its bytes, with no call ever replayed.
func TestRejectedAndFailedWritesRecover(t *testing.T) {
	for _, tc := range depthCases {
		t.Run(tc.name, func(t *testing.T) {
			const nRanks = 8
			e, g, disks := collectiveFixture(t, storeDirect, testPlacements[0].spec)
			col, err := Open(g, nRanks, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ForceAligned(col, tc.split)
			fresh := func(p *mpp.Proc) {
				if p.Rank() == 0 {
					col.InvalidateSchedules() // the next call plans afresh
				}
				p.Barrier() // nobody starts the next call before rank 0 has dropped it
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
				fresh(p)
				rbuf := make([]byte, len(buf))
				if err := col.ReadAll(p, reqs, rbuf); err != nil || !bytes.Equal(rbuf, buf) {
					t.Errorf("rank %d: read-back failed (%v)", rank, err)
				}
				fresh(p)

				// Rejected at validation: ranks 0 and 1 both claim block 0.
				bad := reqs
				if rank == 1 {
					bad = append([]VecReq{{File: 0, Vec: blockio.Vec{{Block: 0, N: 1, BufOff: 0}}}}, reqs[1:]...)
				}
				rejected[rank] = col.WriteAll(p, bad, buf)
				fresh(p)

				// A drive fails halfway through the next write.
				fill(2)
				if rank == 0 {
					p.Engine().Go("saboteur", func(sp *sim.Proc) {
						sp.Sleep(took / 2)
						disks[1].Fail()
					})
				}
				failed[rank] = col.WriteAll(p, reqs, buf)
				fresh(p)
				if rank == 0 {
					disks[1].Repair()
				}
				p.Barrier()
				fill(3)
				if err := col.WriteAll(p, reqs, buf); err != nil {
					t.Errorf("rank %d after Repair: %v", rank, err)
				}
				fresh(p)
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

// TestPlanRefusesOverflowingSegments: a segment whose end lies past the
// largest int64 — in file blocks or in buffer bytes — is refused by the
// plan like any other segment out of bounds, in a write and in a read:
// no sum of offset and length may wrap below the bound it is checked
// against. Every rank returns the same error, and the handle then moves
// data as before.
func TestPlanRefusesOverflowingSegments(t *testing.T) {
	const nRanks = 4
	for _, tc := range []struct {
		name string
		seg  blockio.VecSeg
		want string
	}{
		{"blocks", blockio.VecSeg{Block: 2, N: math.MaxInt64}, "of 40-block file"},
		{"buffer", blockio.VecSeg{Block: 2, N: 1, BufOff: math.MaxInt64 / testBS * testBS}, fmt.Sprintf("exceed %d-byte buffer", testBS)},
	} {
		for _, write := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/write=%v", tc.name, write), func(t *testing.T) {
				e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
				col, err := Open(g, nRanks, Options{})
				if err != nil {
					t.Fatal(err)
				}
				var refused [nRanks]error
				_, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
					rank := p.Rank()
					good := []VecReq{{File: 0, Vec: blockio.Vec{{Block: int64(8 + rank), N: 1}}}}
					reqs := good
					if rank == 2 {
						reqs = []VecReq{{File: 0, Vec: blockio.Vec{tc.seg}}}
					}
					buf := make([]byte, testBS)
					if write {
						refused[rank] = col.WriteAll(p, reqs, buf)
					} else {
						refused[rank] = col.ReadAll(p, reqs, buf)
					}
					pattern(int64(8+rank), buf)
					if err := col.WriteAll(p, good, buf); err != nil {
						t.Errorf("rank %d, after the refused call: %v", rank, err)
					}
					got := make([]byte, testBS)
					if err := col.ReadAll(p, good, got); err != nil || !bytes.Equal(got, buf) {
						t.Errorf("rank %d, after the refused call: read-back failed (%v)", rank, err)
					}
				})
				e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				for r, err := range refused {
					if err == nil || !strings.Contains(err.Error(), "rank 2 request 0 segment 0") || !strings.Contains(err.Error(), tc.want) {
						t.Errorf("rank %d returned %v, want rank 2's segment refused (%q)", r, err, tc.want)
					}
					if fmt.Sprint(err) != fmt.Sprint(refused[0]) {
						t.Errorf("rank %d returned %v, rank 0 %v", r, err, refused[0])
					}
				}
			})
		}
	}
}

// driveOf reports the drive holding global block gb of the group.
func driveOf(t *testing.T, g *pfs.FileGroup, gb int64) int {
	t.Helper()
	f, b, err := g.Locate(gb)
	if err != nil {
		t.Fatal(err)
	}
	return g.File(f).Layout().MapRun(nil, b, 1)[0].Dev
}

// readCall is one way of reading a rank's requests: a handle's blocking
// ReadAll, or IReadAll and its Wait.
type readCall func(col *Collective, p *mpp.Proc, reqs []VecReq, buf []byte) error

func blockingRead(col *Collective, p *mpp.Proc, reqs []VecReq, buf []byte) error {
	return col.ReadAll(p, reqs, buf)
}

func nonblockingRead(col *Collective, p *mpp.Proc, reqs []VecReq, buf []byte) error {
	h, err := col.IReadAll(p, reqs, buf)
	if err != nil {
		return err
	}
	return h.Wait(p)
}

// TestFailedReadLeavesBuffer: the drives scatter a read straight into the
// ranks' buffers, so a read whose drive has failed leaves every block that
// drive holds as the caller left it — no bytes of an earlier call, nor
// any other bytes no drive returned — and delivers every other block,
// with the identical joined drive failure on every rank. On each layout,
// through one round, several, the drive-aligned partition, the vectored
// and sieved routes and IReadAll, each after a healthy read on the same
// handle.
func TestFailedReadLeavesBuffer(t *testing.T) {
	const nRanks, sick = 4, 1
	cases := []struct {
		name  string
		opts  Options
		split int
		read  readCall
	}{
		{"one-round", Options{}, 0, blockingRead},
		{"multi-round", Options{ChunkBytes: 2 * testBS}, 0, blockingRead},
		{"aligned", Options{}, 2, blockingRead},
		{"vectored", Options{Strategy: blockio.StrategyVectored}, 0, blockingRead},
		{"sieved", Options{Strategy: blockio.StrategySieved}, 0, blockingRead},
		{"iread", Options{}, 0, nonblockingRead},
	}
	for _, pc := range testPlacements {
		for _, tc := range cases {
			t.Run(pc.name+"/"+tc.name, func(t *testing.T) {
				e, g, disks := collectiveFixture(t, storeDirect, pc.spec)
				srv, jb := serviceFor(e, ioserver.FIFO, 1)
				opts := tc.opts
				opts.Service = jb
				col, err := Open(g, nRanks, opts)
				if err != nil {
					t.Fatal(err)
				}
				ForceAligned(col, tc.split)
				var errs [nRanks]error
				kept := 0
				_, join := mpp.Run(e, nRanks, "r", func(p *mpp.Proc) {
					rank := p.Rank()
					reqs, buf, slots := strideReqs(g, rank, nRanks)
					for i, gb := range slots {
						pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
					}
					if err := col.WriteAll(p, reqs, buf); err != nil {
						t.Errorf("rank %d write: %v", rank, err)
					}
					rbuf := make([]byte, len(buf))
					if err := tc.read(col, p, reqs, rbuf); err != nil || !bytes.Equal(rbuf, buf) {
						t.Errorf("rank %d: healthy read-back failed (%v)", rank, err)
					}
					p.Barrier()
					if rank == 0 {
						disks[sick].Fail()
					}
					p.Barrier()
					for i := range rbuf {
						rbuf[i] = 0xEE
					}
					errs[rank] = tc.read(col, p, reqs, rbuf)
					want := make([]byte, testBS)
					for i, gb := range slots {
						got := rbuf[int64(i)*testBS : int64(i+1)*testBS]
						if driveOf(t, g, gb) == sick {
							want = bytes.Repeat([]byte{0xEE}, testBS)
							kept++
						} else {
							pattern(gb, want)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("rank %d: global block %d (drive %d) holds other bytes than the caller's or the drive's",
								rank, gb, driveOf(t, g, gb))
						}
					}
				})
				e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				if kept == 0 {
					t.Fatal("no requested block lies on the failed drive")
				}
				for r, err := range errs {
					if !errors.Is(err, device.ErrFailed) || fmt.Sprint(err) != fmt.Sprint(errs[0]) {
						t.Errorf("rank %d returned %v, rank 0 %v", r, err, errs[0])
					}
				}
			})
		}
	}
}

// overlapReqs builds rank's requests of the overlap fixture: the global
// blocks [12·rank, 12·rank+30) of the 63-block group that keep says to,
// a slot each in order, so neighbouring ranks share up to 18 blocks —
// and, when dupSlots, the first four blocks again into four more slots
// (one rank reading a block twice). Returns the requests, a buffer for
// them and the global block each slot holds.
func overlapReqs(g *pfs.FileGroup, rank int, dupSlots bool, keep func(gb int64) bool) ([]VecReq, []byte, []int64) {
	var slots []int64
	for gb := int64(12 * rank); gb < min(int64(12*rank+30), g.TotalFSBlocks()); gb++ {
		if keep(gb) {
			slots = append(slots, gb)
		}
	}
	if dupSlots {
		slots = append(slots, slots[:4]...)
	}
	reqs := make([]VecReq, g.Len())
	for i, gb := range slots {
		f, b, _ := g.Locate(gb)
		reqs[f].File = f
		reqs[f].Vec = append(reqs[f].Vec, blockio.VecSeg{Block: b, N: 1, BufOff: int64(i) * testBS})
	}
	return reqs, make([]byte, int64(len(slots))*testBS), slots
}

// TestOverlapsThroughTheSpace: clips that overlap are resolved in the
// piece table a chunk is issued against. A write whose ranks overlap is
// refused; written by the highest rank asking for each block, a read
// that several ranks share — and one rank that reads four blocks twice —
// gives every reader every block it asked for. On the logical and the drive-aligned
// partition at one, two and eight rounds, blocking, and on the logical
// one nonblocking, the server's plan cut into windows as the round bound
// says.
func TestOverlapsThroughTheSpace(t *testing.T) {
	const nRanks = 4
	for _, tc := range depthCases {
		for _, nonblocking := range []bool{false, true} {
			if nonblocking && tc.split > 0 {
				continue // a nonblocking call always runs the logical partition
			}
			name := tc.name
			if nonblocking {
				name = "nonblocking-" + name
			}
			t.Run(name, func(t *testing.T) {
				e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
				srv, jb := serviceFor(e, ioserver.FairShare, 1)
				opts := tc.opts
				opts.Service = jb
				col, err := Open(g, nRanks, opts)
				if err != nil {
					t.Fatal(err)
				}
				ForceAligned(col, tc.split)
				write, read := col.WriteAll, blockingRead
				if nonblocking {
					write = func(p *mpp.Proc, reqs []VecReq, buf []byte) error {
						h, err := col.IWriteAll(p, reqs, buf)
						if err != nil {
							return err
						}
						return h.Wait(p)
					}
					read = nonblockingRead
				}
				// Block gb holds, once written, the bytes of the highest rank
				// asking for it.
				last := func(gb int64) int64 { return min(gb/12, nRanks-1) }
				all := func(int64) bool { return true }
				_, join := mpp.Run(e, nRanks, "o", func(p *mpp.Proc) {
					rank := p.Rank()
					writeSlots := func(keep func(int64) bool) error {
						reqs, buf, slots := overlapReqs(g, rank, false, keep)
						for i, gb := range slots {
							pattern(gb+1000*int64(rank+1), buf[int64(i)*testBS:int64(i+1)*testBS])
						}
						return write(p, reqs, buf)
					}
					if writeSlots(all) == nil {
						t.Errorf("rank %d: the overlapping write was accepted", rank)
					}
					if err := writeSlots(func(gb int64) bool { return last(gb) == int64(rank) }); err != nil {
						t.Errorf("rank %d write: %v", rank, err)
					}
					reqs, rbuf, slots := overlapReqs(g, rank, rank == 0, all)
					if err := read(col, p, reqs, rbuf); err != nil {
						t.Errorf("rank %d read: %v", rank, err)
					}
					want := make([]byte, testBS)
					for i, gb := range slots {
						pattern(gb+1000*(last(gb)+1), want)
						if !bytes.Equal(rbuf[int64(i)*testBS:int64(i+1)*testBS], want) {
							t.Errorf("rank %d: slot %d (global block %d) did not get the block", rank, i, gb)
						}
					}
				})
				e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				got, want := readAllBlocks(t, g), make([]byte, testBS)
				for gb := int64(0); gb < g.TotalFSBlocks(); gb++ {
					pattern(gb+1000*(last(gb)+1), want)
					if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], want) {
						t.Errorf("global block %d does not hold rank %d's bytes", gb, last(gb))
					}
				}
			})
		}
	}
}
