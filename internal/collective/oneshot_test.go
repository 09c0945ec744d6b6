package collective

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/ioserver"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// oneShotRanks is the group size of the one-shot memory tests: the fresh
// checkpoint's machine (freshMachine) at a scale the race detector runs.
const oneShotRanks = 64

// oneShotWorld is the fresh checkpoint's machine with a handle that can
// also call nonblocking (a lane of an I/O server of workers workers),
// every block of the group
// stamped with generation 0 to start with, and the generation each block
// must hold once the calls that have returned are counted.
type oneShotWorld struct {
	e     *sim.Engine
	g     *pfs.FileGroup
	disks []*device.Disk
	srv   *ioserver.Server
	c     *Collective
	gen   []uint64 // per global block
	rng   *rand.Rand
}

func newOneShotWorld(t *testing.T, workers int) *oneShotWorld {
	t.Helper()
	e, g, disks := freshMachine(t, oneShotRanks)
	srv, jb := serviceFor(e, ioserver.FIFO, workers)
	c, err := Open(g, oneShotRanks, Options{Locality: true, Strategy: blockio.StrategyAuto, Service: jb})
	if err != nil {
		t.Fatal(err)
	}
	w := &oneShotWorld{e: e, g: g, disks: disks, srv: srv, c: c, gen: make([]uint64, g.TotalFSBlocks()), rng: rand.New(rand.NewSource(7))}
	for f := 0; f < g.Len(); f++ {
		n := g.File(f).Mapper().TotalFSBlocks()
		buf := make([]byte, n*freshBS)
		for b := int64(0); b < n; b++ {
			stamp(buf[b*freshBS:], g.Offset(f)+b, 0)
		}
		if err := g.File(f).Set().WriteVec(sim.NewWall(), blockio.Vec{{Block: 0, N: n}}, buf); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// stamp writes global block gb's generation gen into the block at buf.
func stamp(buf []byte, gb int64, gen uint64) {
	binary.BigEndian.PutUint64(buf, uint64(gb))
	binary.BigEndian.PutUint64(buf[8:], gen)
}

// eachBlock calls fn with the global block and the buffer offset of
// every block of reqs.
func (w *oneShotWorld) eachBlock(reqs []VecReq, fn func(gb, off int64)) {
	for _, q := range reqs {
		for _, sg := range q.Vec {
			for i := int64(0); i < sg.N; i++ {
				fn(w.g.Offset(q.File)+sg.Block+i, sg.BufOff+i*freshBS)
			}
		}
	}
}

// fill stamps buf with generation gen at every block of reqs.
func (w *oneShotWorld) fill(reqs []VecReq, buf []byte, gen uint64) {
	w.eachBlock(reqs, func(gb, off int64) { stamp(buf[off:], gb, gen) })
}

// wrote records that a write of generation gen of every rank's reqs has
// returned.
func (w *oneShotWorld) wrote(reqs [][]VecReq, gen uint64) {
	for _, rr := range reqs {
		w.eachBlock(rr, func(gb, _ int64) { w.gen[gb] = gen })
	}
}

// check reports the first block of reqs that buf does not hold as read:
// its own address, and the generation the writes that have returned left.
func (w *oneShotWorld) check(reqs []VecReq, buf []byte) error {
	var err error
	w.eachBlock(reqs, func(gb, off int64) {
		addr, gen := binary.BigEndian.Uint64(buf[off:]), binary.BigEndian.Uint64(buf[off+8:])
		if err == nil && (addr != uint64(gb) || gen != w.gen[gb]) {
			err = fmt.Errorf("block %d read as block %d generation %d, want generation %d", gb, addr, gen, w.gen[gb])
		}
	})
	return err
}

// checkImage requires every block of the group to hold its own address
// and the generation the calls left.
func (w *oneShotWorld) checkImage(t *testing.T) {
	t.Helper()
	for f := 0; f < w.g.Len(); f++ {
		n := w.g.File(f).Mapper().TotalFSBlocks()
		buf := make([]byte, n*freshBS)
		if err := w.g.File(f).Set().ReadVec(sim.NewWall(), blockio.Vec{{Block: 0, N: n}}, buf); err != nil {
			t.Fatal(err)
		}
		for b := int64(0); b < n; b++ {
			gb := w.g.Offset(f) + b
			addr, gen := binary.BigEndian.Uint64(buf[b*freshBS:]), binary.BigEndian.Uint64(buf[b*freshBS+8:])
			if addr != uint64(gb) || gen != w.gen[gb] {
				t.Fatalf("global block %d holds block %d generation %d, want generation %d", gb, addr, gen, w.gen[gb])
			}
		}
	}
}

// run runs body on every rank of the group and stops the server after.
func (w *oneShotWorld) run(t *testing.T, body func(p *mpp.Proc)) {
	t.Helper()
	g, join := mpp.Run(w.e, oneShotRanks, "oneshot", body)
	g.SetLink(10*time.Microsecond, 100e6)
	g.SetBisection(50e6)
	w.e.Go("join", func(sp *sim.Proc) { join.Wait(sp); w.srv.Stop(sp) })
	if err := w.e.Run(); err != nil {
		t.Fatal(err)
	}
}

// ranOneShot reports whether the handle's last call ran its one-shot
// schedule.
func (c *Collective) ranOneShot() bool { return c.oneShot != nil && c.sched == &c.oneShot.sd }

// apart is family 2's lists (freshReqs) over freshPer rows of the
// striped file that reqs, family 2's, leaves alone: the free rows after
// the first skip.
func apart(reqs [][]VecReq, skip int) [][]VecReq {
	nRanks := int64(len(reqs))
	used := map[int64]bool{}
	for _, sg := range reqs[0][0].Vec {
		used[sg.Block/nRanks] = true
	}
	var rows []int64
	for row := int64(0); len(rows) < skip+freshPer; row++ {
		if !used[row] {
			rows = append(rows, row)
		}
	}
	out := make([][]VecReq, nRanks)
	for r := range out {
		var vec blockio.Vec
		for i, row := range rows[skip:] {
			vec = append(vec, blockio.VecSeg{Block: row*nRanks + int64(r), N: 1, BufOff: int64(i) * freshBS})
		}
		out[r] = []VecReq{{File: 1, Vec: vec}}
	}
	return out
}

// TestOneShotMemoryNeverShared: the handle's one-shot schedule is
// rewritten by every call whose request lists it has not seen, so nothing
// that outlives such a call may share its memory. Each case ends in the
// reference image: every block holds its own address and the generation
// of the last write of it that returned.
func TestOneShotMemoryNeverShared(t *testing.T) {
	// One-shot blocking calls of all three families, written and read,
	// while two nonblocking calls of the handle are outstanding, of blocks
	// none of them touches: a write the server's one worker is serving and,
	// queued behind it, a write (the first round) or a read (the second),
	// whose schedule the server runs only after the one-shot calls have
	// rewritten the handle's. Every read returns what the writes left.
	t.Run("beside-nonblocking", func(t *testing.T) {
		w := newOneShotWorld(t, 1)
		const rounds = 2
		var nb [rounds][2][][]VecReq
		var blk [rounds][3][][]VecReq
		for k := range nb {
			for fam := range blk[k] {
				blk[k][fam] = freshReqs(w.rng, oneShotRanks, fam)
			}
			nb[k] = [2][][]VecReq{apart(blk[k][2], 0), apart(blk[k][2], freshPer)}
		}
		routes := map[string]int{}
		w.run(t, func(p *mpp.Proc) {
			rank, c := p.Rank(), w.c
			nbBuf := [2][]byte{make([]byte, freshPer*freshBS), make([]byte, freshPer*freshBS)}
			buf := make([]byte, freshPer*freshBS)
			for k := range nb {
				var hs [2]*Handle
				var was [2]string // rank 0's: what the calls' schedules run from
				for i, reqs := range nb[k] {
					var err error
					if write := i == 0 || k == 0; write {
						w.fill(reqs[rank], nbBuf[i], uint64(100+2*k+i))
						hs[i], err = c.IWriteAll(p, reqs[rank], nbBuf[i])
					} else {
						hs[i], err = c.IReadAll(p, reqs[rank], nbBuf[i])
					}
					if err != nil {
						t.Errorf("rank %d round %d: nonblocking call %d: %v", rank, k, i, err)
						return
					}
					if rank == 0 {
						was[i] = scheduleTables(hs[i].sd)
					}
				}
				for fam, reqs := range blk[k] {
					gen := uint64(10*k + fam + 1)
					w.fill(reqs[rank], buf, gen)
					if err := c.WriteAll(p, reqs[rank], buf); err != nil {
						t.Errorf("rank %d round %d family %d: write: %v", rank, k, fam, err)
					}
					p.Barrier()
					if rank == 0 {
						if !c.ranOneShot() {
							t.Errorf("round %d family %d: the write did not run one-shot", k, fam)
						}
						routes[c.LastRoute()]++
						w.wrote(reqs, gen)
					}
					p.Barrier()
					clear(buf)
					if err := c.ReadAll(p, reqs[rank], buf); err != nil {
						t.Errorf("rank %d round %d family %d: read: %v", rank, k, fam, err)
					} else if err := w.check(reqs[rank], buf); err != nil {
						t.Errorf("rank %d round %d family %d: %v", rank, k, fam, err)
					}
					if rank == 0 {
						if !c.ranOneShot() {
							t.Errorf("round %d family %d: the read did not run one-shot", k, fam)
						}
						routes[c.LastRoute()]++
					}
				}
				for i, h := range hs {
					if rank == 0 && scheduleTables(h.sd) != was[i] {
						t.Errorf("round %d: nonblocking call %d's schedule changed while it was outstanding", k, i)
					}
					if err := h.Wait(p); err != nil {
						t.Errorf("rank %d round %d: nonblocking call %d: %v", rank, k, i, err)
					}
					p.Barrier()
					if h.write {
						if rank == 0 {
							w.wrote(nb[k][i], uint64(100+2*k+i))
						}
					} else if err := w.check(nb[k][i][rank], nbBuf[i]); err != nil {
						t.Errorf("rank %d round %d: nonblocking read: %v", rank, k, err)
					}
					p.Barrier()
				}
			}
		})
		t.Logf("one-shot routes: %v", routes)
		if st := w.c.PlanCacheStats(); st.Entries != 2*rounds {
			t.Errorf("%d schedules cached, want the %d nonblocking calls' alone (%+v)", st.Entries, 2*rounds, st)
		}
		w.checkImage(t)
	})

	// A one-shot write fails on a drive that fails while the call is in
	// flight: every rank returns the same error. Once the drive is
	// repaired the next one-shot call, of new request lists, succeeds, and
	// so do the failed call's lists written again — their key seen now, so
	// built in memory of their own — and a one-shot read of the new lists.
	t.Run("drive-fails-mid-call", func(t *testing.T) {
		w := newOneShotWorld(t, 1)
		failed, next := freshReqs(w.rng, oneShotRanks, 2), freshReqs(w.rng, oneShotRanks, 2)
		const failAt, repairAt = 2 * time.Millisecond, time.Second
		w.e.Go("fault", func(sp *sim.Proc) {
			sp.SleepUntil(failAt)
			w.disks[5].Fail()
			sp.SleepUntil(repairAt)
			w.disks[5].Repair()
		})
		var errs [oneShotRanks]error
		var start, end time.Duration
		w.run(t, func(p *mpp.Proc) {
			rank, c := p.Rank(), w.c
			buf := make([]byte, freshPer*freshBS)
			// The failed call writes what the blocks hold: whatever of it
			// landed leaves the image as it was.
			w.fill(failed[rank], buf, 0)
			if rank == 0 {
				start = p.Now()
			}
			errs[rank] = c.WriteAll(p, failed[rank], buf)
			if rank == 0 {
				end = p.Now()
				if !c.ranOneShot() {
					t.Error("the failed write did not run one-shot")
				}
			}
			p.SleepUntil(repairAt + time.Millisecond)
			for i, reqs := range [][][]VecReq{next, failed} {
				gen := uint64(i + 1)
				w.fill(reqs[rank], buf, gen)
				if err := c.WriteAll(p, reqs[rank], buf); err != nil {
					t.Errorf("rank %d: write %d after the repair: %v", rank, i, err)
				}
				p.Barrier()
				if rank == 0 {
					if oneShot := c.ranOneShot(); oneShot != (i == 0) {
						t.Errorf("write %d after the repair ran one-shot %v, want %v", i, oneShot, i == 0)
					}
					w.wrote(reqs, gen)
				}
				p.Barrier()
			}
			clear(buf)
			if err := c.ReadAll(p, next[rank], buf); err != nil {
				t.Errorf("rank %d: read after the repair: %v", rank, err)
			} else if err := w.check(next[rank], buf); err != nil {
				t.Errorf("rank %d: read after the repair: %v", rank, err)
			}
			if rank == 0 && !c.ranOneShot() {
				t.Error("the read after the repair did not run one-shot")
			}
		})
		if start >= failAt || end <= failAt {
			t.Fatalf("the write ran from %v to %v: the drive did not fail in flight (at %v)", start, end, failAt)
		}
		for r, err := range errs {
			if !errors.Is(err, device.ErrFailed) || err.Error() != errs[0].Error() {
				t.Fatalf("rank %d: the failed write returned %v, rank 0 %v", r, err, errs[0])
			}
		}
		w.checkImage(t)
	})
}
