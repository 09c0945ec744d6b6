package collective

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/ioserver"
	"repro/internal/mpp"
	"repro/internal/sim"
)

// serviceFor stands up an I/O server with one job lane on the engine.
func serviceFor(e *sim.Engine, pol ioserver.Policy, workers int) (*ioserver.Server, *ioserver.Job) {
	srv := ioserver.New(ioserver.Config{Workers: workers, Policy: pol})
	job := srv.AddJob(ioserver.JobConfig{Name: "col"})
	srv.Start(e)
	return srv, job
}

// TestNonblockingWriteMatchesBlocking: IWriteAll+Wait lands exactly the
// bytes WriteAll lands, for every layout and policy.
func TestNonblockingWriteMatchesBlocking(t *testing.T) {
	for _, pl := range testPlacements {
		for _, pol := range []ioserver.Policy{ioserver.FIFO, ioserver.FairShare, ioserver.Priority} {
			t.Run(fmt.Sprintf("%s/%v", pl.name, pol), func(t *testing.T) {
				const nRanks = 8
				// Blocking reference.
				e, g, _ := collectiveFixture(t, storeDirect, pl.spec)
				col, err := Open(g, nRanks, Options{})
				if err != nil {
					t.Fatal(err)
				}
				_, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
					reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
					for i, gb := range slots {
						pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
					}
					if err := col.WriteAll(p, reqs, buf); err != nil {
						t.Errorf("rank %d: %v", p.Rank(), err)
					}
				})
				e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				want := readAllBlocks(t, g)

				// Nonblocking run on a twin setup.
				e2, g2, _ := collectiveFixture(t, storeDirect, pl.spec)
				srv, jb := serviceFor(e2, pol, 2)
				col2, err := Open(g2, nRanks, Options{Service: jb})
				if err != nil {
					t.Fatal(err)
				}
				_, join2 := mpp.Run(e2, nRanks, "iw", func(p *mpp.Proc) {
					reqs, buf, slots := strideReqs(g2, p.Rank(), nRanks)
					for i, gb := range slots {
						pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
					}
					h, err := col2.IWriteAll(p, reqs, buf)
					if err != nil {
						t.Errorf("rank %d: %v", p.Rank(), err)
						return
					}
					p.Compute(500 * time.Microsecond) // overlapped work
					if err := h.Wait(p); err != nil {
						t.Errorf("rank %d: %v", p.Rank(), err)
					}
					if !h.Test(p) {
						t.Errorf("rank %d: Test false after Wait", p.Rank())
					}
				})
				e2.Go("join", func(sp *sim.Proc) { join2.Wait(sp); srv.Stop(sp) })
				if err := e2.Run(); err != nil {
					t.Fatal(err)
				}
				if got := readAllBlocks(t, g2); !bytes.Equal(got, want) {
					t.Fatal("nonblocking write landed different bytes than blocking write")
				}
				st := jb.Stats()
				if st.Submitted == 0 || st.Submitted != st.Completed {
					t.Fatalf("server accounting: %+v", st)
				}
			})
		}
	}
}

// TestNonblockingReadMatchesBlocking: IReadAll delivers the same rank
// buffers ReadAll delivers (buffers fill only at Wait).
func TestNonblockingReadMatchesBlocking(t *testing.T) {
	for _, pl := range testPlacements {
		t.Run(pl.name, func(t *testing.T) {
			const nRanks = 8
			e, g, _ := collectiveFixture(t, storeDirect, pl.spec)
			// Seed every block untimed through the independent path.
			ctx := sim.NewWall()
			for f := 0; f < g.Len(); f++ {
				total := g.File(f).Mapper().TotalFSBlocks()
				buf := make([]byte, total*testBS)
				for b := int64(0); b < total; b++ {
					pattern(g.Offset(f)+b, buf[b*testBS:(b+1)*testBS])
				}
				if err := g.File(f).Set().WriteVec(ctx, blockio.Vec{{Block: 0, N: total}}, buf); err != nil {
					t.Fatal(err)
				}
			}

			srv, jb := serviceFor(e, ioserver.FairShare, 2)
			colB, err := Open(g, nRanks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			colNB, err := Open(g, nRanks, Options{Service: jb})
			if err != nil {
				t.Fatal(err)
			}
			_, join := mpp.Run(e, nRanks, "r", func(p *mpp.Proc) {
				reqs, bufWant, _ := strideReqs(g, p.Rank(), nRanks)
				if err := colB.ReadAll(p, reqs, bufWant); err != nil {
					t.Errorf("rank %d blocking: %v", p.Rank(), err)
				}
				reqs2, bufGot, _ := strideReqs(g, p.Rank(), nRanks)
				h, err := colNB.IReadAll(p, reqs2, bufGot)
				if err != nil {
					t.Errorf("rank %d: %v", p.Rank(), err)
					return
				}
				p.Compute(200 * time.Microsecond)
				if err := h.Wait(p); err != nil {
					t.Errorf("rank %d: %v", p.Rank(), err)
				}
				if !bytes.Equal(bufGot, bufWant) {
					t.Errorf("rank %d: nonblocking read delivered different bytes", p.Rank())
				}
			})
			e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNonblockingRequiresService documents the Options.Service guard.
func TestNonblockingRequiresService(t *testing.T) {
	const nRanks = 4
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	col, err := Open(g, nRanks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, join := mpp.Run(e, nRanks, "iw", func(p *mpp.Proc) {
		reqs, buf, _ := strideReqs(g, p.Rank(), nRanks)
		if _, err := col.IWriteAll(p, reqs, buf); err == nil {
			t.Errorf("rank %d: IWriteAll without a service succeeded", p.Rank())
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNonblockingOverlapsCompute: with D of post-issue computation, the
// nonblocking write finishes sooner than blocking write + D — the
// server's device work ran under the ranks' compute.
func TestNonblockingOverlapsCompute(t *testing.T) {
	const nRanks = 8
	const compute = 20 * time.Millisecond
	elapsed := func(nonblocking bool) time.Duration {
		e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
		var opts Options
		var srv *ioserver.Server
		if nonblocking {
			var jb *ioserver.Job
			srv, jb = serviceFor(e, ioserver.FIFO, 2)
			opts.Service = jb
		}
		col, err := Open(g, nRanks, opts)
		if err != nil {
			t.Fatal(err)
		}
		var done time.Duration
		_, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
			reqs, buf, _ := strideReqs(g, p.Rank(), nRanks)
			if nonblocking {
				h, err := col.IWriteAll(p, reqs, buf)
				if err != nil {
					t.Errorf("rank %d: %v", p.Rank(), err)
					return
				}
				p.Compute(compute)
				if err := h.Wait(p); err != nil {
					t.Errorf("rank %d: %v", p.Rank(), err)
				}
			} else {
				if err := col.WriteAll(p, reqs, buf); err != nil {
					t.Errorf("rank %d: %v", p.Rank(), err)
				}
				p.Compute(compute)
			}
			p.Barrier()
			if p.Rank() == 0 {
				done = p.Now()
			}
		})
		e.Go("join", func(sp *sim.Proc) {
			join.Wait(sp)
			if srv != nil {
				srv.Stop(sp)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	blocking := elapsed(false)
	nonblocking := elapsed(true)
	if nonblocking >= blocking {
		t.Fatalf("no overlap win: nonblocking %v vs blocking %v", nonblocking, blocking)
	}
}

// freeDomBufs counts the domain buffers parked in the handle's free list.
func freeDomBufs(c *Collective) (n int) {
	for _, l := range c.domFree {
		n += len(l)
	}
	return n
}

// TestNonblockingDomainBuffersRecycle: the nonblocking calls' domain
// buffers come from a per-handle free list and go back in Wait. With two
// writes outstanding per epoch the list must balance (nothing out) after
// every epoch's Waits, hold after the first epoch everything later
// epochs need (its population stops growing, so steady state allocates
// no domain buffer), and balance again after a call that failed at plan
// validation (which takes nothing) and after one whose device requests
// failed (whose Wait still returns what it took).
func TestNonblockingDomainBuffersRecycle(t *testing.T) {
	const nRanks = 8
	e, g, disks := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	srv, jb := serviceFor(e, ioserver.FairShare, 2)
	col, err := Open(g, nRanks, Options{Service: jb, Locality: true})
	if err != nil {
		t.Fatal(err)
	}
	var parked int
	check := func(p *mpp.Proc, what string) {
		p.Barrier() // every rank has returned its buffers
		if p.Rank() == 0 {
			if col.domOut != 0 {
				t.Errorf("%s: %d domain buffers still out", what, col.domOut)
			}
			if n := freeDomBufs(col); parked == 0 {
				parked = n
			} else if n != parked {
				t.Errorf("%s: free list holds %d buffers, %d after the first epoch", what, n, parked)
			}
		}
		p.Barrier()
	}
	_, join := mpp.Run(e, nRanks, "iw", func(p *mpp.Proc) {
		reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
		for i, gb := range slots {
			pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
		}
		rbuf := make([]byte, len(buf))
		for epoch := 0; epoch < 3; epoch++ {
			h1, err1 := col.IWriteAll(p, reqs, buf)
			h2, err2 := col.IWriteAll(p, reqs, buf)
			if err1 != nil || err2 != nil {
				t.Errorf("rank %d epoch %d: %v / %v", p.Rank(), epoch, err1, err2)
				return
			}
			if p.Rank() == 0 && epoch == 0 && col.domOut == 0 {
				t.Error("two outstanding writes hold no domain buffer")
			}
			if err := h1.Wait(p); err != nil {
				t.Errorf("rank %d epoch %d: %v", p.Rank(), epoch, err)
			}
			if err := h2.Wait(p); err != nil {
				t.Errorf("rank %d epoch %d: %v", p.Rank(), epoch, err)
			}
			hr, err := col.IReadAll(p, reqs, rbuf)
			if err != nil {
				t.Errorf("rank %d epoch %d: %v", p.Rank(), epoch, err)
				return
			}
			if err := hr.Wait(p); err != nil {
				t.Errorf("rank %d epoch %d: %v", p.Rank(), epoch, err)
			}
			if !bytes.Equal(rbuf, buf) {
				t.Errorf("rank %d epoch %d: recycled domain buffers delivered different bytes", p.Rank(), epoch)
			}
			check(p, fmt.Sprintf("epoch %d", epoch))
		}
		// A call rejected at plan validation starts nothing.
		bad := reqs
		if p.Rank() == 3 {
			bad = []VecReq{{File: 9, Vec: blockio.Vec{{N: 1}}}}
		}
		if _, err := col.IWriteAll(p, bad, buf); err == nil {
			t.Errorf("rank %d: invalid request list accepted", p.Rank())
		}
		check(p, "after a rejected call")
		// A call whose device requests fail still returns its buffers.
		if p.Rank() == 0 {
			disks[1].Fail()
		}
		p.Barrier()
		h, err := col.IWriteAll(p, reqs, buf)
		if err != nil {
			t.Errorf("rank %d: %v", p.Rank(), err)
			return
		}
		if err := h.Wait(p); err == nil {
			t.Errorf("rank %d: write to a failed drive succeeded", p.Rank())
		}
		check(p, "after a failed call")
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNonblockingKeepsLogicalPartition: a handle's blocking and
// nonblocking calls share one schedule cache but never one schedule.
// Under StrategyAuto a WriteAll of lists an IWriteAll already planned is
// still priced (here onto the drive-aligned partition), and an IWriteAll
// of lists a WriteAll put on the aligned partition still runs on the
// logical one — behind a server lane the workers bound device
// parallelism, and drive-spanning batches are what keep the drives busy.
func TestNonblockingKeepsLogicalPartition(t *testing.T) {
	const nRanks = 8
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[1].spec)
	srv, jb := serviceFor(e, ioserver.FIFO, 2)
	col, err := Open(g, nRanks, Options{Service: jb, Strategy: blockio.StrategyAuto, Locality: true})
	if err != nil {
		t.Fatal(err)
	}
	onAligned := func() bool { return col.sched.pl.phys != nil }
	_, join := mpp.Run(e, nRanks, "mix", func(p *mpp.Proc) {
		reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
		for i, gb := range slots {
			pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
		}
		step := func(nonblocking, wantAligned bool, wantMisses uint64) {
			var err error
			if nonblocking {
				var h *Handle
				if h, err = col.IWriteAll(p, reqs, buf); err == nil {
					if p.Rank() == 0 && onAligned() != wantAligned {
						t.Errorf("IWriteAll planned on aligned=%v", onAligned())
					}
					err = h.Wait(p)
				}
			} else {
				err = col.WriteAll(p, reqs, buf)
				if p.Rank() == 0 && (onAligned() != wantAligned || col.LastRoute() != "two-phase") {
					t.Errorf("WriteAll ran %s, aligned=%v, want two-phase aligned=%v", col.LastRoute(), onAligned(), wantAligned)
				}
			}
			if err != nil {
				t.Errorf("rank %d: %v", p.Rank(), err)
			}
			if p.Rank() == 0 && col.PlanCacheStats().Misses != wantMisses {
				t.Errorf("nonblocking=%v: %d schedule builds, want %d", nonblocking, col.PlanCacheStats().Misses, wantMisses)
			}
			p.Barrier()
		}
		step(true, false, 1) // planned for istart: logical, unpriced
		step(false, true, 2) // same lists, blocking: priced afresh
		step(true, false, 2) // replays the logical schedule, not the aligned one
		step(false, true, 2) // and the reverse
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
