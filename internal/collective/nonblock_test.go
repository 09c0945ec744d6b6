package collective

import (
	"bytes"
	"errors"
	"fmt"
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

// TestNonblockingEmptyCalls: an IWriteAll and an IReadAll no rank asks
// anything of complete with nil on every rank.
func TestNonblockingEmptyCalls(t *testing.T) {
	const nRanks = 3
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	srv, jb := serviceFor(e, ioserver.FairShare, 1)
	col, err := Open(g, nRanks, Options{Service: jb})
	if err != nil {
		t.Fatal(err)
	}
	_, join := mpp.Run(e, nRanks, "empty", func(p *mpp.Proc) {
		for i, start := range []func(*mpp.Proc, []VecReq, []byte) (*Handle, error){col.IWriteAll, col.IReadAll} {
			h, err := start(p, nil, nil)
			if err == nil {
				err = h.Wait(p)
			}
			if err != nil {
				t.Errorf("rank %d call %d: %v", p.Rank(), i, err)
			}
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
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

// TestNonblockingDomainBuffersRecycle: a nonblocking call's buffer
// space — its domains as pieces of the ranks' buffers — comes from a
// per-handle free list and goes back in Wait, exactly once (rank 0, after
// Wait's barrier). With two writes outstanding per epoch the list must
// hold after every epoch's Waits the two spaces the first epoch needed
// (its population stops growing, so steady state allocates no space), and
// the same after a call that failed at plan validation (which takes
// nothing) and after one whose server request failed (whose Wait still
// returns what it took). The single ticket's contract rides along: Test is false, not
// a nil dereference, on a rank that is out of IWriteAll before the last
// rank has submitted, and a failed request is the identical error on
// every rank.
func TestNonblockingDomainBuffersRecycle(t *testing.T) {
	const nRanks = 8
	e, g, disks := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	srv, jb := serviceFor(e, ioserver.FairShare, 2)
	col, err := Open(g, nRanks, Options{Service: jb, Locality: true})
	if err != nil {
		t.Fatal(err)
	}
	var parked, early int
	failed := make([]string, nRanks)
	check := func(p *mpp.Proc, what string) {
		p.Barrier() // rank 0 has returned the spaces
		if p.Rank() == 0 {
			if n := len(col.spaces); parked == 0 {
				parked = n
			} else if n != parked {
				t.Errorf("%s: free list holds %d spaces, %d after the first epoch", what, n, parked)
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
			if err1 == nil && h1.ticket == nil {
				// Some rank is still in its eager half: nothing is
				// submitted, so nothing can be done.
				early++
				if h1.Test(p) {
					t.Errorf("rank %d epoch %d: Test true before the call was submitted", p.Rank(), epoch)
				}
			}
			h2, err2 := col.IWriteAll(p, reqs, buf)
			if err1 != nil || err2 != nil {
				t.Errorf("rank %d epoch %d: %v / %v", p.Rank(), epoch, err1, err2)
				return
			}
			if p.Rank() == 0 && (len(h1.space) == 0 || len(h2.space) == 0 || &h1.space[0] == &h2.space[0]) {
				t.Errorf("epoch %d: two outstanding writes do not hold two spaces", epoch)
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
				t.Errorf("rank %d epoch %d: recycled spaces delivered different bytes", p.Rank(), epoch)
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
		// A call whose server request fails still returns its buffer, and
		// every rank reports the one failure in the same words.
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
		} else {
			failed[p.Rank()] = err.Error()
		}
		check(p, "after a failed call")
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if parked != 2 {
		t.Errorf("the free list held %d spaces after the first epoch, want the 2 of its outstanding writes", parked)
	}
	if early == 0 {
		t.Error("no rank ever left IWriteAll ahead of the submission: the Test-before-submit case did not run")
	}
	for r, msg := range failed {
		if msg != failed[0] || !strings.Contains(msg, "drive failed") {
			t.Errorf("rank %d: %q, rank 0: %q", r, msg, failed[0])
		}
	}
}

// checkPatternImage requires every block gb of the group to hold
// pattern(gb + shift).
func checkPatternImage(t *testing.T, g *pfs.FileGroup, shift int64) {
	t.Helper()
	got := readAllBlocks(t, g)
	want := make([]byte, testBS)
	for gb := int64(0); gb < g.TotalFSBlocks(); gb++ {
		pattern(gb+shift, want)
		if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], want) {
			t.Fatalf("global block %d does not hold pattern(%d)", gb, gb+shift)
		}
	}
}

// TestNonblockingDriveFailure fails a drive under the I/O server: call 1
// is in service and call 2 queued behind it (one worker, FIFO) when drive
// 1 fail-stops. On a Direct store every rank gets the identical error
// from each Wait — the submitting rank's, "rank r: …" — nobody hangs,
// the spaces and the tickets come back, and after Repair the same handle
// writes a third call cleanly, on a ticket a failed call handed back. Parity and Mirror absorb the failure: no error, and the
// image after each step is what a serial writer applying the calls in
// order leaves. Both routes a nonblocking call takes are held to it:
// two-phase, and vectored, whose request is the ranks' own runs.
func TestNonblockingDriveFailure(t *testing.T) {
	for _, kind := range []storeKind{storeDirect, storeParity, storeMirror} {
		for _, strat := range []blockio.Strategy{blockio.StrategyDefault, blockio.StrategyVectored} {
			name := kind.String()
			if strat == blockio.StrategyVectored {
				name += "-vectored"
			}
			t.Run(name, func(t *testing.T) { driveFailsUnderServer(t, kind, strat) })
		}
		t.Run(kind.String()+"-windows", func(t *testing.T) { driveFailsBetweenWindows(t, kind) })
	}
}

// driveFailsUnderServer is TestNonblockingDriveFailure on one store kind,
// the handle's route fixed by strat.
func driveFailsUnderServer(t *testing.T, kind storeKind, strat blockio.Strategy) {
	const nRanks = 8
	e, g, disks := collectiveFixture(t, kind, testPlacements[0].spec)
	srv, jb := serviceFor(e, ioserver.FIFO, 1)
	col, err := Open(g, nRanks, Options{Service: jb, Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	route := "two-phase"
	if strat == blockio.StrategyVectored {
		route = "vectored"
	}
	// Call k writes pattern(gb + 1000k) to every block gb.
	fill := func(buf []byte, slots []int64, k int) {
		for i, gb := range slots {
			pattern(gb+int64(1000*k), buf[int64(i)*testBS:int64(i+1)*testBS])
		}
	}
	var errs [3][nRanks]error
	var tickets [2]*ioserver.Request
	_, join := mpp.Run(e, nRanks, "iw", func(p *mpp.Proc) {
		rank := p.Rank()
		reqs, buf1, slots := strideReqs(g, rank, nRanks)
		buf2, buf3 := make([]byte, len(buf1)), make([]byte, len(buf1))
		fill(buf1, slots, 1)
		fill(buf2, slots, 2)
		fill(buf3, slots, 3)
		h1, err1 := col.IWriteAll(p, reqs, buf1)
		h2, err2 := col.IWriteAll(p, reqs, buf2)
		if err1 != nil || err2 != nil {
			t.Errorf("rank %d: %v / %v", rank, err1, err2)
			return
		}
		p.Barrier() // both calls are with the server
		if rank == 0 {
			if col.LastRoute() != route {
				t.Errorf("the calls ran %s, want %s", col.LastRoute(), route)
			}
			if st := jb.Stats(); st.Submitted != 2 || st.Completed != 0 {
				t.Errorf("at the failure: %+v, want one call in service and one queued", st)
			}
			tickets = [2]*ioserver.Request{h1.ticket, h2.ticket}
			disks[1].Fail()
		}
		errs[0][rank] = h1.Wait(p)
		errs[1][rank] = h2.Wait(p)
		p.Barrier()
		if rank == 0 {
			if len(col.spaces) != 2 {
				t.Errorf("%d spaces back after the failed calls, want 2", len(col.spaces))
			}
			if kind == storeDirect {
				disks[1].Repair()
			}
		}
		p.Barrier()
		h3, err := col.IWriteAll(p, reqs, buf3)
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
			return
		}
		p.Barrier() // call 3 is with the server
		if rank == 0 && h3.ticket != tickets[0] && h3.ticket != tickets[1] {
			t.Error("call 3 took a new ticket: the failed calls' tickets are not back on the lane")
		}
		errs[2][rank] = h3.Wait(p)
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err) // a hang is a deadlock report here
	}
	for k, call := range errs {
		for r, err := range call {
			if fmt.Sprint(err) != fmt.Sprint(call[0]) {
				t.Errorf("call %d: rank %d returned %v, rank 0 %v", k+1, r, err, call[0])
			}
		}
		wantErr := kind == storeDirect && k < 2
		if got := call[0]; (got != nil) != wantErr {
			t.Errorf("call %d: error %v, want one: %v", k+1, got, wantErr)
		} else if wantErr && (!errors.Is(got, device.ErrFailed) || !strings.HasPrefix(got.Error(), "rank ")) {
			t.Errorf("call %d: %v is not the submitting rank's drive failure", k+1, got)
		}
	}
	if len(col.spaces) != 2 {
		t.Errorf("%d spaces back, want 2", len(col.spaces))
	}
	// The serial reference: the calls applied in order, so call 3's
	// bytes everywhere.
	checkPatternImage(t, g, 3000)
}

// backlogLane gives the server a second job with n one-block reads of
// file 0's block 0 queued: while it is backlogged a fair-share server
// hands out a cut call one window at a time. The reads touch drive 0
// only and change nothing.
func backlogLane(t *testing.T, e *sim.Engine, srv *ioserver.Server, g *pfs.FileGroup, n int, each func(done int)) *sim.Group {
	lane := srv.AddJob(ioserver.JobConfig{Name: "other"})
	plan, err := blockio.BatchVec{{Set: g.File(0).Set(), Vec: blockio.Vec{{Block: 0, N: 1}}}}.Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	var cl sim.Group
	cl.Spawn(e, "other", func(p *sim.Proc) {
		tickets := make([]*ioserver.Request, n)
		for i := range tickets {
			tickets[i] = lane.Submit(p, false, plan, blockio.Space{{Buf: make([]byte, testBS)}}, testBS)
		}
		for i, tk := range tickets {
			if err := tk.Wait(p); err != nil {
				t.Errorf("other job's read %d: %v", i, err)
			}
			each(i + 1)
		}
	})
	return &cl
}

// driveFailsBetweenWindows is TestNonblockingDriveFailure with the call
// cut: ChunkBytes makes each 63-block call four server windows, a second
// job keeps the fair-share server choosing between them, and drive 1
// fail-stops after window 1 of call 1 has returned and before window 2
// is handed out. On a Direct store window 2 fails: the call ends there —
// no window 3 — call 2 behind it fails on its first window, every rank
// reads the one identical error off each ticket, and the spaces are
// back on the free list. Parity and Mirror absorb the failure. Either way
// a third call (after Repair on Direct) leaves the serial reference image.
func driveFailsBetweenWindows(t *testing.T, kind storeKind) {
	const nRanks, windows = 8, 4
	e, g, disks := collectiveFixture(t, kind, testPlacements[0].spec)
	srv, jb := serviceFor(e, ioserver.FairShare, 1)
	col, err := Open(g, nRanks, Options{Service: jb, ChunkBytes: 16 * testBS})
	if err != nil {
		t.Fatal(err)
	}
	// The other job's client runs between dispatches. Seeing call 1 at two
	// dispatches for the second time, it knows window 1 has come back (the
	// worker has served one of its reads since) and window 2 is not out.
	seen, failedAt := 0, int64(0)
	other := backlogLane(t, e, srv, g, 200, func(int) {
		if st := jb.Stats(); failedAt == 0 && st.Dispatches == 2 {
			if seen++; seen == 2 {
				if st.Completed != 0 || st.Submitted != 2 {
					t.Errorf("at the failure: %+v, want call 1 half issued and call 2 queued", st)
				}
				disks[1].Fail()
				failedAt = st.Dispatches
			}
		}
	})
	fill := func(buf []byte, slots []int64, k int) {
		for i, gb := range slots {
			pattern(gb+int64(1000*k), buf[int64(i)*testBS:int64(i+1)*testBS])
		}
	}
	var errs [3][nRanks]error
	var tickets [2]*ioserver.Request
	_, join := mpp.Run(e, nRanks, "iw", func(p *mpp.Proc) {
		rank := p.Rank()
		reqs, buf1, slots := strideReqs(g, rank, nRanks)
		buf2, buf3 := make([]byte, len(buf1)), make([]byte, len(buf1))
		fill(buf1, slots, 1)
		fill(buf2, slots, 2)
		fill(buf3, slots, 3)
		h1, err1 := col.IWriteAll(p, reqs, buf1)
		h2, err2 := col.IWriteAll(p, reqs, buf2)
		if err1 != nil || err2 != nil {
			t.Errorf("rank %d: %v / %v", rank, err1, err2)
			return
		}
		if h2.ticket != nil { // the last rank out of call 2 has submitted both
			tickets = [2]*ioserver.Request{h1.ticket, h2.ticket}
		}
		errs[0][rank] = h1.Wait(p)
		errs[1][rank] = h2.Wait(p)
		p.Barrier()
		if rank == 0 {
			want := int64(2 * windows)
			if kind == storeDirect {
				want = 3 + 1 // call 1 stops at its failed window 2, call 2 at its window 0
				disks[1].Repair()
			}
			if st := jb.Stats(); st.Completed != 2 || st.Dispatches != want {
				t.Errorf("after the failed calls: %+v, want 2 calls in %d dispatches", st, want)
			}
			if len(col.spaces) != 2 {
				t.Errorf("%d spaces on the free list, want both back", len(col.spaces))
			}
		}
		p.Barrier()
		h3, err := col.IWriteAll(p, reqs, buf3)
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
			return
		}
		p.Barrier() // call 3 is with the server
		if rank == 0 && h3.ticket != tickets[0] && h3.ticket != tickets[1] {
			t.Error("call 3 took a new ticket: the failed calls' tickets are not back on the lane")
		}
		errs[2][rank] = h3.Wait(p)
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp); other.Wait(sp); srv.Stop(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err) // a hang is a deadlock report here
	}
	if failedAt != 2 {
		t.Fatal("the drive never failed: call 1 was not seen between its windows 1 and 2")
	}
	for k, call := range errs {
		for r, err := range call {
			if fmt.Sprint(err) != fmt.Sprint(call[0]) {
				t.Errorf("call %d: rank %d returned %v, rank 0 %v", k+1, r, err, call[0])
			}
		}
		wantErr := kind == storeDirect && k < 2
		if got := call[0]; (got != nil) != wantErr {
			t.Errorf("call %d: error %v, want one: %v", k+1, got, wantErr)
		} else if wantErr && (!errors.Is(got, device.ErrFailed) || !strings.HasPrefix(got.Error(), "rank ")) {
			t.Errorf("call %d: %v is not the submitting rank's drive failure", k+1, got)
		}
	}
	if len(col.spaces) != 2 {
		t.Errorf("%d spaces back, want 2", len(col.spaces))
	}
	checkPatternImage(t, g, 3000)
}

// TestNonblockingStopMidCall: Server.Stop with a cut call half issued —
// the ranks walked away from their handle and a second job still has
// work queued — drains the call's remaining windows and the other lane,
// and the bytes are on the drives.
func TestNonblockingStopMidCall(t *testing.T) {
	const nRanks, windows = 8, 4
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	srv, jb := serviceFor(e, ioserver.FairShare, 1)
	col, err := Open(g, nRanks, Options{Service: jb, ChunkBytes: 16 * testBS})
	if err != nil {
		t.Fatal(err)
	}
	// The other job's client stops the server as soon as the call is
	// between windows, with most of its own reads still queued.
	var stopped ioserver.JobStats
	var other *sim.Group
	other = backlogLane(t, e, srv, g, 200, func(int) {})
	e.Go("stopper", func(sp *sim.Proc) {
		for jb.Stats().Dispatches < 2 {
			sp.Sleep(time.Millisecond)
		}
		stopped = jb.Stats()
		srv.Stop(sp)
		other.Wait(sp)
	})
	mpp.Run(e, nRanks, "iw", func(p *mpp.Proc) {
		reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
		for i, gb := range slots {
			pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
		}
		if _, err := col.IWriteAll(p, reqs, buf); err != nil {
			t.Errorf("rank %d: %v", p.Rank(), err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if stopped.Completed != 0 || stopped.Dispatches >= windows {
		t.Errorf("at Stop: %+v, want the call half issued", stopped)
	}
	if st := jb.Stats(); st.Submitted != 1 || st.Completed != 1 || st.Dispatches != windows {
		t.Errorf("server accounting: %+v, want the one call drained in %d dispatches", st, windows)
	}
	checkPatternImage(t, g, 0)
}

// TestNonblockingHandleNeverWaited: ranks that start a nonblocking write
// and walk away leave nothing parked. Server.Stop drains the queued call,
// Engine.Run returns nil, and the bytes are on the drives.
func TestNonblockingHandleNeverWaited(t *testing.T) {
	const nRanks = 8
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	srv, jb := serviceFor(e, ioserver.FIFO, 1)
	col, err := Open(g, nRanks, Options{Service: jb})
	if err != nil {
		t.Fatal(err)
	}
	_, join := mpp.Run(e, nRanks, "iw", func(p *mpp.Proc) {
		reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
		for i, gb := range slots {
			pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
		}
		if _, err := col.IWriteAll(p, reqs, buf); err != nil {
			t.Errorf("rank %d: %v", p.Rank(), err)
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := jb.Stats(); st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("server accounting: %+v, want the one call submitted and drained", st)
	}
	checkPatternImage(t, g, 0)
}

// TestNonblockingKeepsLogicalPartition: a handle's blocking and
// nonblocking calls share one schedule cache but never one schedule.
// Under StrategyAuto a WriteAll of lists an IWriteAll already planned is
// still priced afresh (here onto the drive-aligned partition), and an
// IWriteAll of lists a WriteAll put on the aligned partition still runs
// on the logical one — the aligned partition is never offered to a
// nonblocking call, whose request to the server is call-wide whatever
// the partition.
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
		step(true, false, 1) // planned for istart: logical, no aligned candidate
		step(false, true, 2) // same lists, blocking: priced afresh, one-shot
		step(true, false, 2) // replays the logical schedule, not the aligned one
		step(false, true, 2) // and the reverse: the one-shot schedule, admitted
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestIWriteAllReentry: every rank issues two IWriteAll calls back to
// back — the first half of file a from one buffer, the second half from
// another — and only then waits on both. Links are free, so every rank
// reaches the exchange Round's closing barrier at one instant, and the
// last to arrive, rank 7, which owns no domain, closes it and runs on:
// out of the first call and into the second, whose prologue points its
// Collective.bufs slot at the second buffer, all before the aggregators
// of the first call have assembled a byte. Assembly must read the
// first call's buffers (Handle.bufs), so both halves read back exactly
// what each call wrote. The buffer is the caller's again once Wait
// returns: each rank clears it there, and the bytes still land.
func TestIWriteAllReentry(t *testing.T) {
	const nRanks, half = 8, 20
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	srv, jb := serviceFor(e, ioserver.FIFO, 1)
	col, err := Open(g, nRanks, Options{Service: jb})
	if err != nil {
		t.Fatal(err)
	}
	if col.naggs >= nRanks {
		t.Fatalf("%d aggregators: the last rank must own no domain", col.naggs)
	}
	_, join := mpp.Run(e, nRanks, "iw", func(p *mpp.Proc) {
		var hs [2]*Handle
		var bufs [2][]byte
		for call := range hs {
			// Call c writes pattern(gb + 1000(c+1)) to its rank's stride of
			// blocks [20c, 20c+20) of file a.
			var vec blockio.Vec
			var buf []byte
			for b := int64(call*half + p.Rank()); b < int64((call+1)*half); b += nRanks {
				vec = append(vec, blockio.VecSeg{Block: b, N: 1, BufOff: int64(len(buf))})
				buf = append(buf, make([]byte, testBS)...)
				pattern(b+int64(1000*(call+1)), buf[len(buf)-testBS:])
			}
			h, err := col.IWriteAll(p, []VecReq{{File: 0, Vec: vec}}, buf)
			if err != nil {
				t.Errorf("rank %d call %d: %v", p.Rank(), call, err)
				return
			}
			hs[call], bufs[call] = h, buf
		}
		for call, h := range hs {
			if err := h.Wait(p); err != nil {
				t.Errorf("rank %d call %d: %v", p.Rank(), call, err)
			}
			clear(bufs[call])
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := readAllBlocks(t, g)
	want := make([]byte, testBS)
	for b := int64(0); b < 2*half; b++ {
		call := b / half
		pattern(b+1000*(call+1), want)
		if !bytes.Equal(got[b*testBS:(b+1)*testBS], want) {
			t.Errorf("block %d of file a does not hold call %d's bytes", b, call)
		}
	}
}

// TestNonblockingTicketRecycles: a replayed IWriteAll/Wait loop, the
// shape of multijob_qos's small jobs, is served on one server ticket.
// Rank 0's Wait hands it back to the lane, and every later call's
// submission takes that ticket again instead of a new one — on both
// routes, and across a read between the writes. Test stays true on
// every rank once its Wait has returned, with the ticket gone from the
// handle.
func TestNonblockingTicketRecycles(t *testing.T) {
	for _, strat := range []blockio.Strategy{blockio.StrategyDefault, blockio.StrategyVectored} {
		const nRanks, calls = 8, 4
		e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
		srv, jb := serviceFor(e, ioserver.FairShare, 2)
		col, err := Open(g, nRanks, Options{Service: jb, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		var first *ioserver.Request
		routes := map[string]int{}
		_, join := mpp.Run(e, nRanks, "iw", func(p *mpp.Proc) {
			reqs, buf, _ := strideReqs(g, p.Rank(), nRanks)
			for i := 0; i < 2*calls; i++ {
				var h *Handle
				var err error
				if i%2 == 0 {
					h, err = col.IWriteAll(p, reqs, buf)
				} else {
					h, err = col.IReadAll(p, reqs, buf)
				}
				if err != nil {
					t.Errorf("rank %d call %d: %v", p.Rank(), i, err)
					return
				}
				p.Barrier() // every rank is out of its eager half: submitted
				if p.Rank() == 0 {
					routes[col.LastRoute()]++
					if first == nil {
						first = h.ticket
					} else if h.ticket != first {
						t.Errorf("%v call %d: a new ticket, with the last call's released", strat, i)
					}
				}
				if err := h.Wait(p); err != nil {
					t.Errorf("rank %d call %d: %v", p.Rank(), i, err)
				}
				if !h.Test(p) {
					t.Errorf("rank %d call %d: Test false after Wait", p.Rank(), i)
				}
				p.Barrier() // rank 0 has released the ticket
				if h.ticket != nil {
					t.Errorf("rank %d call %d: the handle keeps its released ticket", p.Rank(), i)
				}
			}
		})
		e.Go("join", func(sp *sim.Proc) { join.Wait(sp); srv.Stop(sp) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := "two-phase"
		if strat == blockio.StrategyVectored {
			want = "vectored"
		}
		if routes[want] != 2*calls {
			t.Errorf("%v: routes %v, want every call %s", strat, routes, want)
		}
		if col.hits < 2*calls-2 {
			t.Errorf("%v: %d schedule replays, want the calls after the first two replayed", strat, col.hits)
		}
		if st := jb.Stats(); st.Submitted != 2*calls || st.Completed != 2*calls {
			t.Errorf("%v: server accounting %+v", strat, st)
		}
	}
}
