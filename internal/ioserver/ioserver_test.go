package ioserver

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/sim"
)

// fixture builds an engine-timed 2-device store with one striped set of
// `blocks` blocks (64-byte blocks, paper-default timing).
func fixture(t *testing.T, e *sim.Engine, blocks int64) *blockio.Set {
	t.Helper()
	const devs = 2
	disks := make([]*device.Disk, devs)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     fmt.Sprintf("d%d", i),
			Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 64},
			Engine:   e,
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	set, err := blockio.NewSet(store, blockio.NewStriped(devs, 1), make([]int64, devs), int64(devs)*store.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// batchFor prepares the plan of a write or read of blocks
// [first, first+n), to be bound to an n-block buffer at submission.
func batchFor(set *blockio.Set, first, n int64) *blockio.BatchPlan {
	plan, err := blockio.BatchVec{{Set: set, Vec: blockio.Vec{{Block: first, N: n}}}}.Plan(nil)
	if err != nil {
		panic(err)
	}
	return plan
}

func run(t *testing.T, e *sim.Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRoundTrip: a write submitted through the server lands on
// the devices (a later read sees it), tickets complete, and the job's
// accounting adds up.
func TestServerRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	set := fixture(t, e, 8)
	s := New(Config{Workers: 1})
	job := s.AddJob(JobConfig{Name: "j0"})
	s.Start(e)

	bs := int64(set.Store().BlockSize())
	out := make([]byte, 4*bs)
	for i := range out {
		out[i] = byte(i)
	}
	in := make([]byte, 4*bs)
	e.Go("client", func(p *sim.Proc) {
		w := job.SubmitWritePlan(p, batchFor(set, 0, 4), out, 4*bs)
		if w.Done() {
			t.Error("write done before any virtual time passed")
		}
		if err := w.Wait(p); err != nil {
			t.Error(err)
		}
		if !w.Done() || w.err != nil {
			t.Error("ticket not completed after Wait")
		}
		r := job.Submit(p, false, batchFor(set, 0, 4), blockio.Space{{Buf: in}}, 4*bs)
		if err := r.Wait(p); err != nil {
			t.Error(err)
		}
		s.Stop(p)
	})
	run(t, e)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("byte %d: got %d want %d", i, in[i], out[i])
		}
	}
	st := job.Stats()
	if st.Submitted != 2 || st.Completed != 2 || st.Bytes != 8*bs {
		t.Fatalf("stats = %+v", st)
	}
	if st.P99 <= 0 || st.Busy <= 0 {
		t.Fatalf("latency/busy not recorded: %+v", st)
	}
}

// submitN has a client proc submit n equal-size writes back-to-back
// with the given inter-arrival gap, recording completion order into
// order via the shared log.
func submitN(e *sim.Engine, job *Job, set *blockio.Set, first, blocks int64, n int, gap time.Duration, log *[]string) *sim.Group {
	var g sim.Group
	bs := int64(set.Store().BlockSize())
	g.Spawn(e, "client-"+job.cfg.Name, func(p *sim.Proc) {
		tickets := make([]*Request, 0, n)
		for i := 0; i < n; i++ {
			if gap > 0 && i > 0 {
				p.Sleep(gap)
			}
			buf := make([]byte, blocks*bs)
			tickets = append(tickets, job.SubmitWritePlan(p, batchFor(set, first, blocks), buf, blocks*bs))
		}
		for i, tk := range tickets {
			if err := tk.Wait(p); err != nil {
				panic(err)
			}
			*log = append(*log, fmt.Sprintf("%s-%d", job.cfg.Name, i))
		}
	})
	return &g
}

// contendedMix runs a bully (8 large writes, no gap) against a victim
// (4 small writes, no gap, arriving just after) under the given policy
// and reports (bully, victim) stats.
func contendedMix(t *testing.T, pol Policy, victimPrio int) (JobStats, JobStats) {
	t.Helper()
	e := sim.NewEngine()
	set := fixture(t, e, 64)
	s := New(Config{Workers: 1, Policy: pol})
	bully := s.AddJob(JobConfig{Name: "bully"})
	victim := s.AddJob(JobConfig{Name: "victim", Priority: victimPrio})
	s.Start(e)
	var log []string
	g1 := submitN(e, bully, set, 0, 16, 8, 0, &log)
	g2 := submitN(e, victim, set, 32, 1, 4, 0, &log)
	e.Go("driver", func(p *sim.Proc) {
		g1.Wait(p)
		g2.Wait(p)
		s.Stop(p)
	})
	run(t, e)
	return bully.Stats(), victim.Stats()
}

// TestFairShareBoundsVictimLatency: under FIFO the victim's small
// requests queue behind the bully's backlog; fair-share interleaves by
// served bytes, so the victim's p99 must drop.
func TestFairShareBoundsVictimLatency(t *testing.T) {
	_, vFIFO := contendedMix(t, FIFO, 0)
	_, vFair := contendedMix(t, FairShare, 0)
	if vFair.P99 >= vFIFO.P99 {
		t.Fatalf("fair-share p99 %v not below FIFO p99 %v", vFair.P99, vFIFO.P99)
	}
}

// TestPriorityOvertakesBacklog: a strict-priority victim overtakes the
// bully's queued requests at every dispatch.
func TestPriorityOvertakesBacklog(t *testing.T) {
	_, vFIFO := contendedMix(t, FIFO, 0)
	_, vPrio := contendedMix(t, Priority, 1)
	if vPrio.P99*2 > vFIFO.P99 {
		t.Fatalf("priority p99 %v not 2x below FIFO p99 %v", vPrio.P99, vFIFO.P99)
	}
}

// TestMultiWorkerDrainsAndJoins: several workers, several jobs, Stop
// joins everything with all requests completed.
func TestMultiWorkerDrainsAndJoins(t *testing.T) {
	e := sim.NewEngine()
	set := fixture(t, e, 64)
	s := New(Config{Workers: 3, Policy: FairShare})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, s.AddJob(JobConfig{Name: fmt.Sprintf("j%d", i)}))
	}
	s.Start(e)
	var log []string
	var groups []*sim.Group
	for i, j := range jobs {
		groups = append(groups, submitN(e, j, set, int64(i*16), 2, 5, time.Millisecond, &log))
	}
	e.Go("driver", func(p *sim.Proc) {
		for _, g := range groups {
			g.Wait(p)
		}
		s.Stop(p)
	})
	run(t, e)
	if len(log) != 20 {
		t.Fatalf("completions logged = %d", len(log))
	}
	for _, j := range jobs {
		st := j.Stats()
		if st.Submitted != 5 || st.Completed != 5 {
			t.Fatalf("job %s: %+v", st.Name, st)
		}
	}
}

// TestServerDeterminism: the same contended mix twice gives
// bit-identical stats snapshots (modeled times included).
func TestServerDeterminism(t *testing.T) {
	for _, pol := range []Policy{FIFO, FairShare, Priority} {
		b1, v1 := contendedMix(t, pol, 1)
		b2, v2 := contendedMix(t, pol, 1)
		if b1 != b2 || v1 != v2 {
			t.Fatalf("policy %v: stats differ across identical runs:\n%+v\n%+v\n%+v\n%+v", pol, b1, b2, v1, v2)
		}
	}
}

// TestSubmitBeforeStartPanics documents the protocol error.
func TestSubmitBeforeStartPanics(t *testing.T) {
	e := sim.NewEngine()
	set := fixture(t, e, 8)
	s := New(Config{})
	job := s.AddJob(JobConfig{Name: "early"})
	e.Go("client", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Submit before Start did not panic")
			}
		}()
		job.SubmitWritePlan(p, batchFor(set, 0, 1), make([]byte, set.Store().BlockSize()), int64(set.Store().BlockSize()))
	})
	run(t, e)
}

// TestSubmitAfterStopPanics: a stopped server's lanes are closed, and a
// submission to one is the protocol error Stop documents.
func TestSubmitAfterStopPanics(t *testing.T) {
	e := sim.NewEngine()
	set := fixture(t, e, 8)
	s := New(Config{})
	job := s.AddJob(JobConfig{Name: "late"})
	s.Start(e)
	e.Go("client", func(p *sim.Proc) {
		s.Stop(p)
		defer func() {
			if recover() == nil {
				t.Error("Submit after Stop did not panic")
			}
		}()
		job.SubmitWritePlan(p, batchFor(set, 0, 1), make([]byte, set.Store().BlockSize()), int64(set.Store().BlockSize()))
	})
	run(t, e)
}

// TestReleasedTicketIsReused: a lane whose client hands every completed
// ticket back (the collective layer's Handle.Wait) serves a loop of calls
// on one Request. Eight waiters park on each, as a call's ranks do; after
// every Release the lane holds that one ticket spare, and every Submit
// after the first returns it, completed afresh.
func TestReleasedTicketIsReused(t *testing.T) {
	const waiters, calls = 8, 5
	e := sim.NewEngine()
	set := fixture(t, e, 8)
	s := New(Config{Workers: 1})
	job := s.AddJob(JobConfig{Name: "victim"})
	s.Start(e)
	bs := int64(set.Store().BlockSize())
	plan := batchFor(set, 0, 2)
	buf := make([]byte, 2*bs)
	e.Go("client", func(p *sim.Proc) {
		var first *Request
		for i := 0; i < calls; i++ {
			r := job.SubmitWritePlan(p, plan, buf, 2*bs)
			if first == nil {
				first = r
			} else if r != first {
				t.Errorf("call %d: Submit made a new ticket with one released", i)
			}
			if r.Done() || r.err != nil {
				t.Errorf("call %d: a reused ticket starts done (%v)", i, r.err)
			}
			var g sim.Group
			for w := 0; w < waiters; w++ {
				g.Spawn(e, "rank", func(p *sim.Proc) {
					if err := r.Wait(p); err != nil {
						t.Error(err)
					}
				})
			}
			g.Wait(p)
			job.Release(r)
			if len(job.free) != 1 {
				t.Errorf("call %d: %d spare tickets after Release, want 1", i, len(job.free))
			}
		}
		s.Stop(p)
	})
	run(t, e)
	if st := job.Stats(); st.Submitted != calls || st.Completed != calls || st.Bytes != calls*2*bs {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReleasePanics: only a completed ticket of the lane, released once,
// may go back — a pending one (with a waiter parked on it or not), a
// second Release and another lane's ticket are protocol errors.
func TestReleasePanics(t *testing.T) {
	e := sim.NewEngine()
	set := fixture(t, e, 8)
	s := New(Config{Workers: 1})
	job, other := s.AddJob(JobConfig{Name: "a"}), s.AddJob(JobConfig{Name: "b"})
	s.Start(e)
	bs := int64(set.Store().BlockSize())
	mustPanic := func(what string, j *Job, r *Request) {
		defer func() {
			if recover() == nil {
				t.Errorf("Release of %s did not panic", what)
			}
		}()
		j.Release(r)
	}
	e.Go("client", func(p *sim.Proc) {
		r := job.SubmitWritePlan(p, batchFor(set, 0, 1), make([]byte, bs), bs)
		mustPanic("a pending request", job, r)
		e.Go("waiter", func(p *sim.Proc) { r.Wait(p) })
		p.Sleep(time.Nanosecond)
		if r.done || r.wq.Len() != 1 {
			t.Fatalf("fixture: done %v, %d waiters", r.done, r.wq.Len())
		}
		mustPanic("a waited-on request", job, r)
		if err := r.Wait(p); err != nil {
			t.Fatal(err)
		}
		mustPanic("another lane's request", other, r)
		job.Release(r)
		mustPanic("a released request", job, r)
		s.Stop(p)
	})
	run(t, e)
}
