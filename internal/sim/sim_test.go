package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/probe"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatalf("empty Run: %v", err)
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced with no events: %v", e.Now())
	}
}

func TestEngineRunTwice(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	var got time.Duration
	e.Go("a", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.Sleep(7 * time.Millisecond)
		got = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 12*time.Millisecond {
		t.Fatalf("Now after sleeps = %v, want 12ms", got)
	}
	if e.Now() != 12*time.Millisecond {
		t.Fatalf("engine Now = %v, want 12ms", e.Now())
	}
}

func TestSleepZeroYields(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEngine()
	e.Go("a", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced time to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepUntilPastClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Go("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.SleepUntil(2 * time.Millisecond) // already past
		if p.Now() != 10*time.Millisecond {
			t.Errorf("SleepUntil went backwards: %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		for _, n := range []string{"p0", "p1", "p2"} {
			name := n
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					p.Sleep(time.Millisecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: run0=%v run%d=%v", first, trial, again)
			}
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, n := range []string{"x", "y", "z"} {
		name := n
		e.Go(name, func(p *Proc) {
			p.Sleep(3 * time.Millisecond) // all wake at the same instant
			order = append(order, name)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"x", "y", "z"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("same-time order = %v, want %v", order, want)
		}
	}
}

// TestPostedEventsFireInSlot: a posted event fires in its (time, seq)
// slot among process wakeups, one dispatch each, and the process its
// Fire returns resumes in that same slot — before anything scheduled
// after the event, and with no dispatch of its own.
func TestPostedEventsFireInSlot(t *testing.T) {
	e := NewEngine()
	rec := probe.New()
	e.SetProbe(rec)
	var order []string
	parked := e.Go("parked", func(p *Proc) {
		p.Park()
		order = append(order, fmt.Sprint("parked resumed at ", p.Now()))
	})
	e.Go("poster", func(p *Proc) {
		log := &Event{Fire: func() *Proc { order = append(order, "log"); return nil }}
		resume := &Event{Fire: func() *Proc { order = append(order, "resume"); return parked }}
		e.Post(log, 5*time.Millisecond)
		e.Post(resume, 5*time.Millisecond)
		p.SleepUntil(5 * time.Millisecond) // scheduled after both events
		order = append(order, "poster")
		e.Post(log, 0) // the past: fires now, after the poster parks
		p.Sleep(time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[log resume parked resumed at 5ms poster log]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	// Two starts, three events, the poster's two wakeups; the resumed
	// process rode the second event's dispatch.
	if got := rec.Metrics().Counter("sim.dispatches").Value(); got != 7 {
		t.Errorf("%d dispatches, want 7", got)
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	var target *Proc
	target = e.Go("sleeper", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(4 * time.Millisecond)
		p.Engine().Wake(target)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4*time.Millisecond {
		t.Fatalf("woke at %v, want 4ms", woke)
	}
}

func TestWakeAtFuture(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	var target *Proc
	target = e.Go("sleeper", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Engine().WakeAt(target, 9*time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 9*time.Millisecond {
		t.Fatalf("woke at %v, want 9ms", woke)
	}
}

func TestDoubleWakeIsDropped(t *testing.T) {
	e := NewEngine()
	wakes := 0
	var target *Proc
	target = e.Go("sleeper", func(p *Proc) {
		p.Park()
		wakes++
		p.Sleep(20 * time.Millisecond) // if the stale wake fired, this would end early
		wakes++
	})
	e.Go("waker", func(p *Proc) {
		p.Engine().Wake(target)
		p.Engine().Wake(target) // second wake for the same park: stale
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("end time %v, want 20ms (stale wake must not cut the sleep short)", e.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) {
		p.Park() // never woken
	})
	err := e.Run()
	d, ok := err.(*Deadlock)
	if !ok {
		t.Fatalf("expected *Deadlock, got %v", err)
	}
	if len(d.Procs) != 1 || d.Procs[0] != "stuck" {
		t.Fatalf("deadlock procs = %v", d.Procs)
	}
	if d.Error() == "" {
		t.Fatal("empty deadlock message")
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	e := NewEngine()
	var childTime time.Duration
	e.Go("parent", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		p.Engine().Go("child", func(c *Proc) {
			childTime = c.Now()
		})
		p.Sleep(time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 2*time.Millisecond {
		t.Fatalf("child started at %v, want 2ms", childTime)
	}
}

func TestMutexExclusionAndFIFO(t *testing.T) {
	e := NewEngine()
	var m Mutex
	var order []string
	inside := 0
	for _, n := range []string{"a", "b", "c"} {
		name := n
		e.Go(name, func(p *Proc) {
			m.Lock(p)
			inside++
			if inside != 1 {
				t.Errorf("mutex violated: %d inside", inside)
			}
			order = append(order, name)
			p.Sleep(time.Millisecond)
			inside--
			m.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("lock order = %v, want FIFO %v", order, want)
		}
	}
}

func TestBarrierReleasesTogetherAndReuses(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(3)
	var phase1, phase2 []time.Duration
	for i := 0; i < 3; i++ {
		delay := time.Duration(i) * time.Millisecond
		e.Go("w", func(p *Proc) {
			p.Sleep(delay)
			b.Wait(p)
			phase1 = append(phase1, p.Now())
			p.Sleep(delay)
			b.Wait(p)
			phase2 = append(phase2, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range phase1 {
		if ts != 2*time.Millisecond {
			t.Fatalf("phase1 release at %v, want 2ms (slowest arrival)", ts)
		}
	}
	for _, ts := range phase2 {
		if ts != 4*time.Millisecond {
			t.Fatalf("phase2 release at %v, want 4ms", ts)
		}
	}
}

func TestGroupJoin(t *testing.T) {
	e := NewEngine()
	var g Group
	done := 0
	e.Go("parent", func(p *Proc) {
		for i := 0; i < 4; i++ {
			d := time.Duration(i+1) * time.Millisecond
			g.Spawn(p.Engine(), "child", func(c *Proc) {
				c.Sleep(d)
				done++
			})
		}
		g.Wait(p)
		if done != 4 {
			t.Errorf("joined with %d children done, want 4", done)
		}
		if p.Now() != 4*time.Millisecond {
			t.Errorf("join at %v, want 4ms", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupWaitWhenEmpty(t *testing.T) {
	e := NewEngine()
	e.Go("parent", func(p *Proc) {
		var g Group
		g.Wait(p) // should not block
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitQueueWakeOrder(t *testing.T) {
	e := NewEngine()
	var wq WaitQueue
	var order []string
	for _, n := range []string{"first", "second", "third"} {
		name := n
		e.Go(name, func(p *Proc) {
			wq.Wait(p)
			order = append(order, name)
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if wq.Len() != 3 {
			t.Errorf("queue len = %d, want 3", wq.Len())
		}
		wq.WakeOne(p.Engine())
		p.Sleep(time.Millisecond)
		wq.WakeAll(p.Engine())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

// TestWallConcurrentNow guards the lazy-init fix: a zero-value Wall
// shared across goroutines must latch its epoch exactly once. Run with
// -race to catch regressions.
func TestWallConcurrentNow(t *testing.T) {
	var w Wall
	var wg sync.WaitGroup
	results := make([]time.Duration, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = w.Now()
		}(i)
	}
	wg.Wait()
	for i, d := range results {
		if d < 0 {
			t.Fatalf("goroutine %d saw negative elapsed time %v", i, d)
		}
	}
}

// TestProcShellReuse checks that finished process shells are recycled:
// a spawn-join loop should settle onto pooled shells instead of
// allocating a fresh goroutine and channel per spawn.
func TestProcShellReuse(t *testing.T) {
	e := NewEngine()
	seen := make(map[*Proc]int)
	e.Go("driver", func(p *Proc) {
		for i := 0; i < 100; i++ {
			var g Group
			g.Spawn(p.Engine(), "worker", func(c *Proc) {
				seen[c]++
				c.Sleep(time.Microsecond)
			})
			g.Wait(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range seen {
		total += n
	}
	if total != 100 {
		t.Fatalf("ran %d workers, want 100", total)
	}
	// 100 sequential spawns should reuse a small number of shells.
	if len(seen) > 3 {
		t.Fatalf("used %d distinct shells for 100 sequential spawns, want pooling", len(seen))
	}
}

// TestBatchedSameTimeDispatch stresses the ready-list fast path: a
// barrier releasing many processes at one instant must preserve FIFO
// wake order and leave the heap free of stale entries.
func TestBatchedSameTimeDispatch(t *testing.T) {
	const n = 64
	e := NewEngine()
	b := NewBarrier(n)
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i%7) * time.Millisecond)
			b.Wait(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("released %d, want %d", len(order), n)
	}
	// The last arriver (largest i with i%7 == 6) completes the barrier,
	// appends first, and releases the waiters in FIFO arrival order:
	// delay cohorts ascending, spawn order within each cohort.
	want := []int{62}
	for cohort := 0; cohort < 7; cohort++ {
		for i := cohort; i < n; i += 7 {
			if i != 62 {
				want = append(want, i)
			}
		}
	}
	for idx := range want {
		if order[idx] != want[idx] {
			t.Fatalf("release order[%d] = %d, want %d (full: %v)", idx, order[idx], want[idx], order)
		}
	}
	if len(e.heap) != 0 || e.readyHead != len(e.ready) {
		t.Fatalf("engine left %d heap / %d ready entries after Run", len(e.heap), len(e.ready)-e.readyHead)
	}
}

func TestWallContext(t *testing.T) {
	w := NewWall()
	t0 := w.Now()
	w.Sleep(50 * time.Millisecond) // returns immediately
	if w.Now()-t0 > 40*time.Millisecond {
		t.Fatal("Wall actually slept")
	}
	var zero Wall
	if zero.Now() < 0 {
		t.Fatal("zero Wall Now negative")
	}
}

// mallocsDuring runs the engine and reports the objects allocated between
// the two marks a process sets — mark(0) and mark(1), around its own
// steady state — whatever the other processes do meanwhile. The count
// is the whole Go runtime's, which now and then allocates a few objects
// of its own: callers allow runtimeNoise of them. The run is pinned to
// one P, as the benchmark pins it: a sync.Pool's per-P private slot
// cannot be stolen, so hand-offs that hop between Ps would miss pooled
// objects and allocate fresh ones.
const runtimeNoise = 12

func mallocsDuring(t *testing.T, e *Engine, body func(mark func(i int))) uint64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var at [2]uint64
	var ms runtime.MemStats // out here: the marks must not allocate it
	body(func(i int) {
		runtime.ReadMemStats(&ms)
		at[i] = ms.Mallocs
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return at[1] - at[0]
}

// TestBarrierReuseAllocatesNothing: a barrier's wait list keeps its array
// from phase to phase, so a reused barrier of 512 allocates nothing after
// its first phase (it regrew the list, 1 → 512 by doubling, every phase).
func TestBarrierReuseAllocatesNothing(t *testing.T) {
	const procs, phases = 512, 6
	e := NewEngine()
	b := NewBarrier(procs)
	got := mallocsDuring(t, e, func(mark func(int)) {
		for i := 0; i < procs; i++ {
			first := i == 0
			e.Go("p", func(p *Proc) {
				for k := 0; k < phases; k++ {
					switch {
					case first && k == 1:
						mark(0)
					case first && k == phases-1: // before any process finishes
						mark(1)
					}
					p.Sleep(time.Microsecond) // the engine's event heap grows in phase 0 too
					b.Wait(p)
				}
			})
		}
	})
	if got > runtimeNoise { // it was ten a phase
		t.Errorf("%d phases of a %d-process barrier allocated %d objects after the first", phases-2, procs, got)
	}
}

// TestWakeOneDoesNotCreep: waking from the head one at a time used to
// walk the wait list down its array until append had to move it; a list
// that drains goes back to the start of the array instead, and one that
// never drains slides down when it reaches the end. Neither a contended
// mutex nor a producer/consumer pair on a Queue allocates in steady state.
func TestWakeOneDoesNotCreep(t *testing.T) {
	t.Run("mutex", func(t *testing.T) {
		const procs, turns = 8, 200
		e := NewEngine()
		var mu Mutex
		got := mallocsDuring(t, e, func(mark func(int)) {
			for i := 0; i < procs; i++ {
				first := i == 0
				e.Go("p", func(p *Proc) {
					for k := 0; k < turns; k++ {
						if first && k == turns/4 {
							mark(0)
						}
						mu.Lock(p) // always contended: the list never drains
						p.Sleep(time.Microsecond)
						mu.Unlock(p)
					}
					if first {
						mark(1)
					}
				})
			}
		})
		if got > runtimeNoise {
			t.Errorf("a contended mutex allocated %d objects in steady state", got)
		}
	})
	t.Run("queue", func(t *testing.T) {
		const items = 400
		e := NewEngine()
		q := NewQueue(1)
		var slots [2]int
		got := mallocsDuring(t, e, func(mark func(int)) {
			e.Go("producer", func(p *Proc) {
				for k := 0; k < items; k++ {
					if k == items/4 {
						mark(0)
					}
					q.Put(p, &slots[k%2]) // a pointer boxes without allocating
					p.Sleep(time.Microsecond)
				}
				mark(1)
				q.Close(p)
			})
			e.Go("consumer", func(p *Proc) {
				for {
					if _, ok := q.Get(p); !ok {
						return
					}
					p.Sleep(2 * time.Microsecond)
				}
			})
		})
		if got > runtimeNoise { // it was two an item
			t.Errorf("a producer/consumer pair allocated %d objects in steady state", got)
		}
	})
}

// TestParN: index 0 runs on the caller, the rest as spawned processes in
// index order at the caller's instant; every branch's error is joined;
// off the engine the branches run in order on the caller; Par is ParN
// over a list of closures.
func TestParN(t *testing.T) {
	e := NewEngine()
	var order []int
	var end time.Duration
	var err error
	boom := errors.New("boom")
	e.Go("caller", func(p *Proc) {
		err = ParN(p, 4, func(c Context, i int) error {
			order = append(order, i)
			if (i == 0) != (c == Context(p)) {
				t.Errorf("branch %d ran on %v", i, c.(*Proc).name)
			}
			c.Sleep(time.Duration(4-i) * time.Millisecond)
			if i%2 == 1 {
				return fmt.Errorf("branch %d: %w", i, boom)
			}
			return nil
		})
		end = p.Now()
	})
	if rerr := e.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if fmt.Sprint(order) != "[0 1 2 3]" || end != 4*time.Millisecond {
		t.Errorf("branches started in order %v and joined at %v, want index order and 4ms", order, end)
	}
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "branch 1") || !strings.Contains(err.Error(), "branch 3") {
		t.Errorf("joined error %v, want branches 1 and 3", err)
	}

	order = order[:0]
	if err := ParN(NewWall(), 3, func(_ Context, i int) error { order = append(order, i); return nil }); err != nil || fmt.Sprint(order) != "[0 1 2]" {
		t.Errorf("sequential ParN: order %v, error %v", order, err)
	}
	var ran [3]bool
	mk := func(i int) func(Context) error { return func(Context) error { ran[i] = true; return nil } }
	if err := Par(NewWall(), mk(0), mk(1), mk(2)); err != nil || ran != [3]bool{true, true, true} {
		t.Errorf("Par ran %v, error %v", ran, err)
	}
}

// TestParNAllocatesNothing: a steady stream of fan-outs — nested ones
// included, as a redundant store's parallel branches under a transfer's —
// reuses its pooled call state: no error slice, group or closure per
// branch (it was three objects a call and two a branch).
func TestParNAllocatesNothing(t *testing.T) {
	const rounds = 64
	e := NewEngine()
	var inner, outer func(Context, int) error
	inner = func(c Context, i int) error { c.Sleep(time.Microsecond); return nil }
	outer = func(c Context, i int) error { return ParN(c, 2, inner) }
	got := mallocsDuring(t, e, func(mark func(int)) {
		e.Go("caller", func(p *Proc) {
			for k := 0; k < rounds; k++ {
				switch k {
				case 2:
					mark(0)
				case rounds - 1:
					mark(1)
				}
				if err := ParN(p, 16, outer); err != nil {
					t.Error(err)
				}
			}
		})
	})
	if got > runtimeNoise {
		t.Errorf("%d fan-outs of 16 × 2 allocated %d objects after warm-up", rounds-3, got)
	}
}
