package sim

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/probe"
)

var update = flag.Bool("update", false, "rewrite testdata/dispatch.golden from this run")

// resumes returns the function a process calls after anything that may
// park it: it appends "<virtual ns> <label>" to *seq when p has parked
// since the last call, so each dispatch of p is logged once. p's epoch
// moves at every park (and at Go), which is how a resume is told from a
// call that did not park: the last arriver at a barrier, a free mutex.
func resumes(seq *[]string, p *Proc, label string) func() {
	var ep uint64
	return func() {
		if p.epoch != ep {
			ep = p.epoch
			*seq = append(*seq, fmt.Sprintf("%d %s", p.Now(), label))
		}
	}
}

// dispatchProgram runs one seeded program of 55 processes, which spawn
// 37 more, that goes through every way the engine parks and resumes
// one: Sleep, Sleep(0) and SleepUntil a past instant; Park resumed by
// Wake, by WakeAt (future, past, moved earlier, a later one dropped) and
// by a stale double wake; a reused barrier, a contended Mutex, ParN
// fan-outs, spawns from running processes and a spawn at the instant a
// finishing process frees its shell; and a lone process whose own event
// is the next one. It returns the dispatch sequence and the engine's
// recorder. Each process draws from its own generator, so the program
// is fixed by the seed whatever order the engine runs it in.
func dispatchProgram(t *testing.T, seed uint64) ([]string, *probe.Recorder) {
	e := NewEngine()
	rec := probe.New()
	e.SetProbe(rec)
	var seq []string
	gen := func(i int) *RNG { return NewRNG(seed<<16 | uint64(i)) }
	us := func(r *RNG, n int) time.Duration { return time.Duration(r.Intn(n)) * time.Microsecond }
	spawn := func(name string, i int, body func(p *Proc, r *RNG, at func())) *Proc {
		return e.Go(name, func(p *Proc) {
			at := resumes(&seq, p, name)
			at()
			body(p, gen(i), at)
		})
	}

	for i := 0; i < 16; i++ {
		spawn(fmt.Sprintf("s%02d", i), i, func(p *Proc, r *RNG, at func()) {
			for k := 0; k < 6; k++ {
				switch r.Intn(4) {
				case 0:
					p.Sleep(us(r, 50) + time.Microsecond)
				case 1:
					p.Sleep(0)
				case 2:
					p.SleepUntil(p.Now() - us(r, 10)) // the past: clamped to now
				default:
					p.SleepUntil(p.Now() + us(r, 30))
				}
				at()
			}
		})
	}

	bar := NewBarrier(8)
	for i := 0; i < 8; i++ {
		spawn(fmt.Sprintf("b%d", i), 100+i, func(p *Proc, r *RNG, at func()) {
			for ph := 0; ph < 3; ph++ {
				p.Sleep(us(r, 40))
				at()
				bar.Wait(p)
				at()
			}
		})
	}

	var mu Mutex
	for i := 0; i < 8; i++ {
		spawn(fmt.Sprintf("m%d", i), 200+i, func(p *Proc, r *RNG, at func()) {
			for k := 0; k < 3; k++ {
				p.Sleep(us(r, 8))
				at()
				mu.Lock(p)
				at()
				p.Sleep(us(r, 6))
				at()
				mu.Unlock(p)
			}
		})
	}

	// Parkers park twice; each waker resumes two of them, once per park,
	// 25 µs and then 90 µs in — after both parks, whatever the parkers drew.
	var parked [8]*Proc
	for i := 0; i < 8; i++ {
		spawn(fmt.Sprintf("k%d", i), 300+i, func(p *Proc, r *RNG, at func()) {
			p.Sleep(us(r, 20))
			at()
			for k := 0; k < 2; k++ {
				parked[i] = p
				p.Park()
				at()
			}
			p.Sleep(us(r, 20))
			at()
		})
	}
	for j := 0; j < 4; j++ {
		spawn(fmt.Sprintf("w%d", j), 400+j, func(p *Proc, r *RNG, at func()) {
			p.SleepUntil(25 * time.Microsecond)
			at()
			for round := 0; round < 2; round++ {
				for _, x := range parked[2*j : 2*j+2] {
					d := us(r, 20) + time.Microsecond
					switch r.Intn(5) {
					case 0:
						e.Wake(x)
						e.Wake(x) // stale: the first already fires now
					case 1:
						e.WakeAt(x, p.Now()+d)
					case 2:
						e.WakeAt(x, p.Now()+d)
						e.Wake(x) // moved earlier, off the heap
					case 3:
						e.WakeAt(x, p.Now()+d)
						e.WakeAt(x, p.Now()+2*d) // later: dropped
					default:
						e.WakeAt(x, 0) // the past: clamped to now
					}
				}
				p.SleepUntil(90 * time.Microsecond)
				at()
			}
		})
	}

	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("n%d", i)
		spawn(name, 500+i, func(p *Proc, r *RNG, at func()) {
			for call := 0; call < 2; call++ {
				p.Sleep(us(r, 30))
				at()
				if err := ParN(p, 2+i, func(c Context, b int) error {
					cat := at
					if b > 0 {
						cat = resumes(&seq, c.(*Proc), fmt.Sprintf("%s.%d.%d", name, call, b))
						cat()
					}
					br := gen(1000*(i+1) + 10*call + b)
					for k := 0; k < 2; k++ {
						c.Sleep(us(br, 12))
						cat()
					}
					return nil
				}); err != nil {
					t.Error(err)
				}
				at()
			}
		})
	}

	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("g%d", i)
		spawn(name, 600+i, func(p *Proc, r *RNG, at func()) {
			var g Group
			for k := 0; k < 3; k++ {
				p.Sleep(us(r, 25))
				at()
				child := fmt.Sprintf("%s.%d", name, k)
				d := us(r, 40)
				g.Spawn(e, child, func(c *Proc) {
					cat := resumes(&seq, c, child)
					cat()
					c.Sleep(d)
					cat()
					if k == 1 {
						e.Go(child+".x", func(gc *Proc) {
							gat := resumes(&seq, gc, child+".x")
							gat()
							gc.Sleep(0)
							gat()
						})
					}
				})
				if k != 1 {
					g.Wait(p)
					at()
				}
			}
			g.Wait(p)
			at()
		})
	}

	// f0 and f1 both wake at 250 µs, f0 first: f0 finishes and f1, next,
	// spawns onto the shell f0 just freed.
	var freed, reused *Proc
	freed = spawn("f0", 700, func(p *Proc, r *RNG, at func()) {
		p.SleepUntil(250 * time.Microsecond)
		at()
	})
	spawn("f1", 701, func(p *Proc, r *RNG, at func()) {
		p.SleepUntil(250 * time.Microsecond)
		at()
		reused = spawn("f1.child", 702, func(c *Proc, r *RNG, at func()) {
			c.Sleep(us(r, 10))
			at()
		})
	})

	// Long after everything else, a lone process whose own event comes
	// first: the engine resumes it at the instant it parked.
	spawn("t0", 800, func(p *Proc, r *RNG, at func()) {
		p.SleepUntil(5 * time.Millisecond)
		at()
		p.Sleep(0)
		at()
		p.SleepUntil(time.Millisecond)
		at()
		p.Sleep(0)
		at()
	})

	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reused != freed {
		t.Fatal("f1.child did not reuse the shell f0 freed at the same instant")
	}
	return seq, rec
}

// TestDispatchOrderGolden holds the engine's dispatch order — every
// (virtual time, process) it resumes, its dispatch and spawn counts and
// its same-instant batch-size histogram — to testdata/dispatch.golden,
// at one P and at four. The file was written by the scheduler that
// dispatched every event from Run's goroutine, before processes handed
// off to each other directly, so it pins that the hand-off moved no
// event. -update rewrites it.
func TestDispatchOrderGolden(t *testing.T) {
	const name = "testdata/dispatch.golden"
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			seq, rec := dispatchProgram(t, 31)
			m := rec.Metrics()
			dispatches := m.Counter("sim.dispatches").Value()
			if int(dispatches) != len(seq) {
				t.Fatalf("%d dispatches, %d logged: a dispatch went unlogged", dispatches, len(seq))
			}
			var b strings.Builder
			fmt.Fprintln(&b, "# virtual ns, process: one line per dispatch")
			for _, s := range seq {
				fmt.Fprintln(&b, s)
			}
			fmt.Fprintf(&b, "sim.dispatches %d\n", dispatches)
			fmt.Fprintf(&b, "sim.spawns %d\n", m.Counter("sim.spawns").Value())
			batch := m.Histogram("sim.batch_size").Sample()
			counts := map[float64]int{}
			var sizes []float64
			for k := 1; k <= batch.N(); k++ {
				v := batch.Quantile((float64(k) - 0.5) / float64(batch.N()))
				if counts[v] == 0 {
					sizes = append(sizes, v)
				}
				counts[v]++
			}
			for _, v := range sizes {
				fmt.Fprintf(&b, "sim.batch_size %g x%d\n", v, counts[v])
			}
			got := b.String()
			if *update {
				if err := os.WriteFile(name, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if want := string(raw); got != want {
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := range gl {
					if i >= len(wl) || gl[i] != wl[i] {
						t.Fatalf("%s line %d:\n got %q\nwant %q", name, i+1, gl[i], append(wl, "<eof>")[min(i, len(wl))])
					}
				}
				t.Fatalf("%s: %d lines rendered, %d in the golden", name, len(gl), len(wl))
			}
		})
	}
}

// TestDeadlockFoundByFinishingProcess: when the last process that can
// run finishes instead of parking, Run reports the same deadlock — the
// instant and the sorted names of the processes left parked — as when
// the last one parks.
func TestDeadlockFoundByFinishingProcess(t *testing.T) {
	run := func(last string, body func(p *Proc)) *Deadlock {
		e := NewEngine()
		e.Go("b", func(p *Proc) { p.Park() })
		e.Go(last, body)
		if last != "a" {
			e.Go("a", func(p *Proc) {
				p.Sleep(time.Millisecond)
				p.Park()
			})
		}
		d, ok := e.Run().(*Deadlock)
		if !ok {
			t.Fatalf("last process %s: Run did not report a *Deadlock", last)
		}
		return d
	}
	parking := run("a", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		p.Park()
	})
	finishing := run("z", func(p *Proc) { p.Sleep(3 * time.Millisecond) })
	want := &Deadlock{At: 3 * time.Millisecond, Procs: []string{"a", "b"}}
	for _, d := range []*Deadlock{parking, finishing} {
		if d.Error() != want.Error() {
			t.Errorf("got %v, want %v", d, want)
		}
	}
}

// TestLoneSleepZeroResumesAtOnce: a process whose own event is the next
// one resumes at the instant it slept, and that resume is one dispatch
// in the same batch as the one before it.
func TestLoneSleepZeroResumesAtOnce(t *testing.T) {
	e := NewEngine()
	rec := probe.New()
	e.SetProbe(rec)
	m := rec.Metrics()
	e.Go("a", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		before := m.Counter("sim.dispatches").Value()
		p.Sleep(0)
		p.SleepUntil(time.Microsecond)
		if n := m.Counter("sim.dispatches").Value() - before; n != 2 || p.Now() != 5*time.Microsecond {
			t.Errorf("Sleep(0) then SleepUntil the past: %d dispatches, resumed at %v; want 2 at 5µs", n, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	batch := m.Histogram("sim.batch_size").Sample()
	if batch.N() != 2 || batch.Quantile(0) != 1 || batch.Max() != 3 {
		t.Errorf("batch sizes: %d instants, %g to %g; want 2 instants, 1 and 3", batch.N(), batch.Quantile(0), batch.Max())
	}
}

// TestFreedShellRespawnedAtOnce: a process that finishes hands its shell
// to the free list, and one that runs next at the same instant spawns
// onto it; the shell runs the new function exactly once. The finishing
// coroutine yields to Run with the spawner in hand and Run later resumes
// it for the new function; run under -race with four Ps, nothing of the
// one shell's two lives may overlap.
func TestFreedShellRespawnedAtOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const rounds = 200
	e := NewEngine()
	var ran [rounds]int
	for k := 0; k < rounds; k++ {
		at := time.Duration(k+1) * time.Microsecond
		old := e.Go("old", func(p *Proc) { p.SleepUntil(at) })
		e.Go("spawner", func(p *Proc) {
			p.SleepUntil(at)
			if c := e.Go("new", func(*Proc) { ran[k]++ }); c != old {
				t.Errorf("round %d: the spawn did not reuse the shell freed at %v", k, at)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for k, n := range ran {
		if n != 1 {
			t.Fatalf("round %d: the new function ran %d times", k, n)
		}
	}
}

// TestRunLeavesNoGoroutines: after a clean Run every coroutine has
// exited — reapFree stopped each pooled shell, those of the processes a
// process spawned and that finished mid-run included — so the goroutine
// count returns to what it was before the engine started.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	var during int
	for i := 0; i < 16; i++ {
		e.Go("p", func(p *Proc) {
			for k := 0; k < 4; k++ {
				if err := ParN(p, 4, func(c Context, _ int) error { c.Sleep(time.Microsecond); return nil }); err != nil {
					t.Error(err)
				}
			}
			during = max(during, runtime.NumGoroutine())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The 16 processes each had their own shell, and at least one fan-out
	// ran on shells spawned mid-run beside them, freed before Run ended.
	if during <= before+16 {
		t.Fatalf("%d goroutines while running, %d before: no spawned shell was alive mid-run", during, before)
	}
	if len(e.free) != 0 {
		t.Fatalf("%d shells left pooled after Run", len(e.free))
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestProcessPanicSurfacesFromRun: a panic in a process comes out of
// Run, on the owner's goroutine, with the value the process panicked
// with.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ at time.Duration }
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) { p.Sleep(time.Second) })
	e.Go("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic(boom{p.Now()})
	})
	defer func() {
		if v, ok := recover().(boom); !ok || v.at != time.Millisecond {
			t.Fatalf("recovered %v from Run, want boom{1ms}", v)
		}
	}()
	e.Run()
	t.Fatal("Run returned after a process panicked")
}

// TestNestedEngineRun: a process that runs a second engine to completion
// from inside its own body resumes correctly afterwards, and each
// engine's virtual time is its own: the inner run's sleeps do not move
// the outer clock, and the outer sleeps around it do not move the inner.
func TestNestedEngineRun(t *testing.T) {
	outer := NewEngine()
	var innerEnd, after time.Duration
	var order []string
	outer.Go("host", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		inner := NewEngine()
		for i := 1; i <= 3; i++ {
			inner.Go("inner", func(q *Proc) {
				q.Sleep(time.Duration(i) * time.Second)
				order = append(order, fmt.Sprintf("inner %v", q.Now()))
			})
		}
		if err := inner.Run(); err != nil {
			t.Error(err)
		}
		innerEnd = inner.Now()
		order = append(order, fmt.Sprintf("host %v", p.Now()))
		p.Sleep(time.Millisecond)
		after = p.Now()
	})
	outer.Go("peer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		order = append(order, fmt.Sprintf("peer %v", p.Now()))
	})
	if err := outer.Run(); err != nil {
		t.Fatal(err)
	}
	if innerEnd != 3*time.Second || after != 6*time.Millisecond || outer.Now() != 6*time.Millisecond {
		t.Fatalf("inner ended at %v, host resumed to %v, outer at %v; want 3s, 6ms, 6ms", innerEnd, after, outer.Now())
	}
	want := "inner 1s, inner 2s, inner 3s, host 5ms, peer 5ms"
	if got := strings.Join(order, ", "); got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
}
