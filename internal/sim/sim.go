// Package sim provides a deterministic virtual-time execution engine for
// simulated parallel programs.
//
// The paper's experiments concern timing phenomena on 1989-era hardware:
// seek interference, bandwidth aggregation across drives, and overlap of
// I/O with computation. To reproduce those shapes deterministically on
// modern machines, the entire library is parameterized over a Context
// that supplies the current time and the ability to wait. Two
// implementations exist:
//
//   - Proc, a process managed by Engine, runs under virtual time. The
//     Engine is a strict-alternation discrete-event scheduler: exactly one
//     managed process executes at any instant, and when it parks the
//     earliest pending event (ties broken by schedule order) fires.
//     Results are bit-for-bit reproducible.
//
//   - Wall, a trivial context for ordinary library use, where device
//     models complete instantly and Sleep is a no-op.
//
// # Scalability
//
// The engine is built to make a simulated second cheap even at thousands
// of processes. Each process owns exactly one event slot, embedded in the
// Proc itself and tracked by an indexed min-heap, so a superseded park or
// double wake is resolved in place at schedule time and the heap never
// accumulates stale entries. Events scheduled for the current instant
// bypass the heap entirely via a FIFO ready list, so a barrier releasing
// P processes costs P appends, not P heap pushes. Finished process
// shells — struct and coroutine — are recycled through a free list, so
// spawn-heavy patterns (a sim.Par fan-out of ranks or sieved
// read-modify-writes) stop paying per-spawn allocation and coroutine
// creation after warm-up. A drive request in flight spawns nothing: it
// is a stackless Event, fired inline in its slot. Each process is a
// coroutine (iter.Pull) that Run resumes: the one that parks or finishes
// picks the next event itself and yields back to Run, which resumes the
// process it picked, so an event costs a coroutine switch there and one
// back, with no trip through the Go scheduler, and none when the parking
// process's own event is the next (a Sleep(0) with nothing else ready).
// All of this changes wall-clock cost only: the dispatch order, and
// therefore every modeled timestamp, is bit-identical to a naive
// heap-of-events scheduler.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"sync"
	"time"

	"repro/internal/probe"
)

// Context supplies time to potentially blocking library operations. It
// plays the role context.Context plays for cancellation, but for virtual
// time: every operation that models a delay accepts a Context.
type Context interface {
	// Now reports the current time as an offset from the start of the
	// run (virtual for Proc, wall-clock-derived for Wall).
	Now() time.Duration
	// Sleep pauses the caller for d. Under virtual time the engine
	// advances; under Wall it returns at once.
	Sleep(d time.Duration)
}

// Event slot states for Event.slot. Non-negative values index e.heap.
const (
	slotNone  = -1 // no pending event
	slotReady = -2 // queued on the ready list for the current instant
)

// Engine is a deterministic discrete-event scheduler for virtual-time
// processes. Create one with NewEngine, add processes with Go, then call
// Run from the owner, which is not one of the engine's processes.
//
// Each process is a coroutine, and Run is the only place one is resumed.
// A process runs until it parks or finishes; then it picks the next
// event itself (next), leaves the process that event resumes in hand and
// yields to Run, which resumes that one. The one that finds nothing left
// leaves hand nil, and Run returns. Engine thereby enforces strict
// alternation: exactly one process runs at a time, and every hand-off is
// a coroutine switch, which orders everything the one did before
// everything the next does. Shared state touched only by managed
// processes therefore needs no locking, and every run of the same
// program is identical. All engine and process methods must be called
// either from the currently running managed process or (before Run) from
// the owner.
type Engine struct {
	now       time.Duration
	seq       uint64
	heap      []*Event // indexed min-heap on (at, seq): one slot per proc, plus posted events
	ready     []*Event // FIFO of events whose time equals now
	readyHead int
	live      []*Proc // live processes (order immaterial; swap-removed)
	free      []*Proc // finished shells available for reuse by Go
	hand      *Proc   // the process Run resumes next; nil ends the run
	started   bool
	halted    bool // the run cannot finish: every coroutine is being stopped (halt)
	// Flight-recorder hooks (nil when no recorder is attached; all are
	// nil-safe, so the off path costs one pointer check per site).
	prDispatch *probe.Counter
	prSpawn    *probe.Counter
	prBatch    *probe.Histogram
	batchN     float64 // dispatches at the current instant
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports current virtual time. Valid from any managed process and,
// between events, from the owner.
func (e *Engine) Now() time.Duration { return e.now }

// SetProbe attaches a flight recorder to the engine: dispatch and spawn
// counters plus a same-instant batch-size histogram land in the
// recorder's metrics registry. Attaching (or detaching, with nil) never
// changes dispatch order or modeled time — the hooks are pure counting.
func (e *Engine) SetProbe(r *probe.Recorder) {
	m := r.Metrics()
	if m == nil {
		e.prDispatch, e.prSpawn, e.prBatch = nil, nil, nil
		return
	}
	e.prDispatch = m.Counter("sim.dispatches")
	e.prSpawn = m.Counter("sim.spawns")
	e.prBatch = m.Histogram("sim.batch_size")
	m.Gauge("sim.live_procs", func() float64 { return float64(len(e.live)) })
}

// Proc is a virtual-time process. It implements Context. All Proc methods
// must be called from the process itself.
//
// A Proc value is only valid while its process is live: once the function
// passed to Go returns, the shell may be recycled for a later Go, so
// holding a *Proc across its completion and waking it is a protocol
// error (synchronization primitives and device queues only ever wake
// processes that are currently parked, which live processes are by
// construction).
type Proc struct {
	e       *Engine
	name    string
	fn      func(*Proc)
	resume  func() (struct{}, bool) // switch to the coroutine (Run only)
	yield   func(struct{}) bool     // switch back to Run; false once stopped
	stop    func()
	waiting bool
	dead    bool
	epoch   uint64
	// Embedded event slot: each process has at most one pending wakeup,
	// kept in-place so superseded schedules never leave heap garbage.
	ev      Event
	liveIdx int // index in e.live for O(1) removal
}

// Event is a stackless engine event: a callback the scheduler runs in its
// own (time, seq) slot, inline in whichever process picks it (or in Run),
// with no process to start, switch to or park. A drive's request in
// flight is one (internal/device): its completion moves the data, starts
// the drive's next request and may resume the process that waits for it.
// Set Fire once and Post the event whenever it is not pending.
type Event struct {
	// Fire runs when the event's slot comes up. It may post events and
	// wake processes, and it returns a process to resume in this very
	// slot — one parked with no wakeup pending — or nil.
	Fire func() *Proc
	proc *Proc // the process whose own wakeup slot this is; nil for a posted event
	at   time.Duration
	seq  uint64
	slot int
}

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.e }

// Now reports current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Go registers fn as a managed process. It may be called before Run or
// from a running managed process; the new process begins executing at the
// current virtual time, after the spawner next parks. Finished process
// shells (and their coroutines) are reused, so the returned *Proc must
// not be retained past fn's return.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	if e.halted {
		panic(halted{}) // a halted process's deferred call: nothing runs now
	}
	e.prSpawn.Add(1)
	var p *Proc
	if n := len(e.free); n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.dead = false
	} else {
		p = &Proc{e: e}
		p.ev = Event{proc: p, slot: slotNone}
		p.resume, p.stop = iter.Pull(p.loop)
	}
	p.name = name
	p.fn = fn
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
	p.epoch++
	p.waiting = true // the coroutine waits for its start event
	e.schedule(e.now, p, p.epoch)
	return p
}

// loop is the coroutine body: run one process function per resume,
// return the shell to the engine's free list, and yield to Run with the
// next event's process in hand. The shell goes on the free list first:
// the process resumed next may spawn onto it at this same instant, and
// Run then resumes it back here. The coroutine ends when reapFree stops
// it after Run completes, or when halt stops the process it runs: its
// park panics with halted, which unwinds the process to here.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		// Once the engine halts, whatever the unwinding process's deferred
		// calls panic with ends here; before, a panic is the process's own
		// and goes on up to Run.
		if v := recover(); v != nil && !p.e.halted {
			panic(v)
		}
	}()
	for {
		fn := p.fn
		p.fn = nil
		fn(p)
		e := p.e
		last := len(e.live) - 1
		e.live[p.liveIdx] = e.live[last]
		e.live[p.liveIdx].liveIdx = p.liveIdx
		e.live[last] = nil
		e.live = e.live[:last]
		p.dead = true
		e.free = append(e.free, p)
		e.hand = e.next()
		if !yield(struct{}{}) {
			return
		}
	}
}

// schedule enqueues a wakeup for p at time at, bound to park epoch ep.
// Staleness is resolved here rather than at dispatch: under strict
// alternation a parked process cannot run (and so cannot finish or
// re-park) before its pending event fires, so conditions checked at
// schedule time still hold at dispatch time. A schedule for a process
// that already has an earlier-or-equal pending event is dropped — the
// earlier event is exactly the one the old pop-and-skip scheduler would
// have dispatched — and a strictly earlier schedule moves the slot in
// place (decrease-key), so no stale entries ever enter the heap.
func (e *Engine) schedule(at time.Duration, p *Proc, ep uint64) {
	e.seq++
	if p.dead || !p.waiting || ep != p.epoch {
		return // stale: process finished, running, or park superseded
	}
	if at < e.now {
		at = e.now
	}
	ev := &p.ev
	switch {
	case ev.slot == slotNone:
		e.enqueue(ev, at)
	case at < ev.at: // double schedule: keep the minimum (at, seq)
		if at == e.now {
			e.heapRemove(ev)
			e.enqueue(ev, at)
		} else {
			ev.at, ev.seq = at, e.seq
			e.heapUp(ev.slot)
		}
	}
	// Otherwise the pending event fires no later; the new one is stale.
}

// Post schedules ev to fire at virtual time at (clamped to now), after
// every event already scheduled for that instant — the same slot a
// process's wakeup scheduled at this point would take. ev must not be
// pending.
func (e *Engine) Post(ev *Event, at time.Duration) {
	e.seq++
	e.enqueue(ev, max(at, e.now))
}

// enqueue files ev under (at, the current seq): on the ready list when at
// is now, in the heap otherwise.
func (e *Engine) enqueue(ev *Event, at time.Duration) {
	ev.at, ev.seq = at, e.seq
	if at == e.now {
		ev.slot = slotReady
		e.ready = append(e.ready, ev)
	} else {
		e.heapPush(ev)
	}
}

// park picks the next event and blocks until p is resumed. The caller
// must have set waiting and bumped epoch (via SleepUntil/Park). When p's
// own event is the next one, p simply carries on; otherwise it leaves
// the process picked in hand and switches back to Run. On a halted
// engine — the switch back reports the coroutine stopped, or the process
// parks again while it unwinds — it panics with halted instead, so the
// process runs no further simulation code.
func (p *Proc) park() {
	e := p.e
	if e.halted {
		panic(halted{})
	}
	q := e.next()
	if q == p {
		return
	}
	e.hand = q
	if !p.yield(struct{}{}) {
		panic(halted{})
	}
}

// halted is what a process stopped by halt unwinds with.
type halted struct{}

// Sleep suspends the process for d of virtual time. Sleep(0) yields,
// allowing other already-scheduled same-time events to run first.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.e.now + d)
}

// SleepUntil suspends the process until the given virtual time (which is
// clamped to now if already past).
func (p *Proc) SleepUntil(t time.Duration) {
	p.epoch++
	p.waiting = true
	p.e.schedule(t, p, p.epoch)
	p.park()
}

// Park suspends the process indefinitely, handing the engine to the next
// event's process; it resumes when another process calls Engine.Wake (or
// WakeAt) for it and that event fires. Used to build synchronization
// primitives and device queues. Each Park must be matched by exactly one
// Wake; extra wakes for a superseded park are dropped harmlessly.
func (p *Proc) Park() {
	p.epoch++
	p.waiting = true
	p.park()
}

// Wake schedules the parked process p to resume at the current virtual
// time. Under strict alternation the target is guaranteed to be parked
// whenever another process runs, so this is race-free. Waking a process
// that has finished is a protocol error (its shell may already belong to
// a later Go).
func (e *Engine) Wake(p *Proc) { e.WakeAt(p, e.now) }

// WakeAt schedules the parked process p to resume at virtual time at.
func (e *Engine) WakeAt(p *Proc, at time.Duration) {
	e.schedule(at, p, p.epoch)
}

// Deadlock describes an engine run that stalled: processes remain but no
// runnable events are pending.
type Deadlock struct {
	At    time.Duration
	Procs []string // names of stuck processes
}

func (d *Deadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) parked forever: %v", d.At, len(d.Procs), d.Procs)
}

// Run executes scheduled processes until none remain. It must be called
// by the engine's owner — which is not one of its processes, but may be a
// process of another engine — and at most once. It resumes one process
// after another, each the one the last left in hand, until a parking or
// finishing process finds no event left to fire. It returns a *Deadlock
// error if processes remain parked then; otherwise nil. A panic in a
// process comes out of Run with its value. Either way no coroutine is
// left behind: the parked processes are stopped (halt).
func (e *Engine) Run() error {
	if e.started {
		return fmt.Errorf("sim: Run called twice")
	}
	e.started = true
	finished := false
	defer func() {
		if !finished {
			e.halt() // a process panicked; its value goes on up
		}
	}()
	for p := e.next(); p != nil; p = e.hand {
		e.hand = nil
		p.resume()
	}
	finished = true
	if len(e.live) == 0 {
		e.flushBatch()
		e.reapFree()
		return nil
	}
	var names []string
	for _, q := range e.live {
		names = append(names, q.name)
	}
	sort.Strings(names)
	e.halt()
	return &Deadlock{At: e.now, Procs: names}
}

// halt ends a run that cannot finish, a deadlock or a panic: every live
// process is stopped — its park panics with halted, which unwinds it
// through its deferred calls to its coroutine's start, where the
// coroutine ends — and then every pooled shell.
func (e *Engine) halt() {
	e.halted = true
	for _, p := range e.live {
		p.stop()
	}
	clear(e.live)
	e.live = e.live[:0]
	e.reapFree()
}

// next fires events until one resumes a process and returns that
// process, nil when no event is pending. It is the whole scheduler, and it
// runs in whichever process parks or finishes (in Run, for the first). Every event fired counts
// as one dispatch: a posted one, and a process's wakeup even when the
// process is the caller itself.
//
// Dispatch order: among pending events, the minimum (time, schedule-seq)
// fires first. Events for the current instant live on a FIFO ready list;
// every heap event at the current instant was scheduled before time
// advanced here and so precedes every ready entry, which is why draining
// heap-at-now before the ready list preserves exact seq order.
func (e *Engine) next() *Proc {
	for {
		var ev *Event
		switch {
		case len(e.heap) > 0 && e.heap[0].at == e.now:
			ev = e.heapPop()
		case e.readyHead < len(e.ready):
			ev = e.ready[e.readyHead]
			e.ready[e.readyHead] = nil
			e.readyHead++
			if e.readyHead == len(e.ready) {
				e.ready = e.ready[:0]
				e.readyHead = 0
			}
			ev.slot = slotNone
		case len(e.heap) > 0:
			e.flushBatch()
			e.now = e.heap[0].at
			ev = e.heapPop()
		default:
			return nil
		}
		if e.prDispatch != nil {
			e.prDispatch.Add(1)
			e.batchN++
		}
		p := ev.proc
		if p == nil {
			if p = ev.Fire(); p == nil {
				continue
			}
			if !p.waiting || p.ev.slot != slotNone {
				panic("sim: an event resumed " + p.name + ", which is not parked or has a wakeup pending")
			}
		}
		p.waiting = false
		return p
	}
}

// flushBatch folds the just-completed instant's dispatch count into the
// batch-size histogram (no-op when no recorder is attached).
func (e *Engine) flushBatch() {
	if e.prBatch != nil && e.batchN > 0 {
		e.prBatch.Add(e.batchN)
		e.batchN = 0
	}
}

// reapFree stops pooled coroutines once the run is over so finished
// engines do not pin idle goroutines.
func (e *Engine) reapFree() {
	for i, p := range e.free {
		p.stop()
		e.free[i] = nil
	}
	e.free = nil
}

// Indexed binary min-heap over (at, seq), with each event's position
// stored in its slot so re-schedules adjust entries in place.

func (e *Engine) evLess(i, j int) bool {
	a, b := e.heap[i], e.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) evSwap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.heap[i].slot = i
	e.heap[j].slot = j
}

func (e *Engine) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.evLess(i, parent) {
			break
		}
		e.evSwap(i, parent)
		i = parent
	}
}

func (e *Engine) heapDown(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && e.evLess(l, min) {
			min = l
		}
		if r < n && e.evLess(r, min) {
			min = r
		}
		if min == i {
			return
		}
		e.evSwap(i, min)
		i = min
	}
}

func (e *Engine) heapPush(ev *Event) {
	ev.slot = len(e.heap)
	e.heap = append(e.heap, ev)
	e.heapUp(ev.slot)
}

func (e *Engine) heapPop() *Event {
	ev := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap[0].slot = 0
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if last > 0 {
		e.heapDown(0)
	}
	ev.slot = slotNone
	return ev
}

// heapRemove deletes ev from an arbitrary heap position.
func (e *Engine) heapRemove(ev *Event) {
	i := ev.slot
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.heap[i].slot = i
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if i < last {
		e.heapDown(i)
		e.heapUp(i)
	}
	ev.slot = slotNone
}

// Wall is a Context for ordinary (non-simulated) execution. The zero
// value never sleeps and reports time elapsed since the first call; the
// epoch is latched exactly once, so a zero-value Wall shared across
// goroutines is safe.
type Wall struct {
	start time.Time
	once  sync.Once
}

// NewWall returns a wall-clock context that skips modeled delays.
func NewWall() *Wall {
	w := &Wall{}
	w.once.Do(func() { w.start = time.Now() })
	return w
}

// Now reports wall time elapsed since the context was created (or since
// the first call, for a zero-value Wall).
func (w *Wall) Now() time.Duration {
	w.once.Do(func() { w.start = time.Now() })
	return time.Since(w.start)
}

// Sleep skips the modeled delay: it returns at once.
func (w *Wall) Sleep(time.Duration) {}

var (
	_ Context = (*Proc)(nil)
	_ Context = (*Wall)(nil)
)
