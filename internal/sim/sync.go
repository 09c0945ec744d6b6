package sim

import (
	"errors"
	"slices"
	"sync"
)

// Synchronization primitives for virtual-time processes.
//
// Because the engine enforces strict alternation, these types need no
// real locks: a process mutates primitive state only while it holds the
// engine, and the wake-channel hand-off from one holder to the next
// provides the happens-before edges the memory model requires.

// fifo is a first-in-first-out list that keeps its backing array: buf[head:]
// are the elements, a list that drains goes back to the start of the
// array, and one that reaches the end of it slides down over the popped
// prefix before it grows. A primitive that is reused — a barrier's wait
// list, a pipeline's hand-off queue — therefore allocates nothing once
// the array has reached the size it needs. (Popping by re-slicing walked
// the list down its array until append had to move it, and emptying it
// with nil regrew it from nothing every time.)
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// pop removes and returns the head element (the list must not be empty).
func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	if f.head++; f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}

// WaitQueue is a FIFO queue of parked processes — the building block for
// the other primitives (condition-variable style).
type WaitQueue struct {
	q fifo[*Proc]
}

// Wait parks the calling process at the tail of the queue.
func (w *WaitQueue) Wait(p *Proc) {
	w.q.push(p)
	p.Park()
}

// Len reports how many processes are parked on the queue.
func (w *WaitQueue) Len() int { return w.q.len() }

// WakeOne resumes the process at the head of the queue (at the current
// virtual time) and reports whether one was waiting.
func (w *WaitQueue) WakeOne(e *Engine) bool {
	if w.q.len() == 0 {
		return false
	}
	e.Wake(w.q.pop())
	return true
}

// WakeAll resumes every parked process, in FIFO order, at the current
// virtual time. Wake only schedules — no woken process runs before the
// caller parks — so the list is emptied in place afterwards.
func (w *WaitQueue) WakeAll(e *Engine) {
	for _, p := range w.q.buf[w.q.head:] {
		e.Wake(p)
	}
	w.q.buf, w.q.head = w.q.buf[:0], 0
}

// Mutex is a virtual-time mutual-exclusion lock with FIFO handoff. The
// zero value is unlocked.
type Mutex struct {
	locked bool
	wq     WaitQueue
}

// Lock acquires the mutex, parking the process until it is available.
func (m *Mutex) Lock(p *Proc) {
	for m.locked {
		m.wq.Wait(p)
	}
	m.locked = true
}

// Unlock releases the mutex, waking the next waiter if any. The caller
// supplies its Proc so the wake is scheduled deterministically.
func (m *Mutex) Unlock(p *Proc) {
	m.locked = false
	m.wq.WakeOne(p.e)
}

// Barrier blocks processes until a fixed number have arrived, then
// releases them all (reusable across phases).
type Barrier struct {
	n       int
	arrived int
	wq      WaitQueue
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Wait blocks until all n participants have called Wait; the final
// arriver releases the others and the barrier resets.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.wq.WakeAll(p.e)
		return
	}
	b.wq.Wait(p)
}

// Group tracks completion of a set of spawned processes so a parent can
// join on them (WaitGroup analogue).
type Group struct {
	active  int
	waiters WaitQueue
}

// Add records n processes joining the group.
func (g *Group) Add(n int) { g.active += n }

// Done records one process leaving the group, waking joiners when the
// count reaches zero.
func (g *Group) Done(p *Proc) {
	g.active--
	if g.active == 0 {
		g.waiters.WakeAll(p.e)
	}
}

// Wait parks until the group count reaches zero.
func (g *Group) Wait(p *Proc) {
	for g.active > 0 {
		g.waiters.Wait(p)
	}
}

// Spawn runs fn in a new managed process registered with the group.
func (g *Group) Spawn(e *Engine, name string, fn func(p *Proc)) {
	g.Add(1)
	e.Go(name, func(p *Proc) {
		defer g.Done(p)
		fn(p)
	})
}

// Par runs the given operations concurrently: ParN over a list of
// closures, for callers whose branches differ in kind.
func Par(ctx Context, fns ...func(Context) error) error {
	return ParN(ctx, len(fns), func(c Context, i int) error { return fns[i](c) })
}

// ParN runs fn(c, 0) … fn(c, n-1) concurrently when ctx is a managed
// process (index 0 on the calling process, the rest as spawned
// processes, matching how an I/O controller drives several spindles at
// once) and sequentially otherwise, joining all errors. Spawn order — and
// therefore virtual-time scheduling — follows index order, keeping runs
// deterministic. The branches are told apart by index so that a fan-out
// over a list (the runs of a transfer) needs no closure per element.
func ParN(ctx Context, n int, fn func(Context, int) error) error {
	p, ok := ctx.(*Proc)
	if !ok || n <= 1 {
		var errs []error
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
	pc := parPool.Get().(*parCall)
	pc.fn = fn
	pc.errs = slices.Grow(pc.errs[:0], n)[:n] // all nil: cleared on the way back to the pool
	for len(pc.branch) < n-1 {
		i := len(pc.branch) + 1
		pc.branch = append(pc.branch, func(c *Proc) {
			pc.errs[i] = pc.fn(c, i)
			pc.g.Done(c)
		})
	}
	pc.g.Add(n - 1)
	for _, b := range pc.branch[:n-1] {
		p.e.Go("par-io", b)
	}
	pc.errs[0] = fn(p, 0)
	pc.g.Wait(p)
	err := errors.Join(pc.errs...)
	pc.fn = nil
	clear(pc.errs)
	parPool.Put(pc)
	return err
}

// parCall is one ParN in flight: what the caller and its spawned
// branches share. branch[i-1] is the body of index i, bound to the call
// once and kept with it in the pool, so a steady stream of fan-outs (one
// per multi-drive transfer) allocates nothing: no error slice, no group,
// no closure per branch. A fan-out nested in a branch takes its own call.
type parCall struct {
	fn     func(Context, int) error
	errs   []error
	g      Group
	branch []func(*Proc)
}

var parPool = sync.Pool{New: func() any { return new(parCall) }}
