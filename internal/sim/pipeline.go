package sim

import "errors"

// Software pipelining for virtual-time processes: a bounded FIFO
// hand-off (Queue) and a two-stage pipeline runner (Pipe) built on it.
//
// The shape these exist for is a producer/consumer pair whose stages
// both model time — a collective's exchange phase handing chunks to a
// device-access phase, a prefetcher feeding a compute loop — where the
// bound on the queue is the staging memory budget: depth 1 is classic
// double buffering (one item being produced while one is consumed).

// Queue is a bounded FIFO hand-off between managed processes — the
// virtual-time analogue of a buffered channel. The zero value is
// unusable; create with NewQueue. Like the other primitives, it relies
// on the engine's strict alternation instead of locks.
type Queue struct {
	cap    int
	items  fifo[any]
	closed bool
	sendq  WaitQueue
	recvq  WaitQueue
}

// NewQueue returns a queue bounding the number of in-flight items to
// cap (minimum 1).
func NewQueue(cap int) *Queue {
	if cap < 1 {
		cap = 1
	}
	return &Queue{cap: cap}
}

// Put appends v, parking while the queue is full. Putting on a closed
// queue panics (a pipeline protocol error, like a send on a closed
// channel).
func (q *Queue) Put(p *Proc, v any) {
	for q.Len() >= q.cap && !q.closed {
		q.sendq.Wait(p)
	}
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	q.items.push(v)
	q.recvq.WakeOne(p.e)
}

// Get removes and returns the head item, parking while the queue is
// empty. It returns ok=false once the queue is closed and drained.
func (q *Queue) Get(p *Proc) (v any, ok bool) {
	for q.Len() == 0 && !q.closed {
		q.recvq.Wait(p)
	}
	if q.Len() == 0 {
		return nil, false
	}
	v = q.items.pop()
	q.sendq.WakeOne(p.e)
	return v, true
}

// Len reports the number of buffered items.
func (q *Queue) Len() int { return q.items.len() }

// Close marks the end of the stream: blocked and future Gets drain the
// remaining items and then report ok=false. Close is idempotent.
func (q *Queue) Close(p *Proc) {
	if q.closed {
		return
	}
	q.closed = true
	q.sendq.WakeAll(p.e)
	q.recvq.WakeAll(p.e)
}

// Pipe runs a two-stage software pipeline: caller runs on the calling
// process, companion in a spawned process, and the two communicate
// through a Queue bounding the in-flight items to depth (1 = double
// buffering). Which side produces and which consumes is the stages'
// choice — the producing side must Close the queue when done (or on
// early exit), and the consuming side should drain the queue even after
// a failure so the producer never blocks on a full queue. Pipe joins
// the companion before returning and joins both stages' errors.
func Pipe(p *Proc, name string, depth int, caller func(q *Queue) error, companion func(c *Proc, q *Queue) error) error {
	q := NewQueue(depth)
	var g Group
	var cerr error
	g.Spawn(p.Engine(), name, func(c *Proc) {
		cerr = companion(c, q)
	})
	err := caller(q)
	g.Wait(p)
	return errors.Join(err, cerr)
}
