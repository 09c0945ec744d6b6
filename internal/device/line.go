package device

import (
	"slices"
	"time"
)

// Line is a drive's waiting line: the requests that found the drive busy,
// the discipline that picks which of them it serves next, whether a new
// arrival merges with a waiting neighbour, and the arm that serves them.
// It is the one place a queue discipline is written: a Disk keeps its
// waiting requests in one, and a dry issue (blockio.Dry) replays a
// route's arrivals through one to price them. T is what the caller keeps
// with each waiting request.
//
// FCFS serves in arrival order. SCAN serves the nearest request at or
// past the arm in the direction it travels, the earliest arrival among
// those on one cylinder, and turns the arm when there is none. So the
// line is kept as two ways, the requests the arm reaches travelling up
// and those it reaches travelling down, each sorted by cylinder and
// arrival with the request served first on top: a pick takes the top of
// the way the arm travels, or turns the arm to the other. A request that
// absorbed others keeps its first arrival's place, and under SCAN moves
// with the cylinder of its first block. Where nothing merges, arrivals
// whose cylinders never fall are served in the order they arrive, from
// an arm travelling up or under FCFS: InOrder serves such arrivals one by
// one, past the line, and tells a caller whose arrivals are not such to
// queue them. A line reuses its storage: once it has been as long as it
// will be, it allocates nothing.
type Line[T any] struct {
	Arm   Arm
	m     Model
	seeks *seekTable // m's
	// w holds every request that joined since the line was last empty,
	// in arrival order: its index is its slot. way[1] keys the waiting
	// requests the arm serves travelling up — under FCFS all of them —
	// and way[0] those it serves travelling down; way[d][:sorted[d]] is
	// in order, the rest arrived since the last pick from that way.
	w      []waiting[T]
	way    [2][]uint64
	sorted [2]int
}

// waiting is one request in w: n blocks at block, on cylinder cyl; n is
// 0 once the request has left the line. to is its slot after a compact.
type waiting[T any] struct {
	block, n int64
	cyl, to  int32
	write    bool
	v        T
}

// key orders way d by cylinder cyl and slot s, ascending in the order of
// service from the bottom of the way to its top: the cylinder nearest
// the arm's end of the way, then the earliest arrival.
func key(d, cyl, s int) uint64 {
	c := uint32(cyl)
	if d == 1 {
		c = ^c
	}
	return uint64(c)<<32 | uint64(^uint32(s))
}

func slot(k uint64) int { return int(^uint32(k)) }

// Reset empties the line and sets the model it serves by: the geometry
// and timing it charges with, the discipline it picks by and whether
// arrivals merge. The arm stays where it is.
func (l *Line[T]) Reset(m Model) {
	if l.seeks == nil || l.seeks.g != m.Geometry || l.seeks.t != m.Timing {
		l.seeks = seeksOf(m.Geometry, m.Timing)
	}
	l.m = m
	clear(l.w)
	l.w, l.way[0], l.way[1], l.sorted = l.w[:0], l.way[0][:0], l.way[1][:0], [2]int{}
}

// Len reports how many requests wait.
func (l *Line[T]) Len() int { return len(l.way[0]) + len(l.way[1]) }

// Serve takes n blocks at block straight into service, past the line: it
// moves the arm to their cylinder and returns the service time. An arm
// whose cylinder is negative stands nowhere known, and reaching the
// request crosses nothing.
func (l *Line[T]) Serve(block, n int64) time.Duration {
	return l.serve(l.m.cylinderOf(block), n)
}

func (l *Line[T]) serve(cyl int, n int64) time.Duration {
	cross := 0
	if l.Arm.Cyl >= 0 {
		cross = max(cyl-l.Arm.Cyl, l.Arm.Cyl-cyl)
	}
	l.Arm.Cyl = cyl
	return l.seeks.service(cross, int(n)*l.m.BlockSize)
}

// InOrder serves, past the line, arrivals that reach it at one instant
// while nothing waits, where the line would serve them in the order they
// arrive: where waiting requests do not merge and the discipline is
// FCFS, or SCAN with the arm travelling up and no arrival on a lower
// cylinder than the one before it, the first than the arm — then every
// arrival joins the way up, in the order of its cylinder and its
// arrival, and the arm never turns. It serves each in turn, as Add and
// Next would, moves the arm to the last and returns their service time
// and true; elsewhere it serves nothing, leaves the arm where it stands
// and returns false. arrival(i) is arrival i's first block and length,
// of n.
func (l *Line[T]) InOrder(n int, arrival func(i int) (block, blocks int64)) (time.Duration, bool) {
	if l.m.MergeQueued || l.Len() > 0 || l.m.Sched != FCFS && !l.Arm.Up {
		return 0, false
	}
	arm := l.Arm
	var busy time.Duration
	for i := range n {
		block, blocks := arrival(i)
		cyl := l.m.cylinderOf(block)
		if l.m.Sched == SCAN && cyl < l.Arm.Cyl {
			l.Arm = arm
			return 0, false
		}
		busy += l.serve(cyl, blocks)
	}
	return busy, true
}

// Add queues an arrival of n blocks at block, a write or a read, that
// carries v. When the line merges, the arrival instead joins the waiting
// request of its direction that it abuts, back or front — the one queued
// first, if it abuts two — and Add returns that request's v and true.
func (l *Line[T]) Add(write bool, block, n int64, v T) (T, bool) {
	if l.m.MergeQueued {
		if d, i := l.abutting(write, block, n); i >= 0 {
			s := slot(l.way[d][i])
			e := &l.w[s]
			if block+n == e.block { // front merge: the request now starts here
				e.block, e.cyl = block, int32(l.m.cylinderOf(block))
				l.way[d] = slices.Delete(l.way[d], i, i+1)
				if i < l.sorted[d] {
					l.sorted[d]--
				}
				l.join(s)
			}
			e.n += n
			return e.v, true
		}
	}
	if len(l.w) == cap(l.w) && 2*l.Len() <= len(l.w) {
		l.compact()
	}
	l.w = append(l.w, waiting[T]{block: block, n: n, cyl: int32(l.m.cylinderOf(block)), write: write, v: v})
	l.join(len(l.w) - 1)
	var none T
	return none, false
}

// join puts slot s on the way the arm reaches it by: up if it lies past
// the arm, or on the arm's cylinder with the arm travelling up.
func (l *Line[T]) join(s int) {
	d, cyl := 1, 0
	if l.m.Sched == SCAN {
		cyl = int(l.w[s].cyl)
		if cyl < l.Arm.Cyl || cyl == l.Arm.Cyl && !l.Arm.Up {
			d = 0
		}
	}
	l.way[d] = append(l.way[d], key(d, cyl, s))
}

// Next takes the request the discipline serves next out of the line,
// moves the arm to it and returns what it carries and its service time.
// The line must not be empty.
func (l *Line[T]) Next() (T, time.Duration) {
	d := 1
	if l.m.Sched == SCAN && !l.Arm.Up {
		d = 0
	}
	if len(l.way[d]) == 0 { // nothing ahead: the arm turns
		d, l.Arm.Up = 1-d, !l.Arm.Up
	}
	l.place(d)
	top := len(l.way[d]) - 1
	e := &l.w[slot(l.way[d][top])]
	l.way[d], l.sorted[d] = l.way[d][:top], top
	v, svc := e.v, l.serve(int(e.cyl), e.n)
	var none T
	e.v, e.n = none, 0
	if l.Len() == 0 {
		l.w = l.w[:0]
	}
	return v, svc
}

// place puts the arrivals on way d since its last pick in their places.
func (l *Line[T]) place(d int) {
	s := l.way[d]
	if k := len(s) - l.sorted[d]; k == 1 { // one arrival: a search places it
		x := s[len(s)-1]
		i, _ := slices.BinarySearch(s[:len(s)-1], x)
		copy(s[i+1:], s[i:len(s)-1])
		s[i] = x
	} else if k > 1 {
		slices.Sort(s)
	}
	l.sorted[d] = len(s)
}

// abutting reports the way and place of the earliest-queued waiting
// request of direction write that n blocks at block abut, back or front;
// the place is -1 when there is none.
func (l *Line[T]) abutting(write bool, block, n int64) (int, int) {
	d, at, first := 0, -1, 0
	for w, way := range l.way {
		for i, k := range way {
			e := &l.w[slot(k)]
			if e.write == write && (e.block+e.n == block || block+n == e.block) && (at < 0 || slot(k) < first) {
				d, at, first = w, i, slot(k)
			}
		}
	}
	return d, at
}

// compact drops from w the requests that have left the line, renumbering
// the waiting ones in arrival order, so that a line that never empties
// does not grow.
func (l *Line[T]) compact() {
	var to int32
	for i := range l.w {
		if l.w[i].n > 0 {
			l.w[i].to, to = to, to+1
		}
	}
	for _, way := range l.way {
		for i, k := range way {
			way[i] = k>>32<<32 | uint64(^uint32(l.w[slot(k)].to))
		}
	}
	for i := range l.w {
		if l.w[i].n > 0 {
			l.w[l.w[i].to] = l.w[i]
		}
	}
	l.w = slices.Delete(l.w, int(to), len(l.w))
}
