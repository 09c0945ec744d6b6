// Transform: the optional third stage of the transfer pipeline (describe
// → map → transform → issue). Data sieving: noncontiguous access as one
// contiguous covering span per device, in the style of ROMIO's
// optimization of noncontiguous MPI-IO requests (Thakur/Gropp/Lusk) —
// where sieving is a transform of the flattened request list, not another
// way in.
//
// The vectored strategy issues one device request per physically
// contiguous gather run, which is optimal when runs are long but pays the
// full per-request cost (overhead + seek + rotational latency) for every
// hole in the access pattern. When the pattern is dense — many small
// pieces separated by small holes — it is cheaper to move the holes too:
// sieveRuns turns each device's mapped runs into ONE covering run from
// the first to the last requested block, whose gaps are hole segments.
// The issue loop binds holes to pooled scratch: a sieved read scatters
// the requested pieces into the caller's buffer and the unwanted blocks
// into the scratch; a sieved write reads the covering span into the
// scratch, then writes the span back gathering the caller's pieces over
// it (read-modify-write), two requests per device however fragmented the
// pattern.
//
// The write-back makes concurrent writers dangerous: a span's holes may
// be another writer's data, so writing back a stale hole loses that
// writer's update. Each Set therefore serializes sieved writes per device
// through a lazily created sim.Mutex (strict-alternation discipline, like
// stripe.Parity's row locks): the whole read-modify-write of one device
// is atomic, every branch of the cross-device sim.ParN holds at most one
// device lock (no ordering to violate, hence no deadlock), and concurrent
// sieved writers with disjoint block sets land exactly their own bytes
// whatever order the engine schedules them in. Writers that bypass the
// sieve (the vectored strategy) are not protected — concurrent writers to
// one device must either touch disjoint spans or all go through the
// sieve, which is how the collective layer's strategy routing uses it.

package blockio

import (
	"slices"
	"sync"

	"repro/internal/sim"
)

// sieveSpan is one device's covering span for a sieved transfer: the
// Blocks physically contiguous blocks starting at PBlock (extent
// relative) cover every gather run of the descriptor on Dev; Useful of
// them were actually requested, the rest are holes moved only to make
// the span one device request.
type sieveSpan struct {
	Dev    int
	PBlock int64
	Blocks int64
	Useful int64
	Runs   []Run // the device's gather runs inside the span, ascending
}

// sieveSpans appends to dst the covering span of every device of mapped
// gather runs (sorted by device, physical block — the mapper's order),
// one per device.
func sieveSpans(dst []sieveSpan, runs []Run) []sieveSpan {
	for i := 0; i < len(runs); {
		j := deviceEnd(runs, i)
		sp := sieveSpan{
			Dev:    runs[i].Dev,
			PBlock: runs[i].PBlock,
			Blocks: runs[j-1].PBlock + runs[j-1].N - runs[i].PBlock,
			Runs:   runs[i:j],
		}
		for _, r := range sp.Runs {
			sp.Useful += r.N
		}
		dst = append(dst, sp)
		i = j
	}
	return dst
}

// deviceEnd reports where the stretch of runs on runs[i]'s device ends:
// runs[i:deviceEnd] are one device's gather runs, which sieving covers
// with one span from the first's first block to the last's last.
func deviceEnd(runs []Run, i int) int {
	j := i + 1
	for j < len(runs) && runs[j].Dev == runs[i].Dev {
		j++
	}
	return j
}

// sieveScratch is the memory a sieved transfer's covering runs are built
// in (sieveRuns): the spans, the covers and their segment lists. It is
// pooled and held until the issue returns, so a sieved transfer builds
// its covers without allocating.
type sieveScratch struct {
	spans  []sieveSpan
	covers []Run
	segs   []Seg
}

var coverPool = sync.Pool{New: func() any { return new(sieveScratch) }}

// sieveRuns is the sieving transform: each device's gather runs become
// one covering run — the device's span, first requested block to last —
// whose Segs are the runs' own with a hole segment for every gap between
// them. A device with a single run keeps it as it is. The covers and
// their segments live in sc, until its next sieveRuns.
func (sc *sieveScratch) sieveRuns(runs []Run) []Run {
	sc.spans = sieveSpans(sc.spans[:0], runs)
	nseg := 0
	for _, sp := range sc.spans {
		if len(sp.Runs) > 1 {
			nseg += len(sp.Runs) - 1 // the holes
			for _, r := range sp.Runs {
				nseg += len(r.Segs)
			}
		}
	}
	// Grown once, so no cover's segments move as the next are appended.
	sc.covers, sc.segs = sc.covers[:0], slices.Grow(sc.segs[:0], nseg)
	for _, sp := range sc.spans {
		if len(sp.Runs) == 1 {
			sc.covers = append(sc.covers, sp.Runs[0])
			continue
		}
		s0 := len(sc.segs)
		pos := sp.PBlock
		for _, r := range sp.Runs {
			if r.PBlock > pos {
				sc.segs = append(sc.segs, Seg{BufOff: hole, Blocks: r.PBlock - pos})
			}
			sc.segs = append(sc.segs, r.Segs...)
			pos = r.PBlock + r.N
		}
		segs := sc.segs[s0:len(sc.segs):len(sc.segs)]
		sc.covers = append(sc.covers, Run{Dev: sp.Dev, PBlock: sp.PBlock, B: sp.Runs[0].B, N: sp.Blocks, Segs: segs})
	}
	return sc.covers
}

// release drops every reference to the transfer's runs, readying sc for
// the pool.
func (sc *sieveScratch) release() {
	clear(sc.spans)
	clear(sc.covers)
	sc.spans, sc.covers = sc.spans[:0], sc.covers[:0]
}

// lockSieve serializes sieved writes on device dev (engine contexts
// only — without an engine there is no concurrency to guard). The
// returned function unlocks.
func (s *Set) lockSieve(ctx sim.Context, dev int) func() {
	pr, ok := ctx.(*sim.Proc)
	if !ok {
		return func() {}
	}
	if s.sieveLocks == nil {
		s.sieveLocks = make(map[int]*sim.Mutex)
	}
	mu := s.sieveLocks[dev]
	if mu == nil {
		mu = &sim.Mutex{}
		s.sieveLocks[dev] = mu
	}
	mu.Lock(pr)
	return func() { mu.Unlock(pr) }
}

// sievedWrite issues the sieved write of the covering runs bound in x.
// A run's read-modify-write parks between its read and its write, so
// each run has a process of its own (sim.ParN, run 0 on the caller).
func (s *Set) sievedWrite(ctx sim.Context, x *xfer) error {
	if x.rmw == nil {
		x.rmw = x.rmwRun
	}
	x.set = s
	return sim.ParN(ctx, len(x.bound), x.rmw)
}

// rmwRun is the read-modify-write of covering run i under its device's
// sieve lock. The covering read goes out through the issue loop like any
// transfer, filling the scratch span the run's hole segments are bound
// to; the write then gathers the requested pieces straight from the
// caller's buffer and the holes from the freshly read scratch. A run
// with no holes skips the read but still takes the lock, so a hole-free
// writer can never slip inside another writer's read-modify-write
// window.
func (x *xfer) rmwRun(ctx sim.Context, i int) error {
	s, r := x.set, x.bound[i]
	unlock := s.lockSieve(ctx, r.Dev)
	defer unlock()
	if hp := x.scratch[i]; hp != nil {
		span := []Run{{Dev: r.Dev, PBlock: r.PBlock, N: int64(r.N)}}
		if err := issue(ctx, s.store, "SieveRead", false, span, Space{{Buf: *hp}}, nil); err != nil {
			return err
		}
	}
	return s.store.Transfer(ctx, true, x.bound[i:i+1])
}
