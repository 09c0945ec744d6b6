package buffer

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/blockio"
	"repro/internal/sim"
)

// SpanIO moves the len(idxs) blocks listed in idxs between the backing
// store and the buffer space sp, the i-th at space offset i×blockSize —
// in the cache's frames, one piece each, so the drives scatter straight
// into them and gather straight out of them. A read (write false) is a
// miss's fetch: the cache fetches nothing else, so idxs then holds one
// index. A write is a write-back: the indices are ascending and distinct,
// and a vectored backend (blockio.Set.Transfer) turns them into one
// gather request per physical run, issued in parallel across drives; an
// eviction's write-back is the one-index list.
type SpanIO func(ctx sim.Context, write bool, idxs []int64, sp blockio.Space) error

// CacheStats counts cache outcomes.
type CacheStats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	WriteBacks int64
}

// HitRate reports hits / (hits+misses), zero when empty.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// entry is one frame of the pool and, while a block occupies it, that
// block's place in the replacement order. wq parks the accessors of a
// block that is busy (being fetched or written); it lives in the entry so
// that marking a block busy allocates nothing.
type entry struct {
	idx        int64
	buf        []byte
	dirty      bool
	protected  bool
	prev, next *entry
	wq         sim.WaitQueue
}

func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (e *entry) insertAfter(at *entry) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}

// batch is the scratch of one transfer: the entries it moves, their
// block indices and the buffer space their frames make.
type batch struct {
	ents []*entry
	idxs []int64
	sp   blockio.Space
}

// byBlock orders entries by block index.
func byBlock(x, y *entry) int { return cmp.Compare(x.idx, y.idx) }

// span returns what a span hook takes: the entries' block indices and the
// space whose i-th block is the i-th entry's frame.
func (b *batch) span(blockSize int) (idxs []int64, sp blockio.Space) {
	b.idxs, b.sp = b.idxs[:0], b.sp[:0]
	for i, e := range b.ents {
		b.idxs = append(b.idxs, e.idx)
		b.sp = append(b.sp, blockio.Piece{Off: int64(i * blockSize), Buf: e.buf})
	}
	return b.idxs, b.sp
}

// Cache is a write-back buffer pool keyed by block index: capacity frames
// for resident blocks and fetches in flight, allocated on first use and
// recycled for the life of the cache.
//
// Replacement is a segmented LRU. A faulted block enters the probationary
// segment; a hit promotes it to the protected segment (¾ of the
// capacity), whose overflow falls back to the probationary segment's
// recent end. Victims come from the probationary segment's old end, so
// blocks touched once — a scan, the tail of a skewed distribution — pass
// through without displacing the blocks that are hit again.
//
// Write-back is deferred when the cache has cleaners (NewCache) and runs
// under an engine: an eviction whose victim is dirty leaves the
// victim, frame and all, with a cleaner — a dedicated I/O process that
// writes the victims handed over so far, sorted by block index, with one
// vectored request, frees their frames and retires — and the evicting
// process goes on to its fetch in a frame from the write-behind reserve
// (another ¼ of the capacity, allocated as it is first needed). A block
// left behind is not resident: its accessors wait for the write to land
// and fault it in again. When the reserve is all waiting to be written,
// when there are no cleaners or no engine, or after a cleaner's write has
// failed, the evicting process writes its victim back itself before it
// takes the frame, as a cache without write-behind does.
//
// Under an engine concurrent accessors coalesce misses per block; without
// one the cache must be used from a single goroutine.
type Cache struct {
	io        SpanIO
	cleaners  int // write-behind processes allowed at once
	blockSize int
	capacity  int
	protCap   int // protected segment's share of capacity
	behindCap int // write-behind reserve's share of capacity

	entries map[int64]*entry // resident blocks
	busy    map[int64]*entry // blocks with a fetch or a write in flight, resident or not
	// The replacement order is one ring through both segments: head, the
	// protected segment from most to least recent, mid, the probationary
	// segment from most to least recent, and back to head. head.prev is
	// the coldest block.
	head, mid entry
	nprot     int // blocks in the protected segment

	// Every frame is in exactly one place: on the free list, resident, in
	// flight (held by a fetch or by an eviction writing its victim back)
	// or behind (an evicted dirty block a cleaner has yet to write).
	// Resident and in-flight frames together never exceed capacity.
	free      []*entry
	inflight  int
	behind    int
	frameWait sim.WaitQueue // accessors that found every frame in flight

	pending  *batch          // victims handed over since a cleaner last took a batch
	cleaning int             // cleaners at work
	drained  sim.WaitQueue   // Flush, waiting for behind to reach zero
	batches  []*batch        // idle scratch
	cleanFn  func(*sim.Proc) // c.clean, bound once
	bgErrs   []error         // cleaners' write errors, reported by the next Flush

	stats CacheStats
}

// The protected segment's and the write-behind reserve's shares of
// capacity. Constants, because little depends on them: the org_scan
// benchmark's modeled time stays within 0.4 % for a protected share of
// ¾–⅞ and a reserve of ⅛–½ (a protected share of ⅝ costs 1.5 %).
const (
	protectedNum, protectedDen = 3, 4
	behindDen                  = 4
)

// NewCache builds a cache of capacity blocks that fetches and writes
// blocks through io, with up to `cleaners` write-behind processes writing
// the dirty victims evictions leave behind (0 keeps eviction's write-back
// synchronous).
func NewCache(io SpanIO, blockSize, capacity, cleaners int) (*Cache, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("buffer: block size %d", blockSize)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: cache capacity %d", capacity)
	}
	c := &Cache{
		io:        io,
		cleaners:  max(cleaners, 0),
		blockSize: blockSize,
		capacity:  capacity,
		protCap:   capacity * protectedNum / protectedDen,
		behindCap: max(1, capacity/behindDen),
		entries:   make(map[int64]*entry),
		busy:      make(map[int64]*entry),
	}
	c.head.prev, c.head.next = &c.head, &c.head
	c.mid.insertAfter(&c.head)
	c.cleanFn = c.clean
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// promote records a reference to resident entry e: it becomes the most
// recent block of the protected segment, whose least recent block falls
// back to the probationary segment when the segment is over its share.
func (c *Cache) promote(e *entry) {
	e.unlink()
	e.insertAfter(&c.head)
	if e.protected {
		return
	}
	e.protected = true
	if c.nprot++; c.nprot > c.protCap {
		d := c.mid.prev
		d.unlink()
		d.insertAfter(&c.mid)
		d.protected = false
		c.nprot--
	}
}

// insert makes the block in e resident, on probation.
func (c *Cache) insert(e *entry) {
	e.protected = false
	e.insertAfter(&c.mid)
	c.entries[e.idx] = e
}

// admit makes the block fetched into in-flight frame e resident.
func (c *Cache) admit(ctx sim.Context, e *entry) {
	c.insert(e)
	c.inflight--
	c.wakeFrameWaiters(ctx)
}

// release returns e's frame to the free list.
func (c *Cache) release(ctx sim.Context, e *entry) {
	c.free = append(c.free, e)
	c.inflight--
	c.wakeFrameWaiters(ctx)
}

// wakeFrameWaiters resumes the accessors that found every frame in
// flight: one has just landed.
func (c *Cache) wakeFrameWaiters(ctx sim.Context) {
	if p, ok := ctx.(*sim.Proc); ok && c.frameWait.Len() > 0 {
		c.frameWait.WakeAll(p.Engine())
	}
}

// waitNotBusy parks until no fetch/write-back is in flight for idx.
func (c *Cache) waitNotBusy(ctx sim.Context, idx int64) {
	p, ok := ctx.(*sim.Proc)
	if !ok {
		return
	}
	for {
		e := c.busy[idx]
		if e == nil {
			return
		}
		e.wq.Wait(p)
	}
}

// setBusy marks block idx in flight in e's frame.
func (c *Cache) setBusy(idx int64, e *entry) {
	e.idx = idx
	c.busy[idx] = e
}

// clearBusy releases waiters for idx.
func (c *Cache) clearBusy(ctx sim.Context, idx int64) {
	e := c.busy[idx]
	delete(c.busy, idx)
	if p, ok := ctx.(*sim.Proc); ok {
		e.wq.WakeAll(p.Engine())
	}
}

func (c *Cache) getBatch() *batch {
	if n := len(c.batches); n > 0 {
		b := c.batches[n-1]
		c.batches = c.batches[:n-1]
		return b
	}
	return &batch{}
}

func (c *Cache) putBatch(b *batch) {
	clear(b.ents)
	clear(b.sp)
	b.ents, b.sp = b.ents[:0], b.sp[:0]
	c.batches = append(c.batches, b)
}

// one moves block e.idx between its frame and the backing store — into
// the frame, or with write out of it — as the one-index span, its lists
// taken from the batch scratch.
func (c *Cache) one(ctx sim.Context, write bool, e *entry) error {
	b := c.getBatch()
	b.ents = append(b.ents, e)
	idxs, sp := b.span(c.blockSize)
	err := c.io(ctx, write, idxs, sp)
	c.putBatch(b)
	return err
}

// frame returns a frame, in flight, for a block about to be fetched,
// evicting while the cache is full. It may park — in a victim's
// write-back, or behind a Flush that holds the coldest blocks — so the
// caller re-examines the cache before using the frame, and releases it if
// the block has arrived meanwhile. When every frame is in flight there is
// nothing to evict: frame waits for one to land.
func (c *Cache) frame(ctx sim.Context) (*entry, error) {
	for {
		if len(c.entries)+c.inflight < c.capacity {
			c.inflight++
			if n := len(c.free); n > 0 {
				e := c.free[n-1]
				c.free = c.free[:n-1]
				return e, nil
			}
			// Frames in use are at most capacity plus the reserve, so
			// that is all the cache ever allocates.
			return &entry{buf: make([]byte, c.blockSize)}, nil
		}
		if len(c.entries) == 0 {
			p, ok := ctx.(*sim.Proc)
			if !ok {
				return nil, fmt.Errorf("buffer: all %d frames in flight outside an engine", c.capacity)
			}
			c.frameWait.Wait(p)
			continue
		}
		if e, err := c.evictOne(ctx); e != nil || err != nil {
			return e, err
		}
	}
}

// evictOne evicts the coldest resident block that nothing holds. A clean
// victim's frame is returned, in flight. A dirty victim goes behind — to
// a cleaner, frame and all — while the write-behind reserve has room, and
// evictOne returns nil: its caller now finds the cache one short of full.
// Otherwise the victim is written back here first.
//
// A block under Flush is not a victim: Flush still holds its frame, and
// eviction's busy marker would replace the one the block's accessors are
// parked on. When Flush holds every resident block, evictOne waits for
// the coldest to come back and returns nil; its caller tries again.
func (c *Cache) evictOne(ctx sim.Context) (*entry, error) {
	var victim, held *entry
	for e := c.head.prev; e != &c.head && victim == nil; e = e.prev {
		switch {
		case e == &c.mid:
		case c.busy[e.idx] == nil:
			victim = e
		case held == nil:
			held = e
		}
	}
	if victim == nil {
		c.waitNotBusy(ctx, held.idx)
		return nil, nil
	}
	victim.unlink()
	if victim.protected {
		c.nprot--
	}
	delete(c.entries, victim.idx)
	c.stats.Evictions++
	if !victim.dirty {
		c.inflight++
		return victim, nil
	}
	c.setBusy(victim.idx, victim)
	if p, ok := ctx.(*sim.Proc); ok && c.cleaners > 0 && c.behind < c.behindCap && len(c.bgErrs) == 0 {
		c.leaveBehind(p, victim)
		return nil, nil
	}
	c.inflight++
	c.stats.WriteBacks++
	err := c.one(ctx, true, victim)
	c.clearBusy(ctx, victim.idx)
	if err != nil {
		c.release(ctx, victim)
		return nil, fmt.Errorf("buffer: write back block %d: %w", victim.idx, err)
	}
	return victim, nil
}

// leaveBehind hands evicted dirty block e, marked busy, to the cleaners,
// starting one if fewer than allowed are at work. Like SeqReader's
// prefetchers, a cleaner never parks waiting for work: it writes what
// has been left behind by the time it runs, batch after batch, and
// retires when there is nothing left; the next victim left behind starts
// its successor. A cache abandoned at any point therefore leaves no
// process for the engine to call a deadlock.
func (c *Cache) leaveBehind(p *sim.Proc, e *entry) {
	if c.pending == nil {
		c.pending = c.getBatch()
	}
	c.pending.ents = append(c.pending.ents, e)
	c.behind++
	if c.cleaning < c.cleaners {
		c.cleaning++
		p.Engine().Go("cache-cleaner", c.cleanFn)
	}
}

// clean is the body of a cleaner. A failed write is reported by the next
// Flush, and its blocks go back into the cache, dirty, for that Flush to
// try again: the cache is over capacity until evictions catch up.
func (c *Cache) clean(p *sim.Proc) {
	for c.pending != nil {
		job := c.pending
		c.pending = nil
		slices.SortFunc(job.ents, byBlock)
		if err := c.writeSpan(p, job); err != nil {
			c.bgErrs = append(c.bgErrs, err)
		}
		for _, e := range job.ents {
			c.clearBusy(p, e.idx)
			if e.dirty {
				c.insert(e)
			} else {
				c.free = append(c.free, e)
			}
		}
		c.behind -= len(job.ents)
		c.putBatch(job)
		if c.behind == 0 {
			c.drained.WakeAll(p.Engine())
		}
	}
	c.cleaning--
}

// writeSpan writes b's blocks — dirty, marked busy by the caller,
// ascending — with one SpanIO write and marks them clean.
func (c *Cache) writeSpan(ctx sim.Context, b *batch) error {
	if len(b.ents) == 0 {
		return nil
	}
	c.stats.WriteBacks += int64(len(b.ents))
	idxs, sp := b.span(c.blockSize)
	if err := c.io(ctx, true, idxs, sp); err != nil {
		return fmt.Errorf("buffer: write back %d blocks: %w", len(b.ents), err)
	}
	for _, e := range b.ents {
		e.dirty = false
	}
	return nil
}

// With runs fn on the cached contents of block idx, faulting it in if
// needed; dirty marks the block modified (write-back on eviction or
// Flush). fn must not block: it runs while the cache entry is unpinned.
func (c *Cache) With(ctx sim.Context, idx int64, dirty bool, fn func(buf []byte) error) error {
	for {
		c.waitNotBusy(ctx, idx)
		if e, ok := c.entries[idx]; ok {
			c.stats.Hits++
			c.promote(e)
			e.dirty = e.dirty || dirty
			return fn(e.buf)
		}
		// Miss: take a frame, then fetch. Both park, so re-check residency
		// in between (another process may have raced us to the block).
		e, err := c.frame(ctx)
		if err != nil {
			return err
		}
		if _, ok := c.entries[idx]; ok || c.busy[idx] != nil {
			c.release(ctx, e)
			continue
		}
		c.stats.Misses++
		c.setBusy(idx, e)
		err = c.one(ctx, false, e)
		c.clearBusy(ctx, idx)
		if err != nil {
			c.release(ctx, e)
			return fmt.Errorf("buffer: fetch block %d: %w", idx, err)
		}
		e.dirty = dirty
		c.admit(ctx, e)
		return fn(e.buf)
	}
}

// Flush writes back all dirty entries (they stay resident, clean) with
// one vectored write in ascending block order, waits for the cleaners to
// finish what was left behind, and reports, joined with its own, the
// errors of their writes since the last Flush.
func (c *Cache) Flush(ctx sim.Context) error {
	b := c.getBatch()
	b.idxs = b.idxs[:0]
	for idx, e := range c.entries {
		if e.dirty {
			b.idxs = append(b.idxs, idx)
		}
	}
	slices.Sort(b.idxs)
	// Claim them in order, each once no other Flush holds it; a block
	// evicted or cleaned during those waits drops out.
	for _, idx := range b.idxs {
		c.waitNotBusy(ctx, idx)
		if e, ok := c.entries[idx]; ok && e.dirty {
			c.setBusy(idx, e)
			b.ents = append(b.ents, e)
		}
	}
	err := c.writeSpan(ctx, b)
	for _, e := range b.ents {
		c.clearBusy(ctx, e.idx)
	}
	c.putBatch(b)
	for c.behind > 0 {
		p, ok := ctx.(*sim.Proc)
		if !ok {
			return errors.Join(err, fmt.Errorf("buffer: flush outside the engine with %d blocks left behind", c.behind))
		}
		c.drained.Wait(p)
	}
	errs := append(c.bgErrs, err)
	c.bgErrs = nil
	return errors.Join(errs...)
}
