package buffer

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/sim"
)

// poolBacking is a block store with service times and a switch that
// makes every write fail, for the buffer-pool tests.
type poolBacking struct {
	blockSize int
	blocks    map[int64][]byte
	failing   bool
	spans     int // write calls
	spanned   int // blocks they carried
	inline    int // write calls made by caller: evictions' write-backs and Flushes
	caller    sim.Context
}

var errDrive = errors.New("drive failed")

func (b *poolBacking) fetchSpan(ctx sim.Context, idxs []int64, sp blockio.Space) error {
	if len(idxs) != 1 {
		return fmt.Errorf("fetch of %v: a miss is one block", idxs)
	}
	ctx.Sleep(time.Millisecond)
	for i, idx := range idxs {
		dst := blockOf(sp, idxs, i)
		clear(dst)
		copy(dst, b.blocks[idx])
	}
	return nil
}

func (b *poolBacking) put(idx int64, buf []byte) {
	b.blocks[idx] = append(b.blocks[idx][:0], buf...)
}

func (b *poolBacking) flushSpan(ctx sim.Context, idxs []int64, sp blockio.Space) error {
	if ctx == b.caller {
		b.inline++
	}
	ctx.Sleep(2 * time.Millisecond)
	b.spans++
	b.spanned += len(idxs)
	if b.failing {
		return errDrive
	}
	for i, idx := range idxs {
		if i > 0 && idxs[i-1] >= idx {
			return fmt.Errorf("span %v not ascending", idxs)
		}
		b.put(idx, blockOf(sp, idxs, i))
	}
	return nil
}

func newPool(t *testing.T, capacity, cleaners int) (*Cache, *poolBacking) {
	t.Helper()
	be := &poolBacking{blockSize: 8, blocks: map[int64][]byte{}}
	c, err := NewCache(spanIO(be.fetchSpan, be.flushSpan), be.blockSize, capacity, cleaners)
	if err != nil {
		t.Fatal(err)
	}
	return c, be
}

// framesOwned counts the frames the cache owns, wherever they are.
func (c *Cache) framesOwned() int {
	return len(c.free) + len(c.entries) + c.inflight + c.behind
}

// checkPool asserts the frame accounting: resident blocks and frames in
// flight fit the capacity, and the cache owns no more than the capacity
// plus its write-behind reserve (none without cleaners).
func checkPool(t *testing.T, c *Cache) {
	t.Helper()
	reserve := 0
	if c.cleaners > 0 {
		reserve = c.behindCap
	}
	if len(c.entries)+c.inflight > c.capacity || c.inflight < 0 || c.behind < 0 || c.behind > reserve {
		t.Fatalf("%d resident + %d in flight (+ %d behind) in a cache of %d with a reserve of %d",
			len(c.entries), c.inflight, c.behind, c.capacity, reserve)
	}
	if n := c.framesOwned(); n > c.capacity+reserve {
		t.Fatalf("cache owns %d frames, capacity %d + reserve %d", n, c.capacity, reserve)
	}
	listed := 0
	for e := c.head.next; e != &c.head; e = e.next {
		if e != &c.mid {
			listed++
		}
	}
	if listed != len(c.entries) || c.nprot > c.protCap {
		t.Fatalf("%d blocks in the replacement order, %d resident; %d protected of at most %d",
			listed, len(c.entries), c.nprot, c.protCap)
	}
}

// TestCacheDifferential drives the pool from eight processes with random
// reads, writes and flushes against a map reference. fn
// runs atomically under the engine, so the reference is exact: every
// read must see it, and after the final Flush the backing store must
// equal it, with the frame accounting holding after every operation.
func TestCacheDifferential(t *testing.T) {
	const capacity, blocks, procs, ops = 12, 40, 8, 300
	for seed := uint64(1); seed <= 12; seed++ {
		for _, cleaners := range []int{0, 2} {
			c, be := newPool(t, capacity, cleaners)
			ref := map[int64]byte{}
			e := sim.NewEngine()
			for p := 0; p < procs; p++ {
				rng := sim.NewRNG(seed*1000 + uint64(p))
				zipf := sim.NewZipf(rng, blocks, 1.1)
				e.Go("p", func(p *sim.Proc) {
					for i := 0; i < ops; i++ {
						idx := int64(zipf.Next())
						var err error
						switch r := rng.Intn(20); {
						case r < 6:
							v := byte(rng.Intn(255) + 1)
							err = c.With(p, idx, true, func(buf []byte) error {
								buf[0], ref[idx] = v, v
								return nil
							})
						case r < 19:
							err = c.With(p, idx, false, func(buf []byte) error {
								if buf[0] != ref[idx] {
									return fmt.Errorf("block %d read as %d, want %d", idx, buf[0], ref[idx])
								}
								return nil
							})
						default:
							err = c.Flush(p)
						}
						if err != nil {
							t.Errorf("seed %d cleaners %d: %v", seed, cleaners, err)
							return
						}
						checkPool(t, c)
						p.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
					}
				})
			}
			e.Go("closer", func(p *sim.Proc) {
				p.Sleep(time.Hour)
				if err := c.Flush(p); err != nil {
					t.Errorf("seed %d cleaners %d: final flush: %v", seed, cleaners, err)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatalf("seed %d cleaners %d: %v", seed, cleaners, err)
			}
			checkPool(t, c)
			for idx, want := range ref {
				if got := be.blocks[idx]; len(got) == 0 || got[0] != want {
					t.Fatalf("seed %d cleaners %d: block %d on the backing store is %v, want %d", seed, cleaners, idx, got, want)
				}
			}
			if c.inflight != 0 || c.behind != 0 || len(c.busy) != 0 {
				t.Fatalf("seed %d cleaners %d: at rest with %d in flight, %d behind, %d busy", seed, cleaners, c.inflight, c.behind, len(c.busy))
			}
			if n := c.framesOwned(); n < capacity || cleaners == 0 && n != capacity {
				t.Fatalf("seed %d cleaners %d: cache allocated %d frames in its life, capacity %d", seed, cleaners, n, capacity)
			}
			if cleaners > 0 && (be.spans == 0 || be.spanned <= be.spans) {
				t.Fatalf("seed %d: %d vectored writes carried %d blocks: write-behind never batched", seed, be.spans, be.spanned)
			}
		}
	}
}

// TestCacheScanResistance: a one-pass sweep of four times the capacity
// must not evict the blocks that were hit twice before it.
func TestCacheScanResistance(t *testing.T) {
	const capacity = 16
	c, be := newPool(t, capacity, 0)
	ctx := sim.NewWall()
	touch := func(idx int64) {
		t.Helper()
		if err := c.With(ctx, idx, false, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	hot := capacity / 2
	for round := 0; round < 3; round++ { // a miss and two hits each
		for idx := 0; idx < hot; idx++ {
			touch(int64(idx))
		}
	}
	for idx := 100; idx < 100+4*capacity; idx++ {
		touch(int64(idx))
	}
	before := c.Stats()
	for idx := 0; idx < hot; idx++ {
		touch(int64(idx))
	}
	if got := c.Stats().Hits - before.Hits; got != int64(hot) {
		t.Fatalf("%d of %d hot blocks survived a sweep of %d blocks through a %d-block cache", got, hot, 4*capacity, capacity)
	}
	if be.spans != 0 {
		t.Fatalf("%d writes from a read-only workload", be.spans)
	}
}

// TestCacheWriteBehind: with a cleaner, a miss whose victim is dirty does
// not wait for the write-back — the victim is left behind, the fetch
// starts at once, and the victims left behind meanwhile leave in one
// vectored write; without a cleaner every miss pays for its victim's
// write-back first.
func TestCacheWriteBehind(t *testing.T) {
	const capacity, blocks = 16, 32 // a reserve of 4; victims arrive half as fast as a cleaner writes
	elapsed := func(cleaners int) (time.Duration, *poolBacking) {
		c, be := newPool(t, capacity, cleaners)
		e := sim.NewEngine()
		e.Go("w", func(p *sim.Proc) {
			be.caller = p
			for idx := int64(0); idx < blocks; idx++ {
				if err := c.With(p, idx, true, func(buf []byte) error { buf[0] = byte(idx + 1); return nil }); err != nil {
					t.Error(err)
				}
			}
			if err := c.Flush(p); err != nil {
				t.Error(err)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for idx := int64(0); idx < blocks; idx++ {
			if got := be.blocks[idx]; len(got) == 0 || got[0] != byte(idx+1) {
				t.Fatalf("cleaners %d: block %d on the backing store is %v", cleaners, idx, got)
			}
		}
		return e.Now(), be
	}
	sync, sb := elapsed(0)
	behind, bb := elapsed(1)
	// A 1 ms fetch per block; without a cleaner each eviction's 2 ms
	// write-back in line; one 2 ms Flush of the resident blocks either way.
	const evictions = blocks - capacity
	if want := (blocks + 2*evictions + 2) * time.Millisecond; sync != want {
		t.Fatalf("synchronous write-back took %v, want %v", sync, want)
	}
	// Each synchronous write-back is a one-block span from the evicting
	// process; the Flush writes the capacity resident blocks as one.
	if sb.inline != evictions+1 || sb.spans != evictions+1 || sb.spanned != evictions+capacity {
		t.Fatalf("synchronous: %d writes (%d inline) carrying %d blocks, want %d one-block write-backs and the Flush of %d",
			sb.spans, sb.inline, sb.spanned, evictions, capacity)
	}
	if bb.inline != 1 {
		t.Fatalf("write-behind: %d writes outside the cleaners, want only the Flush (the reserve never filled)", bb.inline)
	}
	if want := (blocks + 2 + 2) * time.Millisecond; behind > want {
		t.Fatalf("write-behind took %v, want at most %v (the fetches, then the last batch and the Flush)", behind, want)
	}
	if bb.spanned != blocks || bb.spans >= blocks {
		t.Fatalf("write-behind wrote %d blocks in %d vectored writes, want %d in fewer", bb.spanned, bb.spans, blocks)
	}
}

// TestCacheBackgroundWriteFails: a drive failing under the cleaner loses
// nothing and hides nothing. The failed blocks go back into the cache
// dirty, every Flush until the drive is repaired returns the error, the
// misses that meanwhile have to write a victim back themselves return
// it too, no process is left parked, and after the repair a Flush
// brings the backing store to the reference.
func TestCacheBackgroundWriteFails(t *testing.T) {
	c, be := newPool(t, 4, 1)
	ref := map[int64]byte{}
	write := func(p *sim.Proc, idx int64) error {
		return c.With(p, idx, true, func(buf []byte) error {
			buf[0] = byte(idx + 1)
			ref[idx] = buf[0]
			return nil
		})
	}
	var missErrs, flushErrs int
	e := sim.NewEngine()
	e.Go("w", func(p *sim.Proc) {
		for idx := int64(0); idx < 4; idx++ {
			if err := write(p, idx); err != nil {
				t.Error(err)
			}
		}
		be.failing = true
		// The first dirty victims are left behind and fail in the
		// background; later misses write back themselves and see it.
		for idx := int64(4); idx < 12; idx++ {
			if err := write(p, idx); err != nil {
				if !errors.Is(err, errDrive) {
					t.Errorf("miss on block %d: %v", idx, err)
				}
				missErrs++
			}
		}
		for i := 0; i < 2; i++ {
			if err := c.Flush(p); errors.Is(err, errDrive) {
				flushErrs++
			} else {
				t.Errorf("flush %d with the drive failed: %v", i, err)
			}
		}
		be.failing = false
		if err := c.Flush(p); err != nil {
			t.Errorf("flush after the repair: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if missErrs == 0 || flushErrs != 2 {
		t.Fatalf("%d misses and %d of 2 flushes reported the failed drive", missErrs, flushErrs)
	}
	if c.behind != 0 || c.inflight != 0 || len(c.busy) != 0 {
		t.Fatalf("at rest with %d behind, %d in flight, %d busy", c.behind, c.inflight, len(c.busy))
	}
	// Blocks whose synchronous write-back failed were dropped with the
	// error their accessor got, as before; everything else must be there.
	lost := 0
	for idx, want := range ref {
		if got := be.blocks[idx]; len(got) == 0 || got[0] != want {
			lost++
		}
	}
	if lost > missErrs {
		t.Fatalf("%d blocks missing from the backing store, only %d write-backs reported an error", lost, missErrs)
	}
}

// TestCacheAbandonedLeavesNoProcess: a cache with write-behind that is
// never flushed or closed — its handle dropped mid-run — must let the
// engine finish: cleaners retire instead of parking for work.
func TestCacheAbandonedLeavesNoProcess(t *testing.T) {
	c, be := newPool(t, 4, 2)
	e := sim.NewEngine()
	for p := 0; p < 3; p++ {
		base := int64(p * 100)
		e.Go("w", func(p *sim.Proc) {
			for idx := base; idx < base+20; idx++ {
				if err := c.With(p, idx, true, func(buf []byte) error { buf[0] = 1; return nil }); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if c.cleaning != 0 || c.behind != 0 {
		t.Fatalf("%d cleaners still at work on %d blocks after the run", c.cleaning, c.behind)
	}
	if be.spanned != 60-len(c.entries) {
		t.Fatalf("%d blocks written back, %d evicted dirty", be.spanned, 60-len(c.entries))
	}
}
