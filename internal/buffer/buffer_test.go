package buffer

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/sim"
)

// spaceEnd is the space offset one past sp's last piece.
func spaceEnd(sp blockio.Space) int64 {
	if len(sp) == 0 {
		return 0
	}
	return sp[len(sp)-1].Off + int64(len(sp[len(sp)-1].Buf))
}

// spaceAt returns the n space bytes at off, which one piece must hold.
func spaceAt(sp blockio.Space, off, n int64) []byte {
	for _, pc := range sp {
		if off >= pc.Off && off+n <= pc.Off+int64(len(pc.Buf)) {
			return pc.Buf[off-pc.Off : off-pc.Off+n]
		}
	}
	panic("buffer test: space bytes not in one piece")
}

// runHook is a stream hook written over one contiguous buffer; runIn and
// runOut adapt one to the buffer space a stream hands its RunIO, a
// reader's and a writer's. A one-piece space is passed as it is, so the
// hook sees the frame itself; a batch's pieces are staged through one
// buffer, scattered into after the hook has filled it (in) or gathered
// before (out).
type runHook = func(ctx sim.Context, first int64, n int, buf []byte) error

func runIn(fn runHook) RunIO {
	return func(ctx sim.Context, first int64, n int, sp blockio.Space) error {
		if len(sp) == 1 && sp[0].Off == 0 {
			return fn(ctx, first, n, sp[0].Buf)
		}
		buf := make([]byte, spaceEnd(sp))
		err := fn(ctx, first, n, buf)
		for _, pc := range sp {
			copy(pc.Buf, buf[pc.Off:])
		}
		return err
	}
}

func runOut(fn runHook) RunIO {
	return func(ctx sim.Context, first int64, n int, sp blockio.Space) error {
		if len(sp) == 1 && sp[0].Off == 0 {
			return fn(ctx, first, n, sp[0].Buf)
		}
		buf := make([]byte, spaceEnd(sp))
		for _, pc := range sp {
			copy(buf[pc.Off:], pc.Buf)
		}
		return fn(ctx, first, n, buf)
	}
}

// memFetch serves blocks whose every byte is the block index, charging
// cost of virtual time per fetch.
func memFetch(cost time.Duration) RunIO {
	return runIn(func(ctx sim.Context, first int64, n int, buf []byte) error {
		ctx.Sleep(cost)
		bs := len(buf) / n
		for i := range buf {
			buf[i] = byte(first + int64(i/bs))
		}
		return nil
	})
}

// spanHook is one direction of a cache's SpanIO; spanIO joins a read
// hook and a write hook into one.
type spanHook = func(ctx sim.Context, idxs []int64, sp blockio.Space) error

func spanIO(fetch, flush spanHook) SpanIO {
	return func(ctx sim.Context, write bool, idxs []int64, sp blockio.Space) error {
		if write {
			return flush(ctx, idxs, sp)
		}
		return fetch(ctx, idxs, sp)
	}
}

// memSpan is memFetch as a cache's read hook.
func memSpan(cost time.Duration) spanHook {
	return func(ctx sim.Context, idxs []int64, sp blockio.Space) error {
		ctx.Sleep(cost)
		for i, idx := range idxs {
			blk := blockOf(sp, idxs, i)
			for k := range blk {
				blk[k] = byte(idx)
			}
		}
		return nil
	}
}

func TestSeqReaderValidation(t *testing.T) {
	f := memFetch(0)
	if _, err := NewSeqReader(f, 0, 1, 1, 1, 1); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := NewSeqReader(f, 8, 1, 1, 0, 1); err == nil {
		t.Fatal("zero buffers accepted")
	}
	if _, err := NewSeqReader(f, 8, 1, 1, 1, -1); err == nil {
		t.Fatal("negative readers accepted")
	}
}

// TestSeqReaderExtentSizedToStream: the extent reader's pool follows the
// stream, not just the options. A 3-block file opened with 32-block
// extents and 4 buffers used to allocate 4 × 32 blocks of buffer; it
// needs one buffer of 3. A longer stream keeps full extents but no more
// buffers than it has extents. Either way the stream reads back whole,
// synchronously and under prefetch processes.
func TestSeqReaderExtentSizedToStream(t *testing.T) {
	const bs = 16
	cases := []struct {
		total           int64
		extent, nbufs   int
		wantBufs, wantN int // pool: buffers × blocks each
	}{
		{3, 32, 4, 1, 3},
		{40, 32, 4, 2, 32},
		{200, 32, 4, 4, 32},
		{0, 32, 4, 1, 32},
	}
	for _, tc := range cases {
		fetch := runIn(func(ctx sim.Context, first int64, n int, buf []byte) error {
			ctx.Sleep(time.Millisecond)
			for i := range buf {
				buf[i] = byte(first) + byte(i/bs)
			}
			return nil
		})
		for _, engine := range []bool{false, true} {
			r, err := NewSeqReader(fetch, bs, tc.total, tc.extent, tc.nbufs, 2)
			if err != nil {
				t.Fatal(err)
			}
			var pool int
			for _, b := range r.free {
				pool += len(b)
			}
			if len(r.free) != tc.wantBufs || pool != tc.wantBufs*tc.wantN*bs {
				t.Errorf("total %d: pool is %d buffers, %d bytes; want %d buffers of %d blocks",
					tc.total, len(r.free), pool, tc.wantBufs, tc.wantN)
			}
			read := func(ctx sim.Context) {
				var next int64
				for {
					buf, e, err := r.Next(ctx)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Error(err)
						return
					}
					lo := e * int64(tc.extent)
					for k := lo; k < min(lo+int64(tc.extent), tc.total); k++ {
						if k != next || buf[(k-lo)*bs] != byte(k) {
							t.Errorf("total %d engine %v: block %d arrived as %d tagged %d", tc.total, engine, next, k, buf[(k-lo)*bs])
							return
						}
						next++
					}
					r.Release(ctx, buf)
				}
				if next != tc.total {
					t.Errorf("total %d engine %v: read %d blocks", tc.total, engine, next)
				}
				r.Close(ctx)
			}
			if !engine {
				read(sim.NewWall())
				continue
			}
			e := sim.NewEngine()
			e.Go("consumer", func(p *sim.Proc) { read(p) })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSeqReaderSynchronousOrder(t *testing.T) {
	r, err := NewSeqReader(memFetch(0), 8, 5, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	for want := int64(0); want < 5; want++ {
		buf, idx, err := r.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if idx != want || buf[0] != byte(want) {
			t.Fatalf("got block %d (first byte %d), want %d", idx, buf[0], want)
		}
		r.Release(ctx, buf)
	}
	if _, _, err := r.Next(ctx); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestSeqReaderEngineOrderAndData(t *testing.T) {
	e := sim.NewEngine()
	r, err := NewSeqReader(memFetch(time.Millisecond), 8, 20, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	e.Go("consumer", func(p *sim.Proc) {
		defer r.Close(p)
		for {
			buf, idx, err := r.Next(p)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			if buf[0] != byte(idx) {
				t.Errorf("block %d has byte %d", idx, buf[0])
			}
			got = append(got, idx)
			r.Release(p, buf)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("consumed %d blocks", len(got))
	}
	for i, idx := range got {
		if idx != int64(i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestSeqReaderOverlapsComputeWithIO(t *testing.T) {
	// With 1 buffer, fetch (1ms) and compute (1ms) serialize: ~2ms/block.
	// With 2+ buffers and a prefetcher, they overlap: ~1ms/block.
	run := func(nbufs, readers int) time.Duration {
		e := sim.NewEngine()
		r, err := NewSeqReader(memFetch(time.Millisecond), 8, 10, 1, nbufs, readers)
		if err != nil {
			t.Fatal(err)
		}
		var end time.Duration
		e.Go("consumer", func(p *sim.Proc) {
			defer r.Close(p)
			for {
				buf, _, err := r.Next(p)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Error(err)
					break
				}
				p.Sleep(time.Millisecond) // compute on the block
				r.Release(p, buf)
			}
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	single := run(1, 1)
	double := run(2, 1)
	if single < 19*time.Millisecond {
		t.Fatalf("single buffering finished too fast: %v", single)
	}
	if double >= single {
		t.Fatalf("double buffering %v not faster than single %v", double, single)
	}
	if double > 12*time.Millisecond {
		t.Fatalf("double buffering failed to overlap: %v", double)
	}
}

func TestSeqReaderMultipleConsumers(t *testing.T) {
	// Two consumers share the stream; every block is delivered exactly once.
	e := sim.NewEngine()
	r, err := NewSeqReader(memFetch(time.Millisecond), 8, 30, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int)
	var done sim.Group
	consume := func(p *sim.Proc) {
		for {
			buf, idx, err := r.Next(p)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			seen[idx]++
			p.Sleep(time.Millisecond)
			r.Release(p, buf)
		}
	}
	for i := 0; i < 2; i++ {
		done.Spawn(e, "consumer", consume)
	}
	e.Go("closer", func(p *sim.Proc) {
		done.Wait(p)
		r.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 30 {
		t.Fatalf("delivered %d distinct blocks, want 30", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("block %d delivered %d times", idx, n)
		}
	}
}

func TestSeqReaderFetchError(t *testing.T) {
	boom := errors.New("boom")
	f := runIn(func(ctx sim.Context, idx int64, _ int, buf []byte) error {
		if idx == 3 {
			return boom
		}
		return nil
	})
	e := sim.NewEngine()
	r, err := NewSeqReader(f, 8, 5, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	e.Go("consumer", func(p *sim.Proc) {
		defer r.Close(p)
		for {
			buf, _, err := r.Next(p)
			if err == io.EOF {
				return
			}
			if err != nil {
				sawErr = err
				return
			}
			r.Release(p, buf)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sawErr, boom) {
		t.Fatalf("want boom, got %v", sawErr)
	}
}

func TestSeqReaderCloseUnblocksPrefetchers(t *testing.T) {
	// Consumer abandons the stream early; Run must not deadlock.
	e := sim.NewEngine()
	r, err := NewSeqReader(memFetch(time.Millisecond), 8, 100, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	e.Go("consumer", func(p *sim.Proc) {
		buf, _, err := r.Next(p)
		if err != nil {
			t.Error(err)
		}
		r.Release(p, buf)
		r.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSeqReaderNeverParksAProcess: a reader that is never closed —
// drained to EOF, dropped mid-stream holding a buffer, or dropped after
// releasing it — leaves no prefetch process behind, for any pool and
// prefetcher count.
func TestSeqReaderNeverParksAProcess(t *testing.T) {
	const total = 20
	for _, nbufs := range []int{1, 2, 4} {
		for _, readers := range []int{1, 2} {
			for _, stopAfter := range []int{0, 1, 7, total} {
				for _, hold := range []bool{false, true} {
					e := sim.NewEngine()
					r, err := NewSeqReader(memFetch(time.Millisecond), 4, total, 1, nbufs, readers)
					if err != nil {
						t.Fatal(err)
					}
					e.Go("consumer", func(p *sim.Proc) {
						var held []byte
						for i := 0; i < stopAfter; i++ {
							if held != nil {
								r.Release(p, held)
							}
							buf, idx, err := r.Next(p)
							if err != nil || idx != int64(i) || buf[0] != byte(i) {
								t.Errorf("block %d: idx %d err %v", i, idx, err)
								return
							}
							held = buf
							p.Sleep(3 * time.Millisecond) // let read-ahead fill the pool and retire
						}
						if held != nil && !hold {
							r.Release(p, held)
						}
					})
					if err := e.Run(); err != nil {
						t.Fatalf("nbufs=%d readers=%d stop=%d hold=%v: %v", nbufs, readers, stopAfter, hold, err)
					}
				}
			}
		}
	}
}

func TestSeqWriterSynchronous(t *testing.T) {
	var wrote []int64
	flush := runOut(func(ctx sim.Context, idx int64, _ int, buf []byte) error {
		wrote = append(wrote, idx)
		return nil
	})
	w, err := NewSeqWriter(flush, 8, 5, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	for i := int64(0); i < 5; i++ {
		buf, err := w.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Submit(ctx, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 5 {
		t.Fatalf("wrote %d blocks", len(wrote))
	}
}

func TestSeqWriterDeferredOverlap(t *testing.T) {
	// Producer computes 1ms then submits; flush costs 1ms. Deferred
	// writing should overlap them (~n ms), synchronous doubles (~2n ms).
	run := func(writers int) time.Duration {
		e := sim.NewEngine()
		flush := runOut(func(ctx sim.Context, idx int64, _ int, buf []byte) error {
			ctx.Sleep(time.Millisecond)
			return nil
		})
		w, err := NewSeqWriter(flush, 8, 10, 1, 2, writers)
		if err != nil {
			t.Fatal(err)
		}
		var end time.Duration
		e.Go("producer", func(p *sim.Proc) {
			for i := int64(0); i < 10; i++ {
				p.Sleep(time.Millisecond) // compute
				buf, err := w.Acquire(p)
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Submit(p, i, buf); err != nil {
					t.Error(err)
					return
				}
			}
			if err := w.Close(p); err != nil {
				t.Error(err)
			}
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	sync := run(0)
	deferred := run(1)
	if deferred >= sync {
		t.Fatalf("deferred %v not faster than synchronous %v", deferred, sync)
	}
	if deferred > 12*time.Millisecond {
		t.Fatalf("deferred writing failed to overlap: %v", deferred)
	}
}

func TestSeqWriterCollectsErrors(t *testing.T) {
	boom := errors.New("boom")
	flush := runOut(func(ctx sim.Context, idx int64, _ int, buf []byte) error {
		if idx == 2 {
			return boom
		}
		return nil
	})
	e := sim.NewEngine()
	w, err := NewSeqWriter(flush, 8, 4, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var closeErr error
	e.Go("producer", func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			buf, err := w.Acquire(p)
			if err != nil {
				t.Error(err)
				return
			}
			if err := w.Submit(p, i, buf); err != nil {
				t.Error(err)
			}
		}
		closeErr = w.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(closeErr, boom) {
		t.Fatalf("Close error = %v, want boom", closeErr)
	}
}

func TestSeqWriterDoubleCloseOK(t *testing.T) {
	w, err := NewSeqWriter(runOut(func(sim.Context, int64, int, []byte) error { return nil }), 8, 0, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Acquire(ctx); err == nil {
		t.Fatal("Acquire after Close accepted")
	}
}

// cacheBacking is a trivial block store for cache tests.
type cacheBacking struct {
	blocks  map[int64][]byte
	fetches int
	flushes int
}

func newCacheBacking() *cacheBacking { return &cacheBacking{blocks: map[int64][]byte{}} }

// blockOf is the i-th block of a span's buffer space holding len(idxs)
// blocks.
func blockOf(sp blockio.Space, idxs []int64, i int) []byte {
	bs := spaceEnd(sp) / int64(len(idxs))
	return spaceAt(sp, int64(i)*bs, bs)
}

func (b *cacheBacking) fetch(ctx sim.Context, idxs []int64, sp blockio.Space) error {
	for i, idx := range idxs {
		b.fetches++
		dst := blockOf(sp, idxs, i)
		clear(dst)
		copy(dst, b.blocks[idx])
	}
	return nil
}

func (b *cacheBacking) flush(ctx sim.Context, idxs []int64, sp blockio.Space) error {
	for i, idx := range idxs {
		b.flushes++
		b.blocks[idx] = append([]byte(nil), blockOf(sp, idxs, i)...)
	}
	return nil
}

// noFlush is a write hook for caches that are never dirtied.
func noFlush(sim.Context, []int64, blockio.Space) error { return nil }

func TestCacheValidation(t *testing.T) {
	b := newCacheBacking()
	if _, err := NewCache(spanIO(b.fetch, b.flush), 0, 1, 0); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := NewCache(spanIO(b.fetch, b.flush), 8, 0, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestCacheHitMissAndLRU(t *testing.T) {
	b := newCacheBacking()
	c, err := NewCache(spanIO(b.fetch, b.flush), 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	touch := func(idx int64) {
		if err := c.With(ctx, idx, false, func(buf []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	touch(1) // miss
	touch(2) // miss
	touch(1) // hit
	touch(3) // miss, evicts 2 (LRU)
	touch(1) // hit (still resident)
	touch(2) // miss again
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if b.flushes != 0 {
		t.Fatal("clean evictions should not write back")
	}
	if len(c.entries) != 2 {
		t.Fatalf("resident = %d", len(c.entries))
	}
}

func TestCacheWriteBackOnEvictionAndFlush(t *testing.T) {
	b := newCacheBacking()
	c, err := NewCache(spanIO(b.fetch, b.flush), 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	if err := c.With(ctx, 1, true, func(buf []byte) error { buf[0] = 0xaa; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := c.With(ctx, 2, true, func(buf []byte) error { buf[0] = 0xbb; return nil }); err != nil {
		t.Fatal(err)
	}
	// Evict 1 by touching 3.
	if err := c.With(ctx, 3, false, func(buf []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if b.blocks[1] == nil || b.blocks[1][0] != 0xaa {
		t.Fatal("dirty eviction did not write back")
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if b.blocks[2] == nil || b.blocks[2][0] != 0xbb {
		t.Fatal("Flush did not write dirty block")
	}
	// Flushing again writes nothing new.
	n := b.flushes
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if b.flushes != n {
		t.Fatal("second Flush rewrote clean blocks")
	}
}

func TestCacheReadAfterWriteThroughEviction(t *testing.T) {
	b := newCacheBacking()
	c, err := NewCache(spanIO(b.fetch, b.flush), 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	if err := c.With(ctx, 5, true, func(buf []byte) error { buf[0] = 42; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := c.With(ctx, 6, false, func(buf []byte) error { return nil }); err != nil {
		t.Fatal(err) // evicts 5
	}
	var got byte
	if err := c.With(ctx, 5, false, func(buf []byte) error { got = buf[0]; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("reread after eviction = %d, want 42", got)
	}
}

func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	// Two processes miss the same block; only one fetch must occur.
	e := sim.NewEngine()
	fetches := 0
	fetch := func(ctx sim.Context, idxs []int64, sp blockio.Space) error {
		fetches++
		ctx.Sleep(time.Millisecond)
		return nil
	}
	c, err := NewCache(spanIO(fetch, noFlush), 8, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		e.Go("reader", func(p *sim.Proc) {
			if err := c.With(p, 7, false, func(buf []byte) error { return nil }); err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fetches != 1 {
		t.Fatalf("fetches = %d, want 1 (coalesced)", fetches)
	}
}

func TestCacheZipfLocalityBeatsUniform(t *testing.T) {
	// Sanity: with a skewed access pattern a small cache achieves a much
	// better hit rate than under uniform access.
	run := func(skew float64) float64 {
		b := newCacheBacking()
		c, err := NewCache(spanIO(b.fetch, b.flush), 8, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx := sim.NewWall()
		rng := sim.NewRNG(1)
		z := sim.NewZipf(rng, 256, skew)
		for i := 0; i < 4000; i++ {
			if err := c.With(ctx, int64(z.Next()), false, func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats().HitRate()
	}
	uniform, skewed := run(0), run(1.2)
	if skewed <= uniform+0.2 {
		t.Fatalf("zipf hit rate %.2f should greatly exceed uniform %.2f", skewed, uniform)
	}
}

func TestCacheFetchErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	c, err := NewCache(spanIO(func(sim.Context, []int64, blockio.Space) error { return boom }, noFlush), 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.With(sim.NewWall(), 0, false, func([]byte) error { return nil }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestCacheHitRateZeroWhenEmpty(t *testing.T) {
	var s CacheStats
	if s.HitRate() != 0 {
		t.Fatal("empty HitRate should be 0")
	}
}

func TestSeqReaderManyBuffersStress(t *testing.T) {
	for _, nbufs := range []int{1, 2, 3, 8} {
		for _, readers := range []int{1, 2, 4} {
			e := sim.NewEngine()
			r, err := NewSeqReader(memFetch(100*time.Microsecond), 4, 50, 1, nbufs, readers)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			e.Go("consumer", func(p *sim.Proc) {
				defer r.Close(p)
				for {
					buf, idx, err := r.Next(p)
					if err == io.EOF {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					if buf[0] != byte(idx) {
						t.Errorf("nbufs=%d readers=%d: block %d byte %d", nbufs, readers, idx, buf[0])
					}
					count++
					r.Release(p, buf)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatalf("nbufs=%d readers=%d: %v", nbufs, readers, err)
			}
			if count != 50 {
				t.Fatalf("nbufs=%d readers=%d: consumed %d", nbufs, readers, count)
			}
		}
	}
}

// TestCacheMissRecyclesEvictedFrame pins the steady-state cost of a miss
// on a full cache: the evicted entry and its frame are recycled, and the
// one-index span the miss is fetched as takes its list from the cache's
// batch scratch, so a miss allocates at most the busy marker and the LRU
// element — never a block-sized frame.
func TestCacheMissRecyclesEvictedFrame(t *testing.T) {
	const blockSize, capacity = 4096, 8
	c, err := NewCache(spanIO(memSpan(0), noFlush), blockSize, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	next := int64(0)
	check := func(buf []byte) error {
		if buf[0] != byte(next) || buf[blockSize-1] != byte(next) {
			t.Errorf("block %d served a stale frame (%d)", next, buf[0])
		}
		return nil
	}
	miss := func() {
		if err := c.With(ctx, next, false, check); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < capacity {
		miss()
	}
	if n := testing.AllocsPerRun(200, miss); n > 2 {
		t.Fatalf("%v allocations per miss on a full cache, want ≤ 2", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const misses = 200
	for i := 0; i < misses; i++ {
		miss()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / misses; per >= blockSize/8 {
		t.Fatalf("%d bytes allocated per miss: a %d-byte frame is still being made", per, blockSize)
	}
	if st := c.Stats(); st.Hits != 0 || st.Evictions != st.Misses-capacity {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheEvictionDuringFlushKeepsFrame: the frame of an entry Flush is
// still writing must not be recycled — the device reads it when the slow
// write completes. A miss on the full cache waits for Flush to hand the
// entry back instead of evicting it from under the write.
func TestCacheEvictionDuringFlushKeepsFrame(t *testing.T) {
	written := map[int64]byte{}
	calls := 0
	flush := func(ctx sim.Context, idxs []int64, sp blockio.Space) error {
		calls++
		if calls == 1 {
			ctx.Sleep(20 * time.Millisecond) // Flush's write: slow
		} else {
			ctx.Sleep(time.Millisecond) // the evictor's write-back overtakes it
		}
		for i, idx := range idxs {
			written[idx] = blockOf(sp, idxs, i)[0]
		}
		return nil
	}
	c, err := NewCache(spanIO(memSpan(time.Millisecond), flush), 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	e.Go("flusher", func(p *sim.Proc) {
		if err := c.With(p, 7, true, func(buf []byte) error { buf[0] = 77; return nil }); err != nil {
			t.Error(err)
		}
		if err := c.Flush(p); err != nil {
			t.Error(err)
		}
	})
	e.Go("evictor", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond) // Flush is mid-write
		if err := c.With(p, 9, false, func([]byte) error { return nil }); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if written[7] != 77 {
		t.Fatalf("block 7 written back as %d, want 77: its frame was reused under Flush", written[7])
	}
}

// TestCacheFlushIsNotEvicted: eviction must pass over an entry Flush is
// writing back. It used to take the least recently used entry whoever
// held it; when that entry was still dirty, eviction's busy marker
// replaced the one Flush had installed, and an accessor parked on the
// old marker was never woken (and the block was written twice). Here a
// reader waits on the block under Flush while other processes fault
// blocks in and out of a two-block cache around it: the run must end
// (Engine.Run returns nil, not a *sim.Deadlock) with every reader served
// the right bytes and the backing store equal to the reference.
func TestCacheFlushIsNotEvicted(t *testing.T) {
	b := newCacheBacking()
	flushed := map[int64]int{}
	flush := func(ctx sim.Context, idxs []int64, sp blockio.Space) error {
		ctx.Sleep(10 * time.Millisecond) // long enough for the others to get in its way
		for _, idx := range idxs {
			flushed[idx]++
		}
		return b.flush(ctx, idxs, sp)
	}
	fetch := func(ctx sim.Context, idxs []int64, sp blockio.Space) error {
		ctx.Sleep(time.Millisecond)
		return b.fetch(ctx, idxs, sp)
	}
	c, err := NewCache(spanIO(fetch, flush), 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int64]byte{0: 10, 1: 11}
	expect := func(idx int64) func([]byte) error {
		return func(buf []byte) error {
			if buf[0] != ref[idx] {
				t.Errorf("block %d read as %d, want %d", idx, buf[0], ref[idx])
			}
			return nil
		}
	}
	e := sim.NewEngine()
	e.Go("flusher", func(p *sim.Proc) {
		for idx := int64(0); idx < 2; idx++ {
			v := ref[idx]
			if err := c.With(p, idx, true, func(buf []byte) error { buf[0] = v; return nil }); err != nil {
				t.Error(err)
			}
		}
		if err := c.Flush(p); err != nil { // block 0 first: the LRU entry
			t.Error(err)
		}
	})
	e.Go("reader", func(p *sim.Proc) {
		p.Sleep(3 * time.Millisecond) // Flush is writing block 0: parks on its marker
		if err := c.With(p, 0, false, expect(0)); err != nil {
			t.Error(err)
		}
	})
	for i := 0; i < 3; i++ {
		idx := int64(5 + i)
		e.Go("faulter", func(p *sim.Proc) {
			p.Sleep(time.Duration(4+i) * time.Millisecond) // misses on the full cache
			if err := c.With(p, idx, false, expect(idx)); err != nil {
				t.Error(err)
			}
			if err := c.With(p, 1, false, expect(1)); err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(sim.NewWall()); err != nil {
		t.Fatal(err)
	}
	for idx, want := range ref {
		if got := b.blocks[idx]; len(got) == 0 || got[0] != want {
			t.Errorf("block %d on the backing store is %v, want %d", idx, got, want)
		}
		if flushed[idx] != 1 {
			t.Errorf("block %d written back %d times, want once", idx, flushed[idx])
		}
	}
}
