package buffer

import (
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/sim"
)

// runCall is one RunIO call a counting hook saw.
type runCall struct {
	first int64
	n     int
}

// counter is a counting stream hook: it records every call, charges cost
// of virtual time for it and tracks how many calls were in flight at
// once. As a fetch it tags every byte of block k with k; as a flush it
// checks that tag and counts the writes of every block.
type counter struct {
	bs        int
	cost      func(first int64) time.Duration
	fail      int64 // first block of the call that fails; -1 for none
	calls     []runCall
	inflight  int
	peak      int
	written   map[int64]int
	misplaced int
}

var errBatch = errors.New("batch failed")

func newCounter(bs int, cost time.Duration) *counter {
	return &counter{bs: bs, cost: func(int64) time.Duration { return cost }, fail: -1, written: map[int64]int{}}
}

func (c *counter) enter(ctx sim.Context, first int64, n int) error {
	c.calls = append(c.calls, runCall{first, n})
	c.inflight++
	c.peak = max(c.peak, c.inflight)
	ctx.Sleep(c.cost(first))
	c.inflight--
	if first == c.fail {
		return errBatch
	}
	return nil
}

func (c *counter) fetch() RunIO {
	return runIn(func(ctx sim.Context, first int64, n int, buf []byte) error {
		if err := c.enter(ctx, first, n); err != nil {
			return err
		}
		for i := range buf {
			buf[i] = byte(first + int64(i/c.bs))
		}
		return nil
	})
}

func (c *counter) flush() RunIO {
	return runOut(func(ctx sim.Context, first int64, n int, buf []byte) error {
		if err := c.enter(ctx, first, n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			k := first + int64(i)
			c.written[k]++
			if buf[i*c.bs] != byte(k) || buf[(i+1)*c.bs-1] != byte(k) {
				c.misplaced++
			}
		}
		return nil
	})
}

// maxBlocks reports the largest call's block count.
func (c *counter) maxBlocks() int {
	m := 0
	for _, call := range c.calls {
		m = max(m, call.n)
	}
	return m
}

// drain reads r to its end under p, checking every block's tag; compute,
// if any, is charged after each extent (a consumer that never parks
// releases every buffer it is served before the prefetcher runs again).
// It returns the extents that failed.
func drain(t *testing.T, p *sim.Proc, r *SeqReader, bs int, total, extent int64, compute time.Duration) []int64 {
	t.Helper()
	var failed []int64
	for {
		buf, e, err := r.Next(p)
		if err == io.EOF {
			return failed
		}
		if err != nil {
			if !errors.Is(err, errBatch) {
				t.Errorf("extent %d: %v", e, err)
			}
			failed = append(failed, e)
			continue
		}
		for k := e * extent; k < min((e+1)*extent, total); k++ {
			off := (k - e*extent) * int64(bs)
			if buf[off] != byte(k) || buf[off+int64(bs)-1] != byte(k) {
				t.Errorf("extent %d: block %d tagged %d", e, k, buf[off])
			}
		}
		r.Release(p, buf)
		if compute > 0 {
			p.Sleep(compute)
		}
	}
}

// TestSeqReaderBatchesFreeBuffers: a lone reader's prefetch process
// claims the extent of every free buffer and fetches them with one call.
// A 16-extent stream through 4 buffers is 4 calls, not 16, the last one
// ending on the stream's short last extent, which still reads right.
func TestSeqReaderBatchesFreeBuffers(t *testing.T) {
	const bs, extent, total = 8, 4, 15*4 + 3
	c := newCounter(bs, time.Millisecond)
	r, err := NewSeqReader(c.fetch(), bs, total, extent, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	e.Go("consumer", func(p *sim.Proc) {
		if failed := drain(t, p, r, bs, total, extent, 0); len(failed) > 0 {
			t.Errorf("extents %v failed", failed)
		}
		r.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []runCall{{0, 16}, {16, 16}, {32, 16}, {48, 15}}
	if !slices.Equal(c.calls, want) {
		t.Errorf("calls %v, want %v", c.calls, want)
	}
}

// TestSeqReaderBlockAtATime: with extents of one block the reader keeps
// the paper's block-at-a-time requests, however many buffers are free.
func TestSeqReaderBlockAtATime(t *testing.T) {
	const bs, total = 8, 16
	c := newCounter(bs, time.Millisecond)
	r, err := NewSeqReader(c.fetch(), bs, total, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	e.Go("consumer", func(p *sim.Proc) {
		drain(t, p, r, bs, total, 1, 0)
		r.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.calls) != total {
		t.Errorf("%d calls for %d blocks", len(c.calls), total)
	}
	for i, call := range c.calls {
		if call != (runCall{int64(i), 1}) {
			t.Errorf("call %d is %v, want block %d alone", i, call, i)
		}
	}
}

// TestSeqReaderFailedBatch: a batch whose fetch fails fails every extent
// in it, and every one of their frames goes back to the pool — read-ahead
// goes on with them — so the stream reads the rest, ends with all its
// frames pooled, and leaves no process behind.
func TestSeqReaderFailedBatch(t *testing.T) {
	const bs, extent, total = 8, 4, 64
	c := newCounter(bs, time.Millisecond)
	c.fail = 4 * extent // the second batch: extents 4–7
	r, err := NewSeqReader(c.fetch(), bs, total, extent, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var failed []int64
	e := sim.NewEngine()
	e.Go("consumer", func(p *sim.Proc) {
		failed = drain(t, p, r, bs, total, extent, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(failed, []int64{4, 5, 6, 7}) {
		t.Errorf("extents %v failed, want 4–7", failed)
	}
	if len(c.calls) != 4 {
		t.Errorf("%d calls, want 4: %v", len(c.calls), c.calls)
	}
	if len(r.free) != 4 {
		t.Errorf("%d of 4 frames back in the pool", len(r.free))
	}
	if r.active != 0 {
		t.Errorf("%d prefetch processes still live", r.active)
	}
	r.Close(nil)
}

// TestSeqWriterFailedBatch: a write-behind process flushes every
// consecutive extent queued with one call; when that call fails, the
// error names the batch and surfaces from Close.
func TestSeqWriterFailedBatch(t *testing.T) {
	const bs, extent, total = 8, 4, 64
	c := newCounter(bs, time.Millisecond)
	c.fail = 4 * extent
	w, err := NewSeqWriter(c.flush(), bs, total, extent, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var closeErr error
	e := sim.NewEngine()
	e.Go("producer", func(p *sim.Proc) {
		for x := int64(0); x < total/extent; x++ {
			buf, err := w.Acquire(p)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range buf {
				buf[i] = byte(x*extent + int64(i/bs))
			}
			if err := w.Submit(p, x, buf); err != nil {
				t.Error(err)
				return
			}
		}
		closeErr = w.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(closeErr, errBatch) {
		t.Fatalf("Close returned %v, want the failed batch's error", closeErr)
	}
	want := []runCall{{0, 16}, {16, 16}, {32, 16}, {48, 16}}
	if !slices.Equal(c.calls, want) {
		t.Errorf("calls %v, want %v", c.calls, want)
	}
	if c.misplaced > 0 {
		t.Errorf("%d blocks written from the wrong bytes", c.misplaced)
	}
}

// TestBatchesOfTwoProcesses: with two I/O processes a stream has two
// batches in flight at once, which finish out of order; each process
// keeps its own batch, so every block still lands where it belongs —
// read into the frame its extent is served from, written from the frame
// it was submitted in.
func TestBatchesOfTwoProcesses(t *testing.T) {
	const bs, extent, total = 8, 3, 100
	// A call costs more the earlier it starts in a cycle of 5 extents, so
	// a later batch often lands first.
	cost := func(first int64) time.Duration { return time.Duration(6-(first/extent)%5) * time.Millisecond }

	rc := newCounter(bs, 0)
	rc.cost = cost
	r, err := NewSeqReader(rc.fetch(), bs, total, extent, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	e.Go("consumer", func(p *sim.Proc) {
		drain(t, p, r, bs, total, extent, 700*time.Microsecond)
		r.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rc.peak != 2 || rc.maxBlocks() <= extent {
		t.Errorf("reader: %d calls in flight at most, largest %d blocks; want 2 and a batch: %v", rc.peak, rc.maxBlocks(), rc.calls)
	}

	wc := newCounter(bs, 0)
	wc.cost = cost
	w, err := NewSeqWriter(wc.flush(), bs, total, extent, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	e = sim.NewEngine()
	e.Go("producer", func(p *sim.Proc) {
		for x := int64(0); x*extent < total; x++ {
			buf, err := w.Acquire(p)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range buf {
				buf[i] = byte(x*extent + int64(i/bs))
			}
			if err := w.Submit(p, x, buf); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(700 * time.Microsecond)
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wc.peak != 2 || wc.maxBlocks() <= extent {
		t.Errorf("writer: %d calls in flight at most, largest %d blocks; want 2 and a batch: %v", wc.peak, wc.maxBlocks(), wc.calls)
	}
	if wc.misplaced > 0 || len(wc.written) != total {
		t.Errorf("writer: %d blocks written from the wrong bytes, %d of %d written", wc.misplaced, len(wc.written), total)
	}
	for k, n := range wc.written {
		if n != 1 {
			t.Errorf("writer: block %d written %d times", k, n)
		}
	}
}

// TestCacheSpansAreItsFrames: the cache's span hooks move its frames
// themselves, one piece a block, so nothing is staged: the frame a miss
// scatters into is the one With hands out, and a Flush gathers from the
// frames With wrote, three blocks in one list.
func TestCacheSpansAreItsFrames(t *testing.T) {
	const bs = 16
	var fetched, flushed [][]byte
	flushes := 0
	pieces := func(idxs []int64, sp blockio.Space, into *[][]byte) {
		if len(sp) != len(idxs) {
			t.Errorf("%d blocks in %d pieces", len(idxs), len(sp))
		}
		for i, pc := range sp {
			if pc.Off != int64(i*bs) || len(pc.Buf) != bs {
				t.Errorf("piece %d: %d bytes at %d, want one block at %d", i, len(pc.Buf), pc.Off, i*bs)
			}
			*into = append(*into, pc.Buf)
		}
	}
	c, err := NewCache(func(_ sim.Context, write bool, idxs []int64, sp blockio.Space) error {
		if write {
			flushes++
			pieces(idxs, sp, &flushed)
		} else {
			pieces(idxs, sp, &fetched)
		}
		return nil
	}, bs, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	var held [][]byte
	for _, idx := range []int64{1, 2, 3} {
		if err := c.With(ctx, idx, true, func(buf []byte) error { held = append(held, buf); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if len(fetched) != 3 || len(flushed) != 3 || flushes != 1 {
		t.Fatalf("%d blocks fetched, %d flushed in %d calls; want 3, and 3 in 1", len(fetched), len(flushed), flushes)
	}
	for i, buf := range held {
		if &fetched[i][0] != &buf[0] || &flushed[i][0] != &buf[0] {
			t.Errorf("block %d moved through a buffer other than its frame", i+1)
		}
	}
}
