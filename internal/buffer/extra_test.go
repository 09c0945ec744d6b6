package buffer

import (
	"testing"

	"repro/internal/blockio"
	"repro/internal/sim"
)

func TestSeqWriterValidation(t *testing.T) {
	flush := runOut(func(sim.Context, int64, int, []byte) error { return nil })
	if _, err := NewSeqWriter(flush, 0, 1, 1, 1, 1); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := NewSeqWriter(flush, 8, 1, 1, 0, 1); err == nil {
		t.Fatal("zero buffers accepted")
	}
	if _, err := NewSeqWriter(flush, 8, 1, 1, 1, -1); err == nil {
		t.Fatal("negative writers accepted")
	}
	// writers > nbufs clamps rather than errors.
	w, err := NewSeqWriter(flush, 8, 1, 1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if w.writers != 2 {
		t.Fatalf("writers = %d, want clamped 2", w.writers)
	}
}

func TestSeqReaderClampReaders(t *testing.T) {
	r, err := NewSeqReader(memFetch(0), 8, 4, 1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.readers != 2 {
		t.Fatalf("readers = %d, want clamped 2", r.readers)
	}
}

func TestSeqWriterSynchronousBufferExhaustion(t *testing.T) {
	// In synchronous mode, Acquire without Submit exhausts the pool and
	// must error rather than hang.
	flush := runOut(func(sim.Context, int64, int, []byte) error { return nil })
	w, err := NewSeqWriter(flush, 8, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	if _, err := w.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Acquire(ctx); err == nil {
		t.Fatal("leaked buffer not detected")
	}
}

func TestSeqReaderSynchronousBufferLeak(t *testing.T) {
	r, err := NewSeqReader(memFetch(0), 8, 4, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	if _, _, err := r.Next(ctx); err != nil {
		t.Fatal(err)
	}
	// Second Next without Release must error (single buffer).
	if _, _, err := r.Next(ctx); err == nil {
		t.Fatal("leaked buffer not detected")
	}
}

func TestCacheOvercommitWhenAllBusy(t *testing.T) {
	// Capacity 1 with two concurrent misses on different blocks: the
	// second must overcommit rather than deadlock or fail.
	e := sim.NewEngine()
	fetch := func(ctx sim.Context, idxs []int64, sp blockio.Space) error {
		ctx.Sleep(1000)
		return nil
	}
	c, err := NewCache(spanIO(fetch, noFlush), 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		idx := int64(i)
		e.Go("r", func(p *sim.Proc) {
			if err := c.With(p, idx, false, func([]byte) error { return nil }); err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheEvictionOrderDeterministic(t *testing.T) {
	// Flush order must be ascending block index regardless of insert
	// order (determinism of virtual-time runs).
	var flushed []int64
	flush := func(ctx sim.Context, idxs []int64, sp blockio.Space) error {
		flushed = append(flushed, idxs...)
		return nil
	}
	c, err := NewCache(spanIO(memSpan(0), flush), 8, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	for _, idx := range []int64{5, 1, 3, 2} {
		if err := c.With(ctx, idx, true, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 5}
	for i := range want {
		if flushed[i] != want[i] {
			t.Fatalf("flush order %v, want %v", flushed, want)
		}
	}
}
