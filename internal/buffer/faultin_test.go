package buffer

import (
	"fmt"
	"testing"

	"repro/internal/blockio"
	"repro/internal/sim"
)

// spanBackend instruments a fake store: it counts fetch calls and the
// blocks they carry so tests can assert how a fault was batched.
type spanBackend struct {
	blockSize  int
	spans      int // FetchSpan calls
	spanBlocks int // blocks moved by FetchSpan calls
	flushes    int // blocks written
}

func (b *spanBackend) fetchSpan(ctx sim.Context, idxs []int64, sp blockio.Space) error {
	b.spans++
	b.spanBlocks += len(idxs)
	for i, idx := range idxs {
		blk := blockOf(sp, idxs, i)
		for j := range blk {
			blk[j] = byte(idx)
		}
	}
	return nil
}

func (b *spanBackend) flushSpan(ctx sim.Context, idxs []int64, sp blockio.Space) error {
	b.flushes += len(idxs)
	return nil
}

func newSpanCache(t *testing.T, capacity int) (*Cache, *spanBackend) {
	t.Helper()
	be := &spanBackend{blockSize: 16}
	c, err := NewCache(be.fetchSpan, be.flushSpan, be.blockSize, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, be
}

// TestFaultInBatchesMisses asserts a span of absent blocks is fetched by
// one FetchSpan call and subsequent accesses are hits.
func TestFaultInBatchesMisses(t *testing.T) {
	c, be := newSpanCache(t, 8)
	ctx := sim.NewWall()
	idxs := []int64{3, 5, 6, 9}
	if err := c.FaultIn(ctx, idxs); err != nil {
		t.Fatal(err)
	}
	if be.spans != 1 || be.spanBlocks != 4 {
		t.Fatalf("FaultIn used %d span calls (%d blocks); want 1 span of 4", be.spans, be.spanBlocks)
	}
	for _, idx := range idxs {
		idx := idx
		err := c.With(ctx, idx, false, func(buf []byte) error {
			if buf[0] != byte(idx) {
				return fmt.Errorf("block %d holds %d", idx, buf[0])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Hits != 4 || s.Misses != 4 {
		t.Fatalf("stats = %+v, want 4 hits (post-fault) and 4 misses (the faulted blocks)", s)
	}
	if be.spans != 1 {
		t.Fatalf("%d fetches after FaultIn; want 0", be.spans-1)
	}
}

// TestFaultInSkipsResident asserts resident blocks are neither refetched
// nor evicted by a fault that fills the rest of the cache.
func TestFaultInSkipsResident(t *testing.T) {
	c, be := newSpanCache(t, 4)
	ctx := sim.NewWall()
	if err := c.With(ctx, 7, false, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	be.spans, be.spanBlocks = 0, 0
	if err := c.FaultIn(ctx, []int64{2, 4, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if be.spans != 1 || be.spanBlocks != 3 {
		t.Fatalf("fault fetched %d blocks in %d calls; want 3 in 1 (7 already resident)", be.spanBlocks, be.spans)
	}
	if c.Resident() != 4 {
		t.Fatalf("%d resident, want 4", c.Resident())
	}
	hits := c.Stats().Hits
	if err := c.With(ctx, 7, false, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != hits+1 {
		t.Fatal("resident block 7 was evicted by FaultIn")
	}
}

// TestFaultInClampsToCapacity asserts a span larger than the cache only
// faults capacity blocks (callers reach the rest through With).
func TestFaultInClampsToCapacity(t *testing.T) {
	c, be := newSpanCache(t, 3)
	ctx := sim.NewWall()
	if err := c.FaultIn(ctx, []int64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if be.spanBlocks != 3 {
		t.Fatalf("faulted %d blocks into a 3-block cache, want 3", be.spanBlocks)
	}
	if c.Resident() != 3 {
		t.Fatalf("%d resident, want 3", c.Resident())
	}
}

// TestFaultInWritesBack asserts dirty victims are flushed when a fault
// needs their slots.
func TestFaultInWritesBack(t *testing.T) {
	c, be := newSpanCache(t, 2)
	ctx := sim.NewWall()
	for idx := int64(0); idx < 2; idx++ {
		if err := c.With(ctx, idx, true, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FaultIn(ctx, []int64{10, 11}); err != nil {
		t.Fatal(err)
	}
	if be.flushes != 2 {
		t.Fatalf("%d write-backs, want 2 (both dirty victims)", be.flushes)
	}
}
