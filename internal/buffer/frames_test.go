package buffer

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// pooled reports whether buf is on the free list.
func pooled(buf []byte) bool {
	frames.Lock()
	defer frames.Unlock()
	for _, f := range frames.free[len(buf)] {
		if &f[0] == &buf[0] {
			return true
		}
	}
	return false
}

// TestFramesRecycledOnReopen: a stream closed and opened again takes its
// frames from the free list, so opening one with eight frames allocates
// no more than opening one with a single frame — for a reader, and for a
// writer whose write-behind processes drained every frame back to it.
func TestFramesRecycledOnReopen(t *testing.T) {
	const size = 12345 // a frame size no other test uses
	ctx := sim.NewWall()
	reader := func(nbufs int) func() {
		return func() {
			r, err := NewSeqReader(memFetch(0), size, 4, nbufs, 0)
			if err != nil {
				t.Fatal(err)
			}
			r.Close(ctx)
		}
	}
	writer := func(nbufs int) func() {
		return func() {
			w, err := NewSeqWriter(func(sim.Context, int64, []byte) error { return nil }, size, nbufs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, open := range map[string]func(int) func(){"reader": reader, "writer": writer} {
		open(8)()
		one, eight := testing.AllocsPerRun(20, open(1)), testing.AllocsPerRun(20, open(8))
		if eight != one {
			t.Errorf("%s: reopening with 8 frames allocates %v objects, with 1 frame %v: frames are not recycled", name, eight, one)
		}
	}

	// Under an engine the writer's frames pass through its queues: Close
	// drains them back and recycles every one.
	e := sim.NewEngine()
	var held [][]byte
	e.Go("producer", func(p *sim.Proc) {
		w, err := NewSeqWriter(func(ctx sim.Context, _ int64, _ []byte) error {
			ctx.Sleep(time.Millisecond)
			return nil
		}, size+1, 3, 2)
		if err != nil {
			t.Error(err)
			return
		}
		for i := int64(0); i < 10; i++ {
			buf, err := w.Acquire(p)
			if err != nil {
				t.Error(err)
				return
			}
			held = append(held, buf)
			if err := w.Submit(p, i, buf); err != nil {
				t.Error(err)
			}
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, buf := range held {
		if !pooled(buf) {
			t.Fatal("a drained write-behind frame was not recycled at Close")
		}
	}
}

// TestCloseKeepsInFlightFrames closes a reader while one prefetch is
// still fetching and the consumer still holds another frame: neither may
// go back to the free list, and a stream opened right after must not be
// handed them.
func TestCloseKeepsInFlightFrames(t *testing.T) {
	const size = 12347
	e := sim.NewEngine()
	var fetchedInto [][]byte
	fetch := func(ctx sim.Context, idx int64, buf []byte) error {
		fetchedInto = append(fetchedInto, buf)
		ctx.Sleep(time.Duration(1+49*idx) * time.Millisecond) // block 1 lands long after block 0
		return nil
	}
	e.Go("consumer", func(p *sim.Proc) {
		r, err := NewSeqReader(fetch, size, 4, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		held, _, err := r.Next(p)
		if err != nil {
			t.Error(err)
			return
		}
		r.Close(p) // block 1's fetch is in flight
		r.Release(p, held)
		next, err := NewSeqReader(fetch, size, 4, 3, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for _, mine := range next.free {
			for _, old := range fetchedInto {
				if &mine[0] == &old[0] {
					t.Error("a frame the closed reader was still using went to the next stream")
				}
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fetchedInto) != 2 {
		t.Fatalf("%d fetches started, want 2", len(fetchedInto))
	}
	for _, buf := range fetchedInto {
		if pooled(buf) {
			t.Fatal("a frame the closed reader was still using is on the free list")
		}
	}
}

// TestFramesConcurrentStreams opens and closes streams of one frame size
// from several goroutines at once, as parallel engines do: a frame is
// never out to two streams at the same time (each goroutine stamps its
// frames and finds its stamp intact after yielding).
func TestFramesConcurrentStreams(t *testing.T) {
	const size, workers, rounds = 12349, 4, 200
	var wg sync.WaitGroup
	for id := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := sim.NewWall()
			stamp := func(_ sim.Context, _ int64, buf []byte) error {
				for i := range buf {
					buf[i] = byte(id)
				}
				return nil
			}
			for range rounds {
				r, err := NewSeqReader(stamp, size, 3, 3, 0)
				if err != nil {
					t.Error(err)
					return
				}
				var held [][]byte
				for range 3 {
					buf, _, err := r.Next(ctx)
					if err != nil {
						t.Error(err)
						return
					}
					held = append(held, buf)
				}
				runtime.Gosched()
				for _, buf := range held {
					if buf[0] != byte(id) || buf[size-1] != byte(id) {
						t.Errorf("worker %d: a frame it holds was written by another stream", id)
						return
					}
					r.Release(ctx, buf)
				}
				r.Close(ctx)
			}
		}()
	}
	wg.Wait()
}
