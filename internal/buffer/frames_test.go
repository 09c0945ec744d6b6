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
// writer whose write-behind processes drained every frame back to it —
// and a reader under an engine takes its futures from the free list, so
// reading eight extents allocates no more than reading one.
func TestFramesRecycledOnReopen(t *testing.T) {
	const size = 12345 // a frame size no other test uses
	ctx := sim.NewWall()
	reader := func(nbufs int) func() {
		return func() {
			r, err := NewSeqReader(memFetch(0), size, 8, 1, nbufs, 0)
			if err != nil {
				t.Fatal(err)
			}
			r.Close(ctx)
		}
	}
	writer := func(nbufs int) func() {
		return func() {
			w, err := NewSeqWriter(runOut(func(sim.Context, int64, int, []byte) error { return nil }), size, 0, 1, nbufs, 0)
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

	// Under an engine a reader's frames and futures pass through its
	// prefetch process and its filled queue: Close recycles them all.
	e := sim.NewEngine()
	e.Go("consumer", func(p *sim.Proc) {
		read := func(k int) func() {
			return func() {
				r, err := NewSeqReader(memFetch(time.Millisecond), size+2, int64(k), 1, 4, 1)
				if err != nil {
					t.Fatal(err)
				}
				for range k {
					buf, _, err := r.Next(p)
					if err != nil {
						t.Fatal(err)
					}
					r.Release(p, buf)
				}
				r.Close(p)
			}
		}
		read(8)()
		if raceEnabled {
			return // the race runtime's sync.Pool drops the batch scratch at random
		}
		if one, eight := testing.AllocsPerRun(20, read(1)), testing.AllocsPerRun(20, read(8)); eight > one {
			t.Errorf("under an engine a reopened reader reading 8 extents allocates %v objects, reading 1 extent %v: futures are not recycled", eight, one)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	// Under an engine the writer's frames pass through its queues: Close
	// drains them back and recycles every one.
	e = sim.NewEngine()
	var held [][]byte
	e.Go("producer", func(p *sim.Proc) {
		w, err := NewSeqWriter(runOut(func(ctx sim.Context, _ int64, _ int, _ []byte) error {
			ctx.Sleep(time.Millisecond)
			return nil
		}), size+1, 10, 1, 3, 2)
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

// TestCloseKeepsInFlightFrames closes readers with work outstanding. A
// frame goes back to the free list only once no transfer or consumer can
// touch it: one still being fetched into when its fetch lands, one a
// consumer holds when it is released, one fetched and not yet taken at
// Close at once; and a stream opened right after Close is never handed
// a frame whose fetch is in flight.
func TestCloseKeepsInFlightFrames(t *testing.T) {
	// slow fetches block i in 1+49i ms, recording the frames it fetches into.
	slow := func(into *[][]byte) RunIO {
		return runIn(func(ctx sim.Context, idx int64, _ int, buf []byte) error {
			*into = append(*into, buf)
			ctx.Sleep(time.Duration(1+49*idx) * time.Millisecond)
			for i := range buf {
				buf[i] = byte(idx)
			}
			return nil
		})
	}
	run := func(t *testing.T, procs ...func(p *sim.Proc)) {
		t.Helper()
		e := sim.NewEngine()
		for _, fn := range procs {
			e.Go("consumer", fn)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("in flight", func(t *testing.T) {
		const size = 12347
		var fetchedInto [][]byte
		fetch := slow(&fetchedInto)
		run(t, func(p *sim.Proc) {
			r, err := NewSeqReader(fetch, size, 4, 1, 2, 2)
			if err != nil {
				t.Error(err)
				return
			}
			held, _, err := r.Next(p)
			if err != nil {
				t.Error(err)
				return
			}
			r.Close(p) // block 1's fetch is in flight until 50 ms
			inFlight := fetchedInto[1]
			if pooled(inFlight) || pooled(held) {
				t.Error("Close put a frame still being fetched into or still held on the free list")
			}
			r.Release(p, held)
			if !pooled(held) {
				t.Error("a frame released after Close was not recycled")
			}
			next, err := NewSeqReader(fetch, size, 4, 1, 3, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for _, mine := range next.free {
				if &mine[0] == &inFlight[0] {
					t.Error("a frame still being fetched into went to the next stream")
				}
			}
			p.Sleep(25 * time.Millisecond)
			if pooled(inFlight) {
				t.Error("a frame still being fetched into is on the free list")
			}
			next.Close(p)
		})
		if len(fetchedInto) != 2 {
			t.Fatalf("%d fetches started, want 2", len(fetchedInto))
		}
		for i, buf := range fetchedInto {
			if !pooled(buf) {
				t.Errorf("frame of block %d is not on the free list once its fetch landed and it was released", i)
			}
		}
	})

	t.Run("done unconsumed", func(t *testing.T) {
		const size = 12351
		var fetchedInto [][]byte
		run(t, func(p *sim.Proc) {
			r, err := NewSeqReader(slow(&fetchedInto), size, 4, 1, 2, 2)
			if err != nil {
				t.Error(err)
				return
			}
			held, _, err := r.Next(p)
			if err != nil {
				t.Error(err)
				return
			}
			p.Sleep(time.Second) // block 1 lands; nobody takes it
			r.Close(p)
			if !pooled(fetchedInto[1]) {
				t.Error("Close kept the frame of a fetched future no consumer had taken")
			}
			if pooled(held) {
				t.Error("Close put a frame its consumer still holds on the free list")
			}
			r.Release(p, held)
		})
		for i, buf := range fetchedInto {
			if !pooled(buf) {
				t.Errorf("frame of block %d is not on the free list", i)
			}
		}
	})

	t.Run("taken by another consumer", func(t *testing.T) {
		const size = 12353
		var fetchedInto [][]byte
		var r *SeqReader
		r, err := NewSeqReader(slow(&fetchedInto), size, 4, 1, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		run(t, func(p *sim.Proc) {
			// Takes block 0's future at once and waits 1 ms for it to land.
			buf, idx, err := r.Next(p)
			if err != nil || idx != 0 {
				t.Errorf("extent %d, %v", idx, err)
				return
			}
			if pooled(buf) {
				t.Error("the other consumer's Close recycled a future this one had taken")
			}
			p.Sleep(time.Second) // block 1 lands while this one holds block 0
			if pooled(buf) || buf[0] != 0 || buf[size-1] != 0 {
				t.Error("a frame this consumer holds went back to the free list")
			}
			r.Release(p, buf)
		}, func(p *sim.Proc) {
			p.Sleep(time.Millisecond / 2) // the first consumer waits on block 0's future
			r.Close(p)
			if pooled(fetchedInto[0]) || pooled(fetchedInto[1]) {
				t.Error("Close put a frame still being fetched into on the free list")
			}
		})
		for i, buf := range fetchedInto {
			if !pooled(buf) {
				t.Errorf("frame of block %d is not on the free list", i)
			}
		}
	})
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
			stamp := runIn(func(_ sim.Context, _ int64, _ int, buf []byte) error {
				for i := range buf {
					buf[i] = byte(id)
				}
				return nil
			})
			for range rounds {
				r, err := NewSeqReader(stamp, size, 3, 1, 3, 0)
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
