package buffer

import (
	"io"
	"testing"

	"repro/internal/sim"
)

// TestSeqReaderExtentBoundaries checks that the extent reader issues one
// RunIO call per extent with correct first/n (short final extent) and that
// Next yields extents in order.
func TestSeqReaderExtentBoundaries(t *testing.T) {
	const bs = 8
	const total = 11
	const extent = 4
	type call struct {
		first int64
		n     int
	}
	var calls []call
	fetch := runIn(func(ctx sim.Context, first int64, n int, buf []byte) error {
		calls = append(calls, call{first, n})
		if len(buf) != n*bs {
			t.Fatalf("fetch buf len %d for %d blocks", len(buf), n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < bs; j++ {
				buf[i*bs+j] = byte(first + int64(i))
			}
		}
		return nil
	})
	r, err := NewSeqReader(fetch, bs, total, extent, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	for e := int64(0); ; e++ {
		buf, idx, err := r.Next(ctx)
		if err == io.EOF {
			if e != 3 {
				t.Fatalf("EOF after %d extents, want 3", e)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if idx != e {
			t.Fatalf("extent %d out of order (got %d)", e, idx)
		}
		n := extent
		if rem := total - e*extent; rem < int64(n) {
			n = int(rem)
		}
		for i := 0; i < n; i++ {
			if buf[i*bs] != byte(e*extent+int64(i)) {
				t.Fatalf("extent %d block %d tagged %d", e, i, buf[i*bs])
			}
		}
		r.Release(ctx, buf)
	}
	want := []call{{0, 4}, {4, 4}, {8, 3}}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call %d = %v, want %v", i, calls[i], want[i])
		}
	}
}

// TestSeqWriterExtentBoundaries checks the extent writer clamps the
// final extent to the stream length and flushes whole extents.
func TestSeqWriterExtentBoundaries(t *testing.T) {
	const bs = 8
	const total = 10
	const extent = 4
	type call struct {
		first int64
		n     int
	}
	var calls []call
	flush := runOut(func(ctx sim.Context, first int64, n int, buf []byte) error {
		calls = append(calls, call{first, n})
		if len(buf) != n*bs {
			t.Fatalf("flush buf len %d for %d blocks", len(buf), n)
		}
		return nil
	})
	w, err := NewSeqWriter(flush, bs, total, extent, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	for e := int64(0); e < 3; e++ {
		buf, err := w.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != extent*bs {
			t.Fatalf("acquire len %d", len(buf))
		}
		if err := w.Submit(ctx, e, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	want := []call{{0, 4}, {4, 4}, {8, 2}}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call %d = %v, want %v", i, calls[i], want[i])
		}
	}
}

// TestSeqReaderExtentPrefetch runs the extent reader under an engine
// with dedicated prefetchers to cover the asynchronous path.
func TestSeqReaderExtentPrefetch(t *testing.T) {
	const bs = 4
	const total = 9
	const extent = 2
	fetch := runIn(func(ctx sim.Context, first int64, n int, buf []byte) error {
		if p, ok := ctx.(*sim.Proc); ok {
			p.Sleep(1)
		}
		for i := 0; i < n; i++ {
			buf[i*bs] = byte(first + int64(i))
		}
		return nil
	})
	e := sim.NewEngine()
	r, err := NewSeqReader(fetch, bs, total, extent, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	e.Go("consumer", func(p *sim.Proc) {
		for {
			buf, idx, err := r.Next(p)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Errorf("Next: %v", err)
				return
			}
			n := extent
			if rem := total - idx*extent; rem < int64(n) {
				n = int(rem)
			}
			for i := 0; i < n; i++ {
				got = append(got, buf[i*bs])
			}
			r.Release(p, buf)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("consumed %d blocks, want %d", len(got), total)
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("block %d tagged %d", i, b)
		}
	}
}
