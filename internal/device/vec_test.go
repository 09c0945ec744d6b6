package device

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestBlocksVecRoundTrip checks writev/readv semantics: a gather write
// followed by a scatter read round-trips through arbitrary block-multiple
// segmentations, each transfer counting as exactly one request.
func TestBlocksVecRoundTrip(t *testing.T) {
	d := New(Config{Geometry: Geometry{BlockSize: 64, BlocksPerCyl: 4, Cylinders: 8}})
	ctx := sim.NewWall()
	const n = 6
	bs := d.Geometry().BlockSize
	src := make([]byte, n*bs)
	for i := range src {
		src[i] = byte(i * 7)
	}
	// Gather from a 1+3+2 segmentation.
	srcs := [][]byte{src[:bs], src[bs : 4*bs], src[4*bs:]}
	if err := d.WriteBlocksVec(ctx, 2, n, srcs); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Writes; got != 1 {
		t.Fatalf("gather write counted %d requests, want 1", got)
	}
	// Scatter into a different 2+2+1+1 segmentation.
	parts := make([][]byte, 4)
	for i, k := range []int{2, 2, 1, 1} {
		parts[i] = make([]byte, k*bs)
	}
	if err := d.ReadBlocksVec(ctx, 2, n, parts); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Reads; got != 1 {
		t.Fatalf("scatter read counted %d requests, want 1", got)
	}
	if got := bytes.Join(parts, nil); !bytes.Equal(got, src) {
		t.Fatalf("scatter read returned wrong data")
	}
}

// TestBlocksVecMatchesBlocksTiming asserts the vectored run costs exactly
// what the contiguous run costs under the service-time model: the
// scatter list is free, only the physical run shape is charged.
func TestBlocksVecMatchesBlocksTiming(t *testing.T) {
	run := func(vec bool) (elapsed int64) {
		e := sim.NewEngine()
		d := New(Config{Engine: e})
		bs := d.Geometry().BlockSize
		e.Go("io", func(p *sim.Proc) {
			buf := make([]byte, 16*bs)
			if vec {
				halves := [][]byte{buf[:8*bs], buf[8*bs:]}
				if err := d.ReadBlocksVec(p, 0, 16, halves); err != nil {
					t.Error(err)
				}
			} else {
				if err := readBlocks(d, p, 0, 16, buf); err != nil {
					t.Error(err)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return int64(e.Now())
	}
	if plain, vec := run(false), run(true); plain != vec {
		t.Fatalf("vectored run modeled %d ns, contiguous run %d ns; must be identical", vec, plain)
	}
}

// TestBlocksVecValidation rejects malformed scatter lists.
func TestBlocksVecValidation(t *testing.T) {
	d := New(Config{Geometry: Geometry{BlockSize: 64, BlocksPerCyl: 4, Cylinders: 8}})
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	if err := d.ReadBlocksVec(ctx, 0, 2, [][]byte{make([]byte, bs+1), make([]byte, bs-1)}); err == nil {
		t.Fatal("accepted non-block-multiple segments")
	}
	if err := d.ReadBlocksVec(ctx, 0, 2, [][]byte{make([]byte, bs)}); err == nil {
		t.Fatal("accepted short scatter list")
	}
	if err := d.WriteBlocksVec(ctx, 0, 0, nil); err == nil {
		t.Fatal("accepted empty run")
	}
	if err := d.WriteBlocksVec(ctx, d.Geometry().Blocks(), 1, [][]byte{make([]byte, bs)}); err == nil {
		t.Fatal("accepted out-of-range run")
	}
}
