package device

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestStoreDifferential runs a seeded sequence of writes, reads,
// erases and snapshot → restore round trips through a Disk's slab
// store, and holds every byte read and every snapshot to a map of
// pages: runs cross slab boundaries and touch the drive's first and last
// blocks, reads land in 0xFF-filled buffers (so a block never written
// must come back cleared), and a scatter/gather list is cut at random
// block boundaries.
func TestStoreDifferential(t *testing.T) {
	for _, g := range []Geometry{
		{BlockSize: 16, BlocksPerCyl: 8, Cylinders: 6},
		{BlockSize: 8, BlocksPerCyl: 5, Cylinders: 7},
		{BlockSize: 8, BlocksPerCyl: 70, Cylinders: 3},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("mem/bpc%d/seed%d", g.BlocksPerCyl, seed), func(t *testing.T) {
				storeDifferential(t, New(Config{Geometry: g}), rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func storeDifferential(t *testing.T, d *Disk, rng *rand.Rand) {
	t.Helper()
	ctx := sim.NewWall()
	g := d.Geometry()
	bs, nb := g.BlockSize, g.Blocks()
	ref := map[int64][]byte{}

	// run picks a run of up to three slabs' worth of blocks, starting
	// at the drive's first block, ending at its last, or anywhere.
	run := func() (int64, int) {
		n := int64(1 + rng.Intn(3*g.BlocksPerCyl))
		n = min(n, nb)
		var b int64
		switch rng.Intn(4) {
		case 0:
			b = 0
		case 1:
			b = nb - n
		default:
			b = rng.Int63n(nb - n + 1)
		}
		return b, int(n)
	}
	// cut splits buf into a random list of whole-block elements.
	cut := func(buf []byte) [][]byte {
		var iov [][]byte
		for len(buf) > 0 {
			k := (1 + rng.Intn(len(buf)/bs)) * bs
			iov, buf = append(iov, buf[:k]), buf[k:]
		}
		return iov
	}
	checkRead := func(b int64, n int) {
		t.Helper()
		got := bytes.Repeat([]byte{0xff}, n*bs)
		if err := d.ReadBlocksVec(ctx, b, n, cut(got)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want := ref[b+int64(i)]
			if want == nil {
				want = make([]byte, bs)
			}
			if !bytes.Equal(got[i*bs:(i+1)*bs], want) {
				t.Fatalf("block %d reads %x, want %x", b+int64(i), got[i*bs:(i+1)*bs], want)
			}
		}
	}
	checkSnapshot := func() map[int64][]byte {
		t.Helper()
		snap, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if keys, want := slices.Sorted(maps.Keys(snap)), slices.Sorted(maps.Keys(ref)); !slices.Equal(keys, want) {
			t.Fatalf("snapshot lists blocks %v, want %v", keys, want)
		}
		for b, pg := range snap {
			if !bytes.Equal(pg, ref[b]) {
				t.Fatalf("snapshot block %d = %x, want %x", b, pg, ref[b])
			}
		}
		return snap
	}

	for op := 0; op < 300; op++ {
		switch k := rng.Intn(20); {
		case k < 9:
			b, n := run()
			src := make([]byte, n*bs)
			rng.Read(src)
			if err := d.WriteBlocksVec(ctx, b, n, cut(src)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				ref[b+int64(i)] = src[i*bs : (i+1)*bs]
			}
		case k < 17:
			checkRead(run())
		case k < 18:
			if err := d.Erase(); err != nil {
				t.Fatal(err)
			}
			clear(ref)
		default:
			snap := checkSnapshot()
			b, n := run()
			if err := d.WriteBlocksVec(ctx, b, n, [][]byte{make([]byte, n*bs)}); err != nil {
				t.Fatal(err)
			}
			if err := d.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkRead(0, int(nb))
	checkSnapshot()
}

// TestRestoreRejectsMalformed holds Restore to the drive: a snapshot
// naming a block outside [0, Blocks()) or holding a page that is not
// exactly one block is refused with an error naming that block, and the
// drive keeps what it held.
func TestRestoreRejectsMalformed(t *testing.T) {
	g := Geometry{BlockSize: 8, BlocksPerCyl: 4, Cylinders: 4}
	for _, tc := range []struct {
		snap    map[int64][]byte
		want    string
		outside bool
	}{
		{map[int64][]byte{0: make([]byte, 8), -5: make([]byte, 8)}, "block -5", true},
		{map[int64][]byte{0: make([]byte, 8), 1 << 40: make([]byte, 8)}, "block 1099511627776", true},
		{map[int64][]byte{0: make([]byte, 8), 16: make([]byte, 8)}, "block 16", true},
		{map[int64][]byte{0: {1, 2}}, "block 0 is 2 bytes", false},
		{map[int64][]byte{3: make([]byte, 9)}, "block 3 is 9 bytes", false},
	} {
		d := New(Config{Geometry: g})
		ctx := sim.NewWall()
		old := bytes.Repeat([]byte{7}, 8)
		if err := writeBlocks(d, ctx, 0, 1, old); err != nil {
			t.Fatal(err)
		}
		err := d.Restore(tc.snap)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Restore(%v) = %v, want an error naming %q", tc.snap, err, tc.want)
		}
		if errors.Is(err, ErrOutOfRange) != tc.outside {
			t.Fatalf("Restore error %v: wraps ErrOutOfRange = %v, want %v", err, !tc.outside, tc.outside)
		}
		got := bytes.Repeat([]byte{0xff}, 8)
		if err := readBlocks(d, ctx, 0, 1, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, old) {
			t.Fatalf("refused Restore changed block 0 to %v", got)
		}
		if snap, _ := d.Snapshot(); len(snap) != 1 {
			t.Fatalf("refused Restore left %d blocks", len(snap))
		}
	}
}

// BenchmarkDriveRuns is the drive store's host cost: 16 MiB written as
// 32-block runs through an untimed Disk and read back, per op, on a drive
// the first write has already filled.
func BenchmarkDriveRuns(b *testing.B) {
	const run, total = 32, 16 << 20
	d := New(Config{})
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	buf := make([]byte, run*bs)
	for i := range buf {
		buf[i] = byte(i)
	}
	iov := [][]byte{buf}
	pass := func(xfer func(sim.Context, int64, int, [][]byte) error) {
		for blk := int64(0); blk < total/int64(bs); blk += run {
			if err := xfer(ctx, blk, run, iov); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass(d.WriteBlocksVec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(d.WriteBlocksVec)
		pass(d.ReadBlocksVec)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*total), "host_ns/B")
}
