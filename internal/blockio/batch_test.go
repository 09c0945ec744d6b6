package blockio

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// newBatchStore builds a shared untimed store plus n Sets with abutting
// extents (file i occupies per-device blocks [i*perDev, (i+1)*perDev)),
// all striped with the given unit.
func newBatchStore(t *testing.T, devs int, unit, perDev int64, files int) ([]*Set, []*device.Disk) {
	t.Helper()
	disks := make([]*device.Disk, devs)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     fmt.Sprintf("d%d", i),
			Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 64},
		})
	}
	store, err := NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]*Set, files)
	for f := range sets {
		base := make([]int64, devs)
		for d := range base {
			base[d] = int64(f) * perDev
		}
		sets[f], err = NewSet(store, NewStriped(devs, unit), base, int64(devs)*perDev)
		if err != nil {
			t.Fatal(err)
		}
	}
	return sets, disks
}

// readBatch and writeBatch transfer a whole batch: the one window of its
// plan, bound to the buffer all its items' offsets address.

func readBatch(ctx sim.Context, b BatchVec, buf []byte) error {
	plan, err := b.Plan(nil)
	if err != nil {
		return err
	}
	return plan.Transfer(ctx, false, 0, 1, Space{{Buf: buf}})
}

func writeBatch(ctx sim.Context, b BatchVec, buf []byte) error {
	plan, err := b.Plan(nil)
	if err != nil {
		return err
	}
	return plan.Transfer(ctx, true, 0, 1, Space{{Buf: buf}})
}

// TestBatchVecMergesAcrossFiles is the point of the cross-file batch: two
// files with abutting extents, each contributing a contiguous range,
// coalesce to ONE device request per device — where per-file vectored
// I/O must issue one per file per device.
func TestBatchVecMergesAcrossFiles(t *testing.T) {
	const devs, perDev = 2, 4
	sets, disks := newBatchStore(t, devs, 1, perDev, 2)
	bs := int64(sets[0].Store().BlockSize())
	ctx := sim.NewWall()
	buf := make([]byte, 16*bs)
	bufA, bufB := buf[:8*bs], buf[8*bs:]
	for i := range bufA {
		bufA[i] = byte(i)
		bufB[i] = byte(i + 128)
	}
	batch := BatchVec{
		{Set: sets[0], Vec: Vec{{Block: 0, N: 8}}},
		{Set: sets[1], Vec: Vec{{Block: 0, N: 8, BufOff: 8 * bs}}},
	}
	plan, err := batch.Plan(nil)
	if err != nil || len(plan.wins[0]) != devs {
		t.Fatalf("window 0 has %d runs, %v; want %d (one merged run per device)", len(plan.wins[0]), err, devs)
	}
	if err := plan.Transfer(ctx, true, 0, 1, Space{{Buf: buf}}); err != nil {
		t.Fatal(err)
	}
	var reqs int64
	for _, d := range disks {
		reqs += d.Stats().Requests()
	}
	if reqs != devs {
		t.Fatalf("batch write issued %d requests, want %d", reqs, devs)
	}
	// Per-file vectored I/O on the same accesses: one run per file per
	// device.
	for _, d := range disks {
		d.ResetStats()
	}
	if err := sets[0].WriteVec(ctx, Vec{{Block: 0, N: 8}}, bufA); err != nil {
		t.Fatal(err)
	}
	if err := sets[1].WriteVec(ctx, Vec{{Block: 0, N: 8}}, bufB); err != nil {
		t.Fatal(err)
	}
	reqs = 0
	for _, d := range disks {
		reqs += d.Stats().Requests()
	}
	if reqs != 2*devs {
		t.Fatalf("per-file writes issued %d requests, want %d", reqs, 2*devs)
	}
	// Read the batch back and verify both buffers round-trip.
	got := make([]byte, len(buf))
	if err := readBatch(ctx, batch, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("batch read differs from batch write")
	}
}

// TestBatchVecSharedBuffer exercises the aggregator shape: several files'
// vecs scatter out of ONE buffer, with buffer-contiguous adjacent pieces
// collapsing into a single iov slice.
func TestBatchVecSharedBuffer(t *testing.T) {
	sets, disks := newBatchStore(t, 2, 1, 4, 2)
	bs := int64(sets[0].Store().BlockSize())
	ctx := sim.NewWall()
	buf := make([]byte, 16*bs)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	batch := BatchVec{
		{Set: sets[0], Vec: Vec{{Block: 0, N: 8, BufOff: 0}}},
		{Set: sets[1], Vec: Vec{{Block: 0, N: 8, BufOff: 8 * bs}}},
	}
	if err := writeBatch(ctx, batch, buf); err != nil {
		t.Fatal(err)
	}
	var reqs int64
	for _, d := range disks {
		reqs += d.Stats().Requests()
	}
	if reqs != 2 {
		t.Fatalf("shared-buffer batch issued %d requests, want 2", reqs)
	}
	got := make([]byte, len(buf))
	if err := readBatch(ctx, batch, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("shared-buffer batch round-trip mismatch")
	}
}

// TestBatchVecEquivalence checks batch transfers against per-set vectored
// transfers for random descriptors over every layout family.
func TestBatchVecEquivalence(t *testing.T) {
	for _, tc := range testLayouts(t) {
		t.Run(tc.name, func(t *testing.T) {
			// Two files of tc.total logical blocks each, sharing one
			// store: file 1's extents follow file 0's.
			need := PerDevice(tc.layout, tc.total)
			disks := make([]*device.Disk, tc.layout.Devices())
			for i := range disks {
				disks[i] = device.New(device.Config{
					Name:     fmt.Sprintf("d%d", i),
					Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 64},
				})
			}
			store, err := NewDirect(disks)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(file int64) *Set {
				base := make([]int64, len(need))
				for d := range base {
					base[d] = file * need[d]
				}
				s, err := NewSet(store, tc.layout, base, tc.total)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			sets := []*Set{mk(0), mk(1)}
			bs := int64(store.BlockSize())
			ctx := sim.NewWall()
			rng := rand.New(rand.NewSource(11))
			// Seed both files with distinct per-block patterns.
			blk := make([]byte, bs)
			for f, s := range sets {
				for b := int64(0); b < tc.total; b++ {
					for i := range blk {
						blk[i] = byte(int64(f)*97 + b*31 + int64(i))
					}
					if err := s.WriteVec(ctx, Vec{{Block: b, N: 1}}, blk); err != nil {
						t.Fatal(err)
					}
				}
			}
			for trial := 0; trial < 10; trial++ {
				// Each file's descriptor addresses its own stretch of the
				// batch's one buffer space: the item's offsets are vecs[f]'s
				// shifted to where the stretch starts, bufs[f] is the
				// stretch.
				vecs := make([]Vec, len(sets))
				lens := make([]int64, len(sets))
				var batch BatchVec
				var total int64
				for f := range sets {
					vecs[f], lens[f] = randomVec(rng, tc.total, bs)
					shifted := append(Vec(nil), vecs[f]...)
					for i := range shifted {
						shifted[i].BufOff += total
					}
					batch = append(batch, BatchItem{Set: sets[f], Vec: shifted})
					total += lens[f]
				}
				shared := make([]byte, total)
				bufs := make([][]byte, len(sets))
				for f, off := 0, int64(0); f < len(sets); off, f = off+lens[f], f+1 {
					bufs[f] = shared[off : off+lens[f]]
				}
				if err := readBatch(ctx, batch, shared); err != nil {
					t.Fatalf("trial %d: batch read: %v", trial, err)
				}
				for f, s := range sets {
					want := make([]byte, len(bufs[f]))
					if err := s.ReadVec(ctx, vecs[f], want); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(bufs[f], want) {
						t.Fatalf("trial %d: batch read of file %d differs from ReadVec", trial, f)
					}
				}
				// Write random data through the batch; verify per set.
				for f := range bufs {
					rng.Read(bufs[f])
				}
				if err := writeBatch(ctx, batch, shared); err != nil {
					t.Fatalf("trial %d: batch write: %v", trial, err)
				}
				for f, s := range sets {
					got := make([]byte, len(bufs[f]))
					if err := s.ReadVec(ctx, vecs[f], got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, bufs[f]) {
						t.Fatalf("trial %d: batch write of file %d not visible via ReadVec", trial, f)
					}
				}
			}
		})
	}
}

// TestBatchVecValidation exercises the batch-level error cases.
func TestBatchVecValidation(t *testing.T) {
	sets, disks := newBatchStore(t, 2, 1, 4, 2)
	bs := int64(sets[0].Store().BlockSize())
	ctx := sim.NewWall()
	buf := make([]byte, 8*bs)

	otherDisks := []*device.Disk{device.New(device.Config{
		Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 64},
	})}
	otherStore, err := NewDirect(otherDisks)
	if err != nil {
		t.Fatal(err)
	}
	otherSet, err := NewSet(otherStore, NewStriped(1, 1), []int64{0}, otherStore.Blocks())
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		batch BatchVec
		want  string
	}{
		{"nil set", BatchVec{{Set: nil, Vec: Vec{{N: 1}}}}, "no Set"},
		{"mixed stores", BatchVec{
			{Set: sets[0], Vec: Vec{{Block: 0, N: 1}}},
			{Set: otherSet, Vec: Vec{{Block: 0, N: 1}}},
		}, "different store"},
		{"same set twice overlapping", BatchVec{
			{Set: sets[0], Vec: Vec{{Block: 0, N: 4}}},
			{Set: sets[0], Vec: Vec{{Block: 2, N: 4}}},
		}, "overlap"},
		{"bad item vec", BatchVec{
			{Set: sets[0], Vec: Vec{{Block: 0, N: 1, BufOff: 7}}},
		}, "not aligned"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := readBatch(ctx, tc.batch, buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read = %v, want error containing %q", err, tc.want)
			}
			if err := writeBatch(ctx, tc.batch, buf); err == nil {
				t.Fatal("Write accepted invalid batch")
			}
		})
	}
	// An empty batch and empty vecs are fine no-ops.
	if err := readBatch(ctx, BatchVec{}, nil); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
	if err := writeBatch(ctx, BatchVec{{Set: sets[0], Vec: nil}}, nil); err != nil {
		t.Fatalf("empty item rejected: %v", err)
	}
	if reqs := disks[0].Stats().Requests() + disks[1].Stats().Requests(); reqs != 0 {
		t.Fatalf("invalid/empty batches issued %d requests, want 0", reqs)
	}
}
