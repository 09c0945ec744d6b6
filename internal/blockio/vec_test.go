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

// newVecSet builds a Set over fresh untimed disks sized for the layout.
func newVecSet(t *testing.T, l Layout) (*Set, []*device.Disk) {
	t.Helper()
	disks := make([]*device.Disk, l.Devices())
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     fmt.Sprintf("d%d", i),
			Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 32},
		})
	}
	store, err := NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(store, l, make([]int64, l.Devices()), int64(l.Devices())*store.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	return set, disks
}

// TestMapVecUnit1Coalescing is the declustering case extent I/O cannot
// serve: under unit-1 striping a contiguous logical range decomposes into
// one gather run per device, not one request per block.
func TestMapVecUnit1Coalescing(t *testing.T) {
	set, _ := newVecSet(t, NewStriped(4, 1))
	bs := int64(set.Store().BlockSize())
	runs, err := set.MapVec(Vec{{Block: 0, N: 32, BufOff: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("unit-1 vec of 32 blocks: %d runs, want 4 (one per device): %+v", len(runs), runs)
	}
	for dev, r := range runs {
		if r.Dev != dev || r.PBlock != 0 || r.N != 8 {
			t.Fatalf("run %d = %+v, want dev %d pblock 0 n 8", dev, r, dev)
		}
		if len(r.Segs) != 8 {
			t.Fatalf("run %d: %d segs, want 8 one-block strides", dev, len(r.Segs))
		}
		for i, sg := range r.Segs {
			if want := (int64(dev) + int64(i)*4) * bs; sg.BufOff != want || sg.Blocks != 1 {
				t.Fatalf("run %d seg %d = %+v, want bufOff %d blocks 1", dev, i, sg, want)
			}
		}
	}
}

// TestMapVecMergesAcrossSegments checks listio-style merging: pieces from
// different descriptor segments that land physically adjacent coalesce,
// and buffer-adjacent segs collapse.
func TestMapVecMergesAcrossSegments(t *testing.T) {
	set, _ := newVecSet(t, NewStriped(2, 1))
	bs := int64(set.Store().BlockSize())
	// Logical blocks 0, 2, 4 all live on device 0 at pblocks 0, 1, 2:
	// physically adjacent, logically strided, buffer contiguous.
	runs, err := set.MapVec(Vec{
		{Block: 0, N: 1, BufOff: 0},
		{Block: 2, N: 1, BufOff: bs},
		{Block: 4, N: 1, BufOff: 2 * bs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d runs, want 1 merged gather run: %+v", len(runs), runs)
	}
	r := runs[0]
	if r.Dev != 0 || r.PBlock != 0 || r.N != 3 {
		t.Fatalf("run = %+v, want dev 0 pblock 0 n 3", r)
	}
	if len(r.Segs) != 1 || r.Segs[0] != (Seg{BufOff: 0, Blocks: 3}) {
		t.Fatalf("segs = %+v, want one 3-block seg at offset 0", r.Segs)
	}
}

// TestVecValidation exercises the descriptor error cases, including the
// overlapping-segment rejections.
func TestVecValidation(t *testing.T) {
	set, _ := newVecSet(t, NewStriped(2, 1))
	bs := int64(set.Store().BlockSize())
	buf := make([]byte, 8*bs)
	ctx := sim.NewWall()
	cases := []struct {
		name string
		vec  Vec
		want string
	}{
		{"logical overlap", Vec{{Block: 0, N: 4, BufOff: 0}, {Block: 3, N: 2, BufOff: 4 * bs}}, "overlap in logical blocks"},
		{"buffer overlap", Vec{{Block: 0, N: 2, BufOff: 0}, {Block: 4, N: 2, BufOff: bs}}, "overlap in the buffer"},
		{"misaligned", Vec{{Block: 0, N: 1, BufOff: 7}}, "not aligned"},
		{"negative run", Vec{{Block: 0, N: -1, BufOff: 0}}, "blocks"},
		{"beyond buffer", Vec{{Block: 0, N: 9, BufOff: 0}}, "exceed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := set.ReadVec(ctx, tc.vec, buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadVec = %v, want error containing %q", err, tc.want)
			}
			if err := set.WriteVec(ctx, tc.vec, buf); err == nil {
				t.Fatalf("WriteVec accepted invalid vec %v", tc.vec)
			}
		})
	}
	// Zero-length segments and an empty vec are fine.
	if err := set.ReadVec(ctx, Vec{{Block: 0, N: 0, BufOff: -9999}}, buf); err != nil {
		t.Fatalf("zero-length segment rejected: %v", err)
	}
	if err := set.WriteVec(ctx, nil, nil); err != nil {
		t.Fatalf("empty vec rejected: %v", err)
	}
}

// TestCheckVecShuffledAllocs: a shuffled descriptor is proven disjoint
// by two sorts of its segments' indexes, which stay on the stack: checking
// one of eight segments, shuffled in blocks and in the buffer alike,
// allocates nothing.
func TestCheckVecShuffledAllocs(t *testing.T) {
	set, _ := newVecSet(t, NewStriped(2, 1))
	bs := int64(set.Store().BlockSize())
	var vec Vec
	for i, k := range []int64{5, 2, 7, 0, 3, 6, 1, 4} {
		vec = append(vec, VecSeg{Block: 2 * k, N: 1, BufOff: int64(7-i) * bs})
	}
	check := func() {
		if err := set.checkVec("check", vec, 8*bs); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, check); n != 0 {
		t.Errorf("checking a shuffled 8-segment descriptor allocated %.0f times, want 0", n)
	}
}

// randomVec builds a deterministic random descriptor over [0, total):
// disjoint logical ranges in shuffled order with shuffled buffer slots.
func randomVec(rng *rand.Rand, total, bs int64) (Vec, int64) {
	var ranges [][2]int64
	for b := int64(0); b < total; {
		n := 1 + rng.Int63n(5)
		if b+n > total {
			n = total - b
		}
		if rng.Intn(3) > 0 { // leave gaps sometimes
			ranges = append(ranges, [2]int64{b, n})
		}
		b += n + rng.Int63n(3)
	}
	var blocks int64
	for _, r := range ranges {
		blocks += r[1]
	}
	offs := make([]int64, len(ranges))
	var off int64
	for i, r := range ranges {
		offs[i] = off
		off += r[1] * bs
	}
	rng.Shuffle(len(ranges), func(i, j int) {
		ranges[i], ranges[j] = ranges[j], ranges[i]
		offs[i], offs[j] = offs[j], offs[i]
	})
	vec := make(Vec, len(ranges))
	for i, r := range ranges {
		vec[i] = VecSeg{Block: r[0], N: r[1], BufOff: offs[i]}
	}
	return vec, blocks * bs
}

// TestVecEquivalence checks ReadVec/WriteVec against per-block loops for
// random descriptors over every layout family.
func TestVecEquivalence(t *testing.T) {
	for _, tc := range testLayouts(t) {
		t.Run(tc.name, func(t *testing.T) {
			set, _ := newVecSet(t, tc.layout)
			bs := int64(set.Store().BlockSize())
			ctx := sim.NewWall()
			rng := rand.New(rand.NewSource(7))
			// Seed every block with a distinct pattern.
			blk := make([]byte, bs)
			for b := int64(0); b < tc.total; b++ {
				for i := range blk {
					blk[i] = byte(b*31 + int64(i))
				}
				if err := set.WriteVec(ctx, Vec{{Block: b, N: 1}}, blk); err != nil {
					t.Fatal(err)
				}
			}
			for trial := 0; trial < 20; trial++ {
				vec, bufLen := randomVec(rng, tc.total, bs)
				got := make([]byte, bufLen)
				if err := set.ReadVec(ctx, vec, got); err != nil {
					t.Fatalf("trial %d: ReadVec: %v", trial, err)
				}
				want := make([]byte, bufLen)
				for _, sg := range vec {
					for i := int64(0); i < sg.N; i++ {
						if err := set.ReadVec(ctx, Vec{{Block: sg.Block + i, N: 1}}, want[sg.BufOff+i*bs:sg.BufOff+(i+1)*bs]); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("trial %d: ReadVec differs from per-block loop (vec %v)", trial, vec)
				}
				// Write fresh data through the vec, verify per block.
				src := make([]byte, bufLen)
				rng.Read(src)
				if err := set.WriteVec(ctx, vec, src); err != nil {
					t.Fatalf("trial %d: WriteVec: %v", trial, err)
				}
				rb := make([]byte, bs)
				for _, sg := range vec {
					for i := int64(0); i < sg.N; i++ {
						if err := set.ReadVec(ctx, Vec{{Block: sg.Block + i, N: 1}}, rb); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(rb, src[sg.BufOff+i*bs:sg.BufOff+(i+1)*bs]) {
							t.Fatalf("trial %d: WriteVec block %d mismatch", trial, sg.Block+i)
						}
					}
				}
			}
		})
	}
}

// TestVecRequestCount verifies the modeled win at the store level: a
// 32-block unit-1 declustered transfer is 4 device requests vectored
// (one gather run per device) versus 32 per-block.
func TestVecRequestCount(t *testing.T) {
	set, disks := newVecSet(t, NewStriped(4, 1))
	bs := int64(set.Store().BlockSize())
	ctx := sim.NewWall()
	buf := make([]byte, 32*bs)
	if err := set.WriteVec(ctx, Vec{{Block: 0, N: 32}}, buf); err != nil {
		t.Fatal(err)
	}
	for _, d := range disks {
		d.ResetStats()
	}
	if err := set.ReadVec(ctx, Vec{{Block: 0, N: 32}}, buf); err != nil {
		t.Fatal(err)
	}
	var vecReqs int64
	for _, d := range disks {
		vecReqs += d.Stats().Requests()
	}
	if vecReqs != 4 {
		t.Fatalf("vectored unit-1 transfer issued %d requests, want 4", vecReqs)
	}
	for _, d := range disks {
		d.ResetStats()
	}
	for b := int64(0); b < 32; b++ {
		if err := set.ReadVec(ctx, Vec{{Block: b, N: 1}}, buf[:bs]); err != nil {
			t.Fatal(err)
		}
	}
	var blockReqs int64
	for _, d := range disks {
		blockReqs += d.Stats().Requests()
	}
	if blockReqs != 32 {
		t.Fatalf("per-block transfer issued %d requests, want 32", blockReqs)
	}
}

// TestVecThroughPieces: a descriptor moves through a buffer space of
// pieces anywhere in memory exactly as through one buffer — each strategy
// writes through pieces what reads back through one buffer, and reads
// into pieces what was written — and a space that leaves a segment's
// bytes uncovered, by a gap or by a part-block piece, is refused before
// anything moves.
func TestVecThroughPieces(t *testing.T) {
	set, _ := newVecSet(t, NewStriped(3, 1))
	bs := int64(set.Store().BlockSize())
	ctx := sim.NewWall()
	vec := Vec{{Block: 3, N: 5, BufOff: 0}, {Block: 11, N: 2, BufOff: 6 * bs}, {Block: 20, N: 4, BufOff: 8 * bs}}
	size := 12 * bs
	// pieces cuts data into stretches of 1, 2 and 3 blocks in fresh
	// buffers, copying data into them when fill is set.
	pieces := func(data []byte, fill bool) Space {
		var sp Space
		for off, k := int64(0), int64(1); off < size; off, k = off+k*bs, k%3+1 {
			n := min(k*bs, size-off)
			buf := make([]byte, n)
			if fill {
				copy(buf, data[off:off+n])
			}
			sp = append(sp, Piece{Off: off, Buf: buf})
		}
		return sp
	}
	flat := func(sp Space) []byte {
		out := make([]byte, size)
		for _, pc := range sp {
			copy(out[pc.Off:], pc.Buf)
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	for _, strat := range []Strategy{StrategyVectored, StrategySieved, StrategyAuto} {
		data := make([]byte, size)
		rng.Read(data)
		clear(data[5*bs : 6*bs]) // the byte range no segment addresses
		if err := set.Transfer(ctx, true, strat, vec, pieces(data, true)); err != nil {
			t.Fatalf("%v: write through pieces: %v", strat, err)
		}
		got := make([]byte, size)
		if err := set.ReadVec(ctx, vec, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%v: what went out through pieces reads back different", strat)
		}
		sp := pieces(nil, false)
		if err := set.Transfer(ctx, false, strat, vec, sp); err != nil {
			t.Fatalf("%v: read into pieces: %v", strat, err)
		}
		if !bytes.Equal(flat(sp), data) {
			t.Fatalf("%v: what came in through pieces differs from what was written", strat)
		}
	}
	gap := pieces(nil, false)
	gap = append(gap[:1:1], gap[2:]...)
	part := pieces(nil, false)
	part[0].Buf = part[0].Buf[:bs/2]
	for name, sp := range map[string]Space{"a gap": gap, "a part-block piece": part} {
		err := set.Transfer(ctx, false, StrategyVectored, vec, sp)
		if err == nil || !strings.Contains(err.Error(), "not covered") {
			t.Errorf("a space with %s: got %v, want the coverage error", name, err)
		}
	}
}
