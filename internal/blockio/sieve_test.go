package blockio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// sieveVecFromBits turns a block-selection bitmap into a Vec: block b is
// requested iff bit b of bits is set, each selected block landing at the
// next free buffer offset (so the buffer is dense however holey the
// pattern). Returns the vec and the number of selected blocks.
func sieveVecFromBits(bits uint64, total int64, bs int64) (Vec, int64) {
	var vec Vec
	var picked int64
	for b := int64(0); b < total && b < 64; b++ {
		if bits&(1<<uint(b)) == 0 {
			continue
		}
		if k := len(vec) - 1; k >= 0 && vec[k].Block+vec[k].N == b {
			vec[k].N++
		} else {
			vec = append(vec, VecSeg{Block: b, N: 1, BufOff: picked * bs})
		}
		picked++
	}
	return vec, picked
}

// The sieved transfers: a descriptor under StrategySieved (a fixed
// strategy prices nothing).

func readSieved(ctx sim.Context, s *Set, vec Vec, buf []byte) error {
	return s.Transfer(ctx, false, StrategySieved, vec, Space{{Buf: buf}})
}

func writeSieved(ctx sim.Context, s *Set, vec Vec, buf []byte) error {
	return s.Transfer(ctx, true, StrategySieved, vec, Space{{Buf: buf}})
}

// TestSieveSpansShape pins the planner's output on a striped layout:
// one span per touched device, covering exactly the device's first
// through last requested physical block.
func TestSieveSpansShape(t *testing.T) {
	set, _ := newTestSet(t, NewStriped(2, 4), 64)
	// Blocks 0 and 16 are dev 0 pblocks 0 and 8; block 5 is dev 1 pblock 1.
	runs, err := set.MapVec(Vec{
		{Block: 0, N: 1, BufOff: 0},
		{Block: 5, N: 1, BufOff: 64},
		{Block: 16, N: 1, BufOff: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := sieveSpans(nil, runs)
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2 (one per touched device): %+v", len(spans), spans)
	}
	if sp := spans[0]; sp.Dev != 0 || sp.PBlock != 0 || sp.Blocks != 9 || sp.Useful != 2 {
		t.Fatalf("dev0 span = %+v, want pblock 0, 9 blocks (7 holes), 2 useful", sp)
	}
	if sp := spans[1]; sp.Dev != 1 || sp.PBlock != 1 || sp.Blocks != 1 || sp.Useful != 1 {
		t.Fatalf("dev1 span = %+v, want the single requested block, no holes", sp)
	}
}

// TestSievedMatchesVectored checks, across layouts and random hole
// densities, that the sieved paths are observationally identical to the
// vectored ones: sieved reads return the same bytes, sieved writes leave
// the same store image — including every untouched block of the
// read-modify-write span.
func TestSievedMatchesVectored(t *testing.T) {
	for _, tc := range testLayouts(t) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			ctx := sim.NewWall()
			set, _ := newTestSet(t, tc.layout, tc.total)
			bs := int64(set.Store().BlockSize())
			base := make([]byte, tc.total*bs)
			rng.Read(base)
			if err := writeRange(ctx, set, 0, tc.total, base); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				total := tc.total
				if total > 64 {
					total = 64
				}
				vec, picked := sieveVecFromBits(rng.Uint64(), total, bs)
				if picked == 0 {
					continue
				}
				// Sieved read == vectored read.
				want := make([]byte, picked*bs)
				got := make([]byte, picked*bs)
				if err := set.ReadVec(ctx, vec, want); err != nil {
					t.Fatal(err)
				}
				if err := readSieved(ctx, set, vec, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("trial %d: sieved read differs from vectored", trial)
				}
				// Sieved write leaves the image a vectored write would.
				data := make([]byte, picked*bs)
				rng.Read(data)
				if err := writeSieved(ctx, set, vec, data); err != nil {
					t.Fatal(err)
				}
				img := make([]byte, tc.total*bs)
				if err := readRange(ctx, set, 0, tc.total, img); err != nil {
					t.Fatal(err)
				}
				for _, sg := range vec {
					copy(base[sg.Block*bs:(sg.Block+sg.N)*bs], data[sg.BufOff:sg.BufOff+sg.N*bs])
				}
				if !bytes.Equal(img, base) {
					t.Fatalf("trial %d: sieved write corrupted untouched bytes", trial)
				}
			}
		})
	}
}

// TestSieveConcurrentWriters runs two engine processes sieve-writing
// interleaved (disjoint) block sets whose covering spans fully overlap:
// without the per-device sieve locks one writer's read-modify-write
// would write back stale holes over the other's data. Both writers'
// bytes must land.
func TestSieveConcurrentWriters(t *testing.T) {
	const total, bs = 32, 64
	l := NewStriped(1, 4)
	e := sim.NewEngine()
	disks := []*device.Disk{device.New(device.Config{
		Name:     "d0",
		Geometry: device.Geometry{BlockSize: bs, BlocksPerCyl: 8, Cylinders: 64},
		Engine:   e,
	})}
	store, err := NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(store, l, []int64{0}, total)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		w := w
		var vec Vec
		for b := int64(0); b < total; b += 2 {
			vec = append(vec, VecSeg{Block: b + int64(w), N: 1, BufOff: (b / 2) * bs})
		}
		data := bytes.Repeat([]byte{byte('A' + w)}, total/2*bs)
		e.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			if err := writeSieved(p, set, vec, data); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, total*bs)
	if err := readRange(sim.NewWall(), set, 0, total, img); err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < total; b++ {
		want := byte('A' + b%2)
		for _, got := range img[b*bs : (b+1)*bs] {
			if got != want {
				t.Fatalf("block %d: byte %q, want %q — a sieved RMW wrote back a stale hole", b, got, want)
			}
		}
	}
}

// FuzzSieveSpans feeds random block-selection bitmaps through the sieve
// planner and the write path, checking the span invariants (one span per
// device; the span covers every requested block exactly once; Useful
// counts exactly the requested blocks) and that the read-modify-write
// preserves every untouched byte of the covering span.
func FuzzSieveSpans(f *testing.F) {
	f.Add(uint64(0b1011), uint8(0))
	f.Add(uint64(0xdeadbeef), uint8(1))
	f.Add(^uint64(0), uint8(2))
	f.Fuzz(func(t *testing.T, bits uint64, layoutSel uint8) {
		var l Layout
		switch layoutSel % 3 {
		case 0:
			l = NewStriped(3, 4)
		case 1:
			l = NewStriped(1, 4)
		default:
			var err error
			l, err = NewPartitioned(2, []int64{20, 24, 20}, 1, PackContiguous)
			if err != nil {
				t.Fatal(err)
			}
		}
		const total, bs = 64, 64
		set, _ := newTestSet(t, l, total)
		vec, picked := sieveVecFromBits(bits, total, bs)
		if picked == 0 {
			return
		}
		runs, err := set.MapVec(vec)
		if err != nil {
			t.Fatal(err)
		}
		spans := sieveSpans(nil, runs)
		seen := map[int]bool{}
		var useful int64
		for _, sp := range spans {
			if seen[sp.Dev] {
				t.Fatalf("device %d has two spans", sp.Dev)
			}
			seen[sp.Dev] = true
			var inSpan int64
			pos := sp.PBlock
			for _, r := range sp.Runs {
				if r.Dev != sp.Dev {
					t.Fatalf("span dev %d holds run for dev %d", sp.Dev, r.Dev)
				}
				if r.PBlock < pos {
					t.Fatalf("dev %d: run at pblock %d overlaps or precedes cursor %d", sp.Dev, r.PBlock, pos)
				}
				pos = r.PBlock + r.N
				inSpan += r.N
			}
			if pos > sp.PBlock+sp.Blocks {
				t.Fatalf("dev %d: runs overrun the span", sp.Dev)
			}
			if sp.Runs[0].PBlock != sp.PBlock || pos != sp.PBlock+sp.Blocks {
				t.Fatalf("dev %d: span [%d,%d) not tight around runs", sp.Dev, sp.PBlock, sp.PBlock+sp.Blocks)
			}
			if sp.Useful != inSpan {
				t.Fatalf("dev %d: Useful %d != run blocks %d", sp.Dev, sp.Useful, inSpan)
			}
			useful += sp.Useful
		}
		var mapped int64
		for _, r := range runs {
			mapped += r.N
		}
		if useful != picked || mapped != picked {
			t.Fatalf("requested %d blocks, spans hold %d, runs hold %d", picked, useful, mapped)
		}
		// RMW preservation: write through the sieve, check the full image.
		ctx := sim.NewWall()
		base := make([]byte, total*bs)
		rand.New(rand.NewSource(int64(bits))).Read(base)
		if err := writeRange(ctx, set, 0, total, base); err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{0x5a}, int(picked)*bs)
		if err := writeSieved(ctx, set, vec, data); err != nil {
			t.Fatal(err)
		}
		img := make([]byte, total*bs)
		if err := readRange(ctx, set, 0, total, img); err != nil {
			t.Fatal(err)
		}
		for _, sg := range vec {
			copy(base[sg.Block*bs:(sg.Block+sg.N)*bs], data[sg.BufOff:sg.BufOff+sg.N*bs])
		}
		if !bytes.Equal(img, base) {
			t.Fatal("sieved RMW altered untouched bytes")
		}
	})
}
