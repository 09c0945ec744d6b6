package blockio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// boundsOps is every way into the Set's pipeline a descriptor can take:
// the transfers under each strategy that maps differently, and the map
// stage on its own (Map, MapVec, a one-item batch plan). Each returns
// what the Set said of vec; a transfer's buffer is buf.
func boundsOps(ctx sim.Context, s *Set, buf []byte) map[string]func(Vec) error {
	return map[string]func(Vec) error{
		"ReadVec":                 func(v Vec) error { return s.ReadVec(ctx, v, buf) },
		"WriteVec":                func(v Vec) error { return s.WriteVec(ctx, v, buf) },
		"Transfer(read, sieved)":  func(v Vec) error { return s.Transfer(ctx, false, StrategySieved, v, Space{{Buf: buf}}) },
		"Transfer(write, sieved)": func(v Vec) error { return s.Transfer(ctx, true, StrategySieved, v, Space{{Buf: buf}}) },
		"Transfer(read, auto)":    func(v Vec) error { return s.Transfer(ctx, false, StrategyAuto, v, Space{{Buf: buf}}) },
		"Transfer(write, auto)":   func(v Vec) error { return s.Transfer(ctx, true, StrategyAuto, v, Space{{Buf: buf}}) },
		"Map":                     func(v Vec) error { _, _, _, err := s.Map(v, nil, nil); return err },
		"MapVec":                  func(v Vec) error { _, err := s.MapVec(v); return err },
		"BatchVec.Plan":           func(v Vec) error { _, err := BatchVec{{Set: s, Vec: v}}.Plan(nil); return err },
	}
}

// image reads the whole of s.
func image(t *testing.T, s *Set) []byte {
	t.Helper()
	buf := make([]byte, s.blocks*int64(s.Store().BlockSize()))
	if err := s.ReadVec(sim.NewWall(), Vec{{Block: 0, N: s.blocks}}, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSetRefusesBlocksOutsideItsFile: two 8-block unit-1 striped files
// whose extents abut on four drives, so that file a's block 8 would land
// on file b's block 0. A segment that ends past a, starts past it or
// starts below 0 is refused by every entry point, with an error naming
// the segment, before anything maps — and b, and a, stay byte for byte
// what they were. So is one whose buffer bytes end past the largest
// int64, which no sum of offset and length may wrap below the buffer's
// end.
func TestSetRefusesBlocksOutsideItsFile(t *testing.T) {
	const blocks = 8
	sets, _ := newBatchStore(t, 4, 1, blocks/4, 2)
	a, b := sets[0], sets[1]
	bs := int64(a.Store().BlockSize())
	ctx := sim.NewWall()
	for i, s := range sets {
		img := bytes.Repeat([]byte{byte(0x10 + i)}, int(blocks*bs))
		if err := s.WriteVec(ctx, Vec{{Block: 0, N: blocks}}, img); err != nil {
			t.Fatal(err)
		}
	}
	wantA, wantB := image(t, a), image(t, b)
	junk := bytes.Repeat([]byte{0xAA}, int(16*bs))
	for _, tc := range []struct {
		name string
		vec  Vec
		want string
	}{
		{"ends past the file", Vec{{Block: 6, N: 4}}, "segment 0: blocks"},
		{"starts at the end", Vec{{Block: 8, N: 4}}, "segment 0: blocks"},
		{"starts past the file", Vec{{Block: 9, N: 1}}, "segment 0: blocks"},
		{"starts below 0", Vec{{Block: -1, N: 1}}, "segment 0: blocks"},
		{"one good segment, one past the end", Vec{{Block: 0, N: 2}, {Block: 7, N: 2, BufOff: 2 * bs}}, "segment 1: blocks"},
		{"buffer end past the largest int64", Vec{{Block: 0, N: 1, BufOff: math.MaxInt64 / bs * bs}}, "segment 0: 1 blocks at buffer offset"},
	} {
		for name, op := range boundsOps(ctx, a, junk) {
			err := op(tc.vec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: %v, want the segment refused (%q)", tc.name, name, err, tc.want)
			}
			if !bytes.Equal(image(t, b), wantB) || !bytes.Equal(image(t, a), wantA) {
				t.Fatalf("%s, %s: a refused descriptor changed the files", tc.name, name)
			}
		}
	}
}

// FuzzSetBounds: two files of one seeded layout (striped, partitioned or
// interleaved) whose extents abut on every drive, and seeded descriptors
// against the first. A descriptor inside the file round-trips byte for
// byte through a seeded strategy; one with any segment outside the file
// is refused by every entry point with nothing written. The second file
// never changes.
func FuzzSetBounds(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		devs := 1 + rng.Intn(4)
		total := int64(8 + rng.Intn(40))
		var l Layout
		var err error
		switch rng.Intn(3) {
		case 0:
			l = NewStriped(devs, int64(1+rng.Intn(4)))
		case 1:
			sizes := make([]int64, 1+rng.Intn(2*devs))
			for b := int64(0); b < total; b++ {
				sizes[rng.Intn(len(sizes))]++
			}
			l, err = NewPartitioned(devs, sizes, int64(1+rng.Intn(3)), Pack(rng.Intn(2)))
		default:
			l, err = NewInterleaved(devs, 1+rng.Intn(2*devs), int64(1+rng.Intn(3)), total, Pack(rng.Intn(2)))
		}
		if err != nil {
			t.Fatal(err)
		}
		var disks []*device.Disk
		for i := 0; i < devs; i++ {
			disks = append(disks, device.New(device.Config{
				Name: fmt.Sprintf("d%d", i), Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 16},
			}))
		}
		store, err := NewDirect(disks)
		if err != nil {
			t.Fatal(err)
		}
		bs := int64(store.BlockSize())
		need := PerDevice(l, total)
		a, err := NewSet(store, l, make([]int64, devs), total)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSet(store, l, need, total)
		if err != nil {
			t.Fatal(err)
		}
		ctx := sim.NewWall()
		for _, s := range []*Set{a, b} {
			img := make([]byte, total*bs)
			rng.Read(img)
			if err := s.WriteVec(ctx, Vec{{Block: 0, N: total}}, img); err != nil {
				t.Fatal(err)
			}
		}
		wantA, wantB := image(t, a), image(t, b)
		for trial := 0; trial < 8; trial++ {
			// Disjoint segments inside [0, total), in ascending block
			// order, laid out in the buffer in a seeded order.
			var vec Vec
			for blk := rng.Int63n(4); blk < total; {
				n := min(1+rng.Int63n(5), total-blk)
				vec = append(vec, VecSeg{Block: blk, N: n})
				blk += n + rng.Int63n(7)
			}
			var size int64
			for _, i := range rng.Perm(len(vec)) {
				vec[i].BufOff = size
				size += vec[i].N * bs
			}
			if len(vec) > 0 && rng.Intn(2) == 0 {
				// Move one segment out of the file: past its end, across
				// it, or below block 0 — or its buffer bytes past the
				// largest int64.
				sg := &vec[rng.Intn(len(vec))]
				switch rng.Intn(4) {
				case 0:
					sg.Block = total + rng.Int63n(8)
				case 1:
					sg.Block = total - sg.N + 1 + rng.Int63n(sg.N)
				case 2:
					sg.Block = -1 - rng.Int63n(4)
				default:
					sg.BufOff = (math.MaxInt64 - rng.Int63n(sg.N)*bs) / bs * bs
				}
				buf := make([]byte, size)
				rng.Read(buf)
				for name, op := range boundsOps(ctx, a, buf) {
					if err := op(vec); err == nil {
						t.Fatalf("%s accepted %v on a %d-block file", name, vec, total)
					}
				}
			} else {
				data := make([]byte, size)
				rng.Read(data)
				strat := []Strategy{StrategyVectored, StrategySieved, StrategyAuto}[rng.Intn(3)]
				if err := a.Transfer(ctx, true, strat, vec, Space{{Buf: data}}); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, size)
				if err := a.Transfer(ctx, false, strat, vec, Space{{Buf: got}}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%v under %v did not round-trip", vec, strat)
				}
				for _, sg := range vec {
					copy(wantA[sg.Block*bs:(sg.Block+sg.N)*bs], data[sg.BufOff:])
				}
			}
			if !bytes.Equal(image(t, a), wantA) {
				t.Fatalf("trial %d: the file does not hold what was written to it (%v)", trial, vec)
			}
			if !bytes.Equal(image(t, b), wantB) {
				t.Fatalf("trial %d: the neighbouring file changed (%v)", trial, vec)
			}
		}
	})
}
