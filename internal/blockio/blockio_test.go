package blockio

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/sim"
)

func smallDisks(n int) []*device.Disk {
	disks := make([]*device.Disk, n)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     "d",
			Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 32},
		})
	}
	return disks
}

// checkBijective verifies a layout never places two logical blocks on the
// same physical location.
func checkBijective(t *testing.T, l Layout, total int64) {
	t.Helper()
	if err := placementError(l, total); err != nil {
		t.Fatal(err)
	}
}

// placementError reports a block of [0, total) that MapRun places off the
// layout's devices, below physical block 0, or on another block's place.
func placementError(l Layout, total int64) error {
	seen := make(map[[2]int64]int64)
	for _, r := range l.MapRun(nil, 0, total) {
		if r.Dev < 0 || r.Dev >= l.Devices() || r.PBlock < 0 {
			return fmt.Errorf("%s: blocks from %d mapped to device %d of %d, pblock %d", l.Name(), r.B, r.Dev, l.Devices(), r.PBlock)
		}
		for i := int64(0); i < r.N; i++ {
			key := [2]int64{int64(r.Dev), r.PBlock + i}
			if prev, dup := seen[key]; dup {
				return fmt.Errorf("%s: blocks %d and %d collide at dev %d pblock %d", l.Name(), prev, r.B+i, r.Dev, r.PBlock+i)
			}
			seen[key] = r.B + i
		}
	}
	return nil
}

func TestStripedMapping(t *testing.T) {
	s := NewStriped(4, 1)
	wantDev := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for b, wd := range wantDev {
		dev, pb := refMap(s, int64(b))
		if dev != wd || pb != int64(b/4) {
			t.Fatalf("Map(%d) = (%d,%d), want (%d,%d)", b, dev, pb, wd, b/4)
		}
	}
}

func TestStripedUnitMapping(t *testing.T) {
	s := NewStriped(2, 3)
	// unit 3: blocks 0,1,2 -> dev0 pb0,1,2; 3,4,5 -> dev1 pb0,1,2; 6 -> dev0 pb3.
	cases := []struct {
		b   int64
		dev int
		pb  int64
	}{{0, 0, 0}, {2, 0, 2}, {3, 1, 0}, {5, 1, 2}, {6, 0, 3}, {11, 1, 5}, {12, 0, 6}}
	for _, c := range cases {
		dev, pb := refMap(s, c.b)
		if dev != c.dev || pb != c.pb {
			t.Fatalf("Map(%d) = (%d,%d), want (%d,%d)", c.b, dev, pb, c.dev, c.pb)
		}
	}
}

func TestStripedBijective(t *testing.T) {
	checkBijective(t, NewStriped(3, 2), 100)
	checkBijective(t, NewStriped(1, 1), 50)
	checkBijective(t, NewStriped(7, 5), 200)
}

func TestStripedUnitClamped(t *testing.T) {
	s := NewStriped(2, 0)
	if s.Unit != 1 {
		t.Fatalf("unit 0 should clamp to 1, got %d", s.Unit)
	}
}

func TestStripedBalance(t *testing.T) {
	s := NewStriped(4, 2)
	need := PerDevice(s, 64) // 8 full rounds of 4 devices x 2 blocks
	for dev, n := range need {
		if n != 16 {
			t.Fatalf("dev %d extent %d, want 16", dev, n)
		}
	}
}

func TestPartitionedContiguousOneDevicePerPart(t *testing.T) {
	p, err := NewPartitioned(3, []int64{4, 4, 4}, 1, PackContiguous)
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 12; b++ {
		dev, pb := refMap(p, b)
		if dev != int(b/4) || pb != b%4 {
			t.Fatalf("Map(%d) = (%d,%d), want (%d,%d)", b, dev, pb, b/4, b%4)
		}
	}
}

func TestPartitionedSharedDeviceContiguous(t *testing.T) {
	// 4 partitions of 4 blocks on 2 devices: parts 0,2 on dev0; 1,3 on dev1.
	p, err := NewPartitioned(2, []int64{4, 4, 4, 4}, 1, PackContiguous)
	if err != nil {
		t.Fatal(err)
	}
	// Part 2 (blocks 8..11) should be at dev0 pblocks 4..7.
	dev, pb := refMap(p, 8)
	if dev != 0 || pb != 4 {
		t.Fatalf("Map(8) = (%d,%d), want (0,4)", dev, pb)
	}
	checkBijective(t, p, 16)
}

func TestPartitionedSharedDeviceInterleaved(t *testing.T) {
	// Unit 2, parts 0,2 share dev0. Part0 unit0 -> pb 0..1, part2 unit0 -> pb 2..3,
	// part0 unit1 -> pb 4..5, part2 unit1 -> pb 6..7.
	p, err := NewPartitioned(2, []int64{4, 4, 4, 4}, 2, PackInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		b   int64
		dev int
		pb  int64
	}{{0, 0, 0}, {1, 0, 1}, {2, 0, 4}, {3, 0, 5}, {8, 0, 2}, {9, 0, 3}, {10, 0, 6}, {11, 0, 7}}
	for _, c := range cases {
		dev, pb := refMap(p, c.b)
		if dev != c.dev || pb != c.pb {
			t.Fatalf("Map(%d) = (%d,%d), want (%d,%d)", c.b, dev, pb, c.dev, c.pb)
		}
	}
	checkBijective(t, p, 16)
}

func TestPartitionedUnevenSizes(t *testing.T) {
	p, err := NewPartitioned(2, []int64{5, 3, 2}, 1, PackContiguous)
	if err != nil {
		t.Fatal(err)
	}
	checkBijective(t, p, 10)
	if parts := len(p.starts) - 1; parts != 3 {
		t.Fatalf("parts = %d", parts)
	}
	if s, e := p.starts[1], p.starts[2]; s != 5 || e != 8 {
		t.Fatalf("partition 1 = [%d,%d)", s, e)
	}
	for b := int64(0); b < 10; b++ {
		want := 0
		switch {
		case b >= 8:
			want = 2
		case b >= 5:
			want = 1
		}
		if got := p.PartOf(b); got != want {
			t.Fatalf("PartOf(%d) = %d, want %d", b, got, want)
		}
	}
}

func TestPartitionedErrors(t *testing.T) {
	if _, err := NewPartitioned(0, []int64{1}, 1, PackContiguous); err == nil {
		t.Fatal("0 devices accepted")
	}
	if _, err := NewPartitioned(1, nil, 1, PackContiguous); err == nil {
		t.Fatal("no partitions accepted")
	}
	if _, err := NewPartitioned(1, []int64{-1}, 1, PackContiguous); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestInterleavedEqualProcsDevices(t *testing.T) {
	// P == D: each proc's stream sequential on its own device.
	il, err := NewInterleaved(3, 3, 1, 12, PackInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 12; b++ {
		dev, pb := refMap(il, b)
		if dev != int(b%3) || pb != b/3 {
			t.Fatalf("Map(%d) = (%d,%d), want (%d,%d)", b, dev, pb, b%3, b/3)
		}
	}
}

func TestInterleavedMoreProcsThanDevices(t *testing.T) {
	// P=4 procs on D=2 devices: procs 0,2 -> dev0; 1,3 -> dev1.
	il, err := NewInterleaved(2, 4, 1, 16, PackInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	checkBijective(t, il, 16)
	// Block 0 (proc0 round0) and block 2 (proc2 round0) both on dev0.
	d0, p0 := refMap(il, 0)
	d2, p2 := refMap(il, 2)
	if d0 != 0 || d2 != 0 {
		t.Fatalf("devs = %d,%d want 0,0", d0, d2)
	}
	if p0 == p2 {
		t.Fatal("collision on shared device")
	}
}

func TestInterleavedContiguousPacking(t *testing.T) {
	il, err := NewInterleaved(2, 4, 1, 16, PackContiguous)
	if err != nil {
		t.Fatal(err)
	}
	checkBijective(t, il, 16)
	// proc0 owns groups 0,4,8,12 -> 4 groups at dev0 pblocks 0..3;
	// proc2 owns groups 2,6,10,14 -> dev0 pblocks 4..7.
	dev, pb := refMap(il, 2) // proc2 round0
	if dev != 0 || pb != 4 {
		t.Fatalf("Map(2) = (%d,%d), want (0,4)", dev, pb)
	}
}

func TestInterleavedUnits(t *testing.T) {
	il, err := NewInterleaved(2, 2, 3, 24, PackInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	checkBijective(t, il, 24)
	// Group = 3 blocks. Block 0..2 -> proc0 dev0 pb0..2; 3..5 -> proc1 dev1 pb0..2;
	// 6..8 -> proc0 dev0 pb3..5.
	dev, pb := refMap(il, 7)
	if dev != 0 || pb != 4 {
		t.Fatalf("Map(7) = (%d,%d), want (0,4)", dev, pb)
	}
}

func TestInterleavedErrors(t *testing.T) {
	if _, err := NewInterleaved(0, 1, 1, 1, PackInterleaved); err == nil {
		t.Fatal("0 devices accepted")
	}
	if _, err := NewInterleaved(1, 0, 1, 1, PackInterleaved); err == nil {
		t.Fatal("0 procs accepted")
	}
}

// TestLayoutBijectiveQuick draws striped and interleaved (both packings)
// layouts at random: MapRun over the whole file is one-to-one and equals
// the per-block reference (refMap).
func TestLayoutBijectiveQuick(t *testing.T) {
	err := quick.Check(func(d8, p8, u8 uint8, total16 uint16) bool {
		d := int(d8%6) + 1
		procs := int(p8%6) + 1
		unit := int64(u8%4) + 1
		total := int64(total16%200) + 1
		layouts := []Layout{NewStriped(d, unit)}
		for _, pack := range []Pack{PackInterleaved, PackContiguous} {
			il, err := NewInterleaved(d, procs, unit, total, pack)
			if err != nil {
				return false
			}
			layouts = append(layouts, il)
		}
		for _, l := range layouts {
			if placementError(l, total) != nil || !reflect.DeepEqual(l.MapRun(nil, 0, total), bruteRuns(l, 0, total)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPerDeviceCoversMapping(t *testing.T) {
	l, err := NewPartitioned(2, []int64{7, 5, 3}, 2, PackInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	need := PerDevice(l, 15)
	for b := int64(0); b < 15; b++ {
		dev, pb := refMap(l, b)
		if pb >= need[dev] {
			t.Fatalf("block %d at dev %d pb %d exceeds extent %d", b, dev, pb, need[dev])
		}
	}
}

func TestDirectStoreValidation(t *testing.T) {
	if _, err := NewDirect(nil); err == nil {
		t.Fatal("empty device set accepted")
	}
	mixed := []*device.Disk{
		device.New(device.Config{Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 2, Cylinders: 2}}),
		device.New(device.Config{Geometry: device.Geometry{BlockSize: 512, BlocksPerCyl: 2, Cylinders: 2}}),
	}
	if _, err := NewDirect(mixed); err == nil {
		t.Fatal("mixed geometry accepted")
	}
}

func TestSetRoundTripAcrossLayouts(t *testing.T) {
	layouts := []func(total int64) Layout{
		func(total int64) Layout { return NewStriped(4, 1) },
		func(total int64) Layout {
			l, err := NewPartitioned(4, []int64{8, 8, 8, 8}, 2, PackContiguous)
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
		func(total int64) Layout {
			l, err := NewInterleaved(4, 8, 2, total, PackInterleaved)
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
	}
	const total = 32
	for _, mk := range layouts {
		layout := mk(total)
		store, err := NewDirect(smallDisks(4))
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewSet(store, layout, make([]int64, 4), total)
		if err != nil {
			t.Fatal(err)
		}
		ctx := sim.NewWall()
		bs := set.Store().BlockSize()
		for b := int64(0); b < total; b++ {
			blk := bytes.Repeat([]byte{byte(b + 1)}, bs)
			if err := set.WriteVec(ctx, Vec{{Block: b, N: 1}}, blk); err != nil {
				t.Fatalf("%s: write %d: %v", layout.Name(), b, err)
			}
		}
		for b := int64(0); b < total; b++ {
			got := make([]byte, bs)
			if err := set.ReadVec(ctx, Vec{{Block: b, N: 1}}, got); err != nil {
				t.Fatalf("%s: read %d: %v", layout.Name(), b, err)
			}
			if got[0] != byte(b+1) || got[bs-1] != byte(b+1) {
				t.Fatalf("%s: block %d corrupted (got %d)", layout.Name(), b, got[0])
			}
		}
	}
}

func TestSetWithExtentBases(t *testing.T) {
	store, err := NewDirect(smallDisks(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	bs := store.BlockSize()
	// Two files on the same devices at different bases must not collide.
	mk := func(base int64) *Set {
		set, err := NewSet(store, NewStriped(2, 1), []int64{base, base}, 20)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	f1, f2 := mk(0), mk(10)
	blkA := bytes.Repeat([]byte{0xaa}, bs)
	blkB := bytes.Repeat([]byte{0xbb}, bs)
	if err := f1.WriteVec(ctx, Vec{{Block: 0, N: 1}}, blkA); err != nil {
		t.Fatal(err)
	}
	if err := f2.WriteVec(ctx, Vec{{Block: 0, N: 1}}, blkB); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, bs)
	if err := f1.ReadVec(ctx, Vec{{Block: 0, N: 1}}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xaa {
		t.Fatal("file extents collided")
	}
}

func TestSetValidation(t *testing.T) {
	store, err := NewDirect(smallDisks(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSet(store, NewStriped(3, 1), make([]int64, 3), 1); err == nil {
		t.Fatal("layout wider than store accepted")
	}
	if _, err := NewSet(store, NewStriped(2, 1), make([]int64, 1), 1); err == nil {
		t.Fatal("wrong base count accepted")
	}
}

func TestPackString(t *testing.T) {
	if PackContiguous.String() != "contiguous" || PackInterleaved.String() != "interleaved" {
		t.Fatal("Pack String broken")
	}
	if Pack(5).String() == "" {
		t.Fatal("unknown Pack empty")
	}
}
