package blockio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// testLayouts enumerates layout instances covering all three families,
// both pack policies, shared devices, uneven partitions and partial
// trailing units. Each comes with the logical total it was sized for.
func testLayouts(t *testing.T) []struct {
	name   string
	layout Layout
	total  int64
} {
	t.Helper()
	mk := func(name string, l Layout, err error, total int64) struct {
		name   string
		layout Layout
		total  int64
	} {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return struct {
			name   string
			layout Layout
			total  int64
		}{name, l, total}
	}
	p1, err1 := NewPartitioned(4, []int64{13, 7, 0, 22, 5}, 3, PackContiguous)
	p2, err2 := NewPartitioned(4, []int64{13, 7, 0, 22, 5}, 3, PackInterleaved)
	p3, err3 := NewPartitioned(2, []int64{9, 9, 9}, 1, PackInterleaved)
	i1, err4 := NewInterleaved(4, 6, 3, 47, PackContiguous)
	i2, err5 := NewInterleaved(4, 6, 3, 47, PackInterleaved)
	i3, err6 := NewInterleaved(3, 3, 2, 17, PackContiguous)
	return []struct {
		name   string
		layout Layout
		total  int64
	}{
		{"striped-d4-u1", NewStriped(4, 1), 47},
		{"striped-d4-u8", NewStriped(4, 8), 100},
		{"striped-d1-u4", NewStriped(1, 4), 23},
		{"striped-d3-u5", NewStriped(3, 5), 61},
		mk("part-contig", p1, err1, 47),
		mk("part-inter", p2, err2, 47),
		mk("part-inter-shared", p3, err3, 27),
		mk("inter-contig", i1, err4, 47),
		mk("inter-inter", i2, err5, 47),
		mk("inter-contig-d3", i3, err6, 17),
	}
}

// refMap is the per-block reference the layouts' MapRun is held to: each
// §4 placement's formula for one logical block, written out on its own
// from the layout's parameters and sharing no code with MapRun.
func refMap(l Layout, b int64) (dev int, pb int64) {
	switch l := l.(type) {
	case *Striped:
		stripe := b / l.Unit
		return int(stripe % int64(l.D)), (stripe/int64(l.D))*l.Unit + b%l.Unit
	case *Partitioned:
		part := 0
		for l.starts[part+1] <= b {
			part++
		}
		dev = part % l.D
		within := b - l.starts[part]
		// Blocks of the partitions before part on its device, how many
		// partitions share the device, and part's rank among them.
		var before, shared, rank int64
		for j := dev; j < len(l.starts)-1; j += l.D {
			if j < part {
				before += l.starts[j+1] - l.starts[j]
				rank++
			}
			shared++
		}
		if l.Policy == PackInterleaved {
			return dev, ((within/l.Unit)*shared+rank)*l.Unit + within%l.Unit
		}
		return dev, before + within
	case *Interleaved:
		group := b / l.Unit
		proc, round := group%int64(l.P), group/int64(l.P)
		dev = int(proc) % l.D
		if l.Policy == PackContiguous {
			// The groups of the streams packed before proc's on its device.
			groups := (l.total + l.Unit - 1) / l.Unit
			var before int64
			for q := int64(dev); q < proc; q += int64(l.D) {
				for g := q; g < groups; g += int64(l.P) {
					before++
				}
			}
			return dev, (before+round)*l.Unit + b%l.Unit
		}
		var shared int64 // streams on the device
		for q := dev; q < l.P; q += l.D {
			shared++
		}
		return dev, (round*shared+proc/int64(l.D))*l.Unit + b%l.Unit
	}
	panic(fmt.Sprintf("refMap: no reference placement for %T", l))
}

// bruteRuns builds the expected run decomposition by placing every block
// with refMap and merging physically and logically adjacent neighbours.
func bruteRuns(l Layout, b, n int64) []Run {
	var runs []Run
	for i := int64(0); i < n; i++ {
		dev, pb := refMap(l, b+i)
		runs = appendRun(runs, dev, pb, b+i, 1)
	}
	return runs
}

// TestMapRunMatchesMap asserts that every layout's MapRun decomposition
// equals the per-block reference (refMap) over every (start, length)
// window.
func TestMapRunMatchesMap(t *testing.T) {
	for _, tc := range testLayouts(t) {
		t.Run(tc.name, func(t *testing.T) {
			for b := int64(0); b < tc.total; b++ {
				for n := int64(0); b+n <= tc.total; n++ {
					got := tc.layout.MapRun(nil, b, n)
					want := bruteRuns(tc.layout, b, n)
					if len(got) != len(want) {
						t.Fatalf("MapRun(%d,%d): %d runs, want %d\n got %v\nwant %v",
							b, n, len(got), len(want), got, want)
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.Dev != w.Dev || g.PBlock != w.PBlock || g.B != w.B || g.N != w.N || g.Segs != nil {
							t.Fatalf("MapRun(%d,%d) run %d = %+v, want %+v", b, n, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestPerDeviceClosedForm holds PerDevice, which reads the extents off
// MapRun, to the closed-form per-block reference (refMap) placed block by
// block, for every prefix total of every layout.
func TestPerDeviceClosedForm(t *testing.T) {
	for _, tc := range testLayouts(t) {
		t.Run(tc.name, func(t *testing.T) {
			for total := int64(0); total <= tc.total; total++ {
				got := PerDevice(tc.layout, total)
				want := make([]int64, tc.layout.Devices())
				for b := int64(0); b < total; b++ {
					dev, pb := refMap(tc.layout, b)
					if pb+1 > want[dev] {
						want[dev] = pb + 1
					}
				}
				for dev := range want {
					if got[dev] != want[dev] {
						t.Fatalf("PerDevice(total=%d) dev %d = %d, want %d (full: got %v want %v)",
							total, dev, got[dev], want[dev], got, want)
					}
				}
			}
		})
	}
}

// newTestSet builds a Set over fresh untimed disks for a layout.
func newTestSet(t *testing.T, l Layout, total int64) (*Set, []*device.Disk) {
	t.Helper()
	disks := make([]*device.Disk, l.Devices())
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
	set, err := NewSet(store, l, make([]int64, l.Devices()), total)
	if err != nil {
		t.Fatal(err)
	}
	return set, disks
}

// A range is the one-segment descriptor.

func readRange(ctx sim.Context, s *Set, b, n int64, dst []byte) error {
	return s.ReadVec(ctx, Vec{{Block: b, N: n}}, dst)
}

func writeRange(ctx sim.Context, s *Set, b, n int64, src []byte) error {
	return s.WriteVec(ctx, Vec{{Block: b, N: n}}, src)
}

// TestRangeEquivalence asserts ranged transfers are bit-for-bit
// identical to block-at-a-time loops on every layout: data written by
// range reads back block-by-block, and data written block-by-block
// reads back by range.
func TestRangeEquivalence(t *testing.T) {
	ctx := sim.NewWall()
	for _, tc := range testLayouts(t) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			bs := 64
			set, _ := newTestSet(t, tc.layout, tc.total)
			data := make([]byte, int(tc.total)*bs)
			rng.Read(data)
			// Write the whole space by range in irregular chunks.
			for b := int64(0); b < tc.total; {
				n := int64(rng.Intn(7) + 1)
				if b+n > tc.total {
					n = tc.total - b
				}
				if err := writeRange(ctx, set, b, n, data[b*int64(bs):(b+n)*int64(bs)]); err != nil {
					t.Fatalf("writeRange(%d,%d): %v", b, n, err)
				}
				b += n
			}
			// Read back block-at-a-time.
			buf := make([]byte, bs)
			for b := int64(0); b < tc.total; b++ {
				if err := set.ReadVec(ctx, Vec{{Block: b, N: 1}}, buf); err != nil {
					t.Fatalf("read block %d: %v", b, err)
				}
				if !bytes.Equal(buf, data[b*int64(bs):(b+1)*int64(bs)]) {
					t.Fatalf("block %d mismatch after a ranged write", b)
				}
			}

			// Fresh set: write block-at-a-time, read back by range.
			set2, _ := newTestSet(t, tc.layout, tc.total)
			for b := int64(0); b < tc.total; b++ {
				if err := set2.WriteVec(ctx, Vec{{Block: b, N: 1}}, data[b*int64(bs):(b+1)*int64(bs)]); err != nil {
					t.Fatalf("write block %d: %v", b, err)
				}
			}
			got := make([]byte, len(data))
			for b := int64(0); b < tc.total; {
				n := int64(rng.Intn(9) + 1)
				if b+n > tc.total {
					n = tc.total - b
				}
				if err := readRange(ctx, set2, b, n, got[b*int64(bs):(b+n)*int64(bs)]); err != nil {
					t.Fatalf("readRange(%d,%d): %v", b, n, err)
				}
				b += n
			}
			if !bytes.Equal(got, data) {
				t.Fatal("ranged read differs from per-block writes")
			}
		})
	}
}

// TestRangeCoalescesRequests asserts that a ranged sequential scan of a
// striped layout issues one device request per drive — a drive's stripe
// units are physically adjacent, and the map stage merges them — rather
// than one per block or one per unit.
func TestRangeCoalescesRequests(t *testing.T) {
	ctx := sim.NewWall()
	const unit, devs, total = 8, 4, 256
	l := NewStriped(devs, unit)
	set, disks := newTestSet(t, l, total)
	buf := make([]byte, total*64)
	if err := readRange(ctx, set, 0, total, buf); err != nil {
		t.Fatal(err)
	}
	var requests int64
	for _, d := range disks {
		requests += d.Stats().Requests()
	}
	if want := int64(devs); requests != want {
		t.Fatalf("requests = %d, want %d (one per drive, %d units of %d blocks each)", requests, want, total/unit/devs, unit)
	}
}

// TestRangeUnderEngine runs ranged transfers from managed processes so
// the per-device parallel issue path (sim.Par) is exercised.
func TestRangeUnderEngine(t *testing.T) {
	const total = 96
	const bs = 64
	l := NewStriped(4, 4)
	e := sim.NewEngine()
	disks := make([]*device.Disk, l.Devices())
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     fmt.Sprintf("d%d", i),
			Geometry: device.Geometry{BlockSize: bs, BlocksPerCyl: 8, Cylinders: 64},
			Engine:   e,
		})
	}
	store, err := NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(store, l, make([]int64, l.Devices()), total)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, total*bs)
	rand.New(rand.NewSource(7)).Read(data)
	got := make([]byte, total*bs)
	e.Go("io", func(p *sim.Proc) {
		if err := writeRange(p, set, 0, total, data); err != nil {
			t.Errorf("writeRange: %v", err)
			return
		}
		if err := readRange(p, set, 0, total, got); err != nil {
			t.Errorf("readRange: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("engine round trip mismatch")
	}
}
