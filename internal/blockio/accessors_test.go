package blockio

import (
	"strings"
	"testing"

	"repro/internal/device"
)

func TestLayoutNames(t *testing.T) {
	s := NewStriped(4, 2)
	if !strings.Contains(s.Name(), "striped") || !strings.Contains(s.Name(), "d=4") {
		t.Fatalf("striped name %q", s.Name())
	}
	p, err := NewPartitioned(2, []int64{4, 4}, 1, PackContiguous)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Name(), "partitioned") || !strings.Contains(p.Name(), "contiguous") {
		t.Fatalf("partitioned name %q", p.Name())
	}
	il, err := NewInterleaved(2, 4, 1, 16, PackInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(il.Name(), "interleaved") {
		t.Fatalf("interleaved name %q", il.Name())
	}
}

func TestDirectAccessors(t *testing.T) {
	disks := smallDisks(3)
	d, err := NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	if d.Blocks() != disks[0].Geometry().Blocks() {
		t.Fatalf("Blocks = %d", d.Blocks())
	}
	if d.Drives()[1] != disks[1] {
		t.Fatal("Drives accessor wrong")
	}
}

func TestSetAccessors(t *testing.T) {
	store, err := NewDirect(smallDisks(2))
	if err != nil {
		t.Fatal(err)
	}
	layout := NewStriped(2, 1)
	set, err := NewSet(store, layout, []int64{3, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if set.Store() != Store(store) {
		t.Fatal("Store accessor wrong")
	}
	if set.Layout() != Layout(layout) {
		t.Fatal("Layout accessor wrong")
	}
	if set.Base(0) != 3 || set.Base(1) != 5 {
		t.Fatalf("Base = %d, %d", set.Base(0), set.Base(1))
	}
}

func TestInterleavedProcsOnDev(t *testing.T) {
	il, err := NewInterleaved(3, 7, 1, 21, PackInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	// procs 0..6 on 3 devices: dev0 hosts {0,3,6}, dev1 {1,4}, dev2
	// {2,5}. Interleaved packing gives each device's streams one unit a
	// round in turn, so a round on a device is as long as its streams
	// are many.
	for q, want := range []int64{3, 2, 2, 4, 3, 3, 5} {
		if dev, off := il.place(q, 1); dev != q%3 || off != want {
			t.Fatalf("stream %d round 1 at device %d block %d, want %d block %d", q, dev, off, q%3, want)
		}
	}
}

func TestGeometryOfDisk(t *testing.T) {
	d := device.New(device.Config{})
	if d.Geometry().BlockSize != device.DefaultGeometry1989().BlockSize {
		t.Fatal("default geometry mismatch")
	}
}
