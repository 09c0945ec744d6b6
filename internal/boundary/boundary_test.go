package boundary

import (
	"io"
	"testing"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testVolume(t *testing.T, devs int) *pfs.Volume {
	t.Helper()
	disks := make([]*device.Disk, devs)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 256},
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	return pfs.NewVolume(store)
}

func TestLayoutValidation(t *testing.T) {
	if _, err := New(0, 10, 1); err == nil {
		t.Fatal("0 parts accepted")
	}
	if _, err := New(2, 0, 1); err == nil {
		t.Fatal("0 records accepted")
	}
	if _, err := New(2, 10, -1); err == nil {
		t.Fatal("negative halo accepted")
	}
	if _, err := New(2, 10, 6); err == nil {
		t.Fatal("halo > partition accepted")
	}
}

func TestRangesAndOverhead(t *testing.T) {
	l, err := New(4, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Owned: [0,10) [10,20) [20,30) [30,40).
	if f, e := l.OwnedRange(1); f != 10 || e != 20 {
		t.Fatalf("owned(1) = [%d,%d)", f, e)
	}
	// Stored: edges lose one halo side.
	if f, e := l.StoredRange(0); f != 0 || e != 12 {
		t.Fatalf("stored(0) = [%d,%d)", f, e)
	}
	if f, e := l.StoredRange(1); f != 8 || e != 22 {
		t.Fatalf("stored(1) = [%d,%d)", f, e)
	}
	if f, e := l.StoredRange(3); f != 28 || e != 40 {
		t.Fatalf("stored(3) = [%d,%d)", f, e)
	}
	// Total stored: 12 + 14 + 14 + 12 = 52; overhead = 12/40.
	if l.TotalStored() != 52 {
		t.Fatalf("TotalStored = %d", l.TotalStored())
	}
	if got := l.Overhead(); got != 0.3 {
		t.Fatalf("Overhead = %v", got)
	}
}

func TestReplicatedRoundTripPerPartition(t *testing.T) {
	v := testVolume(t, 4)
	ctx := sim.NewWall()
	l, err := New(4, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := CreateReplicated(v, "halo", 64, l)
	if err != nil {
		t.Fatal(err)
	}
	src := func(rec int64, buf []byte) error {
		workload.Record(buf, 11, rec)
		return nil
	}
	for p := 0; p < 4; p++ {
		if err := WriteReplicated(ctx, f, l, p, src, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Each partition reads back its stored range — including halos —
	// without touching other partitions.
	for p := 0; p < 4; p++ {
		pr, err := OpenPartReader(f, l, p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		first, end := l.StoredRange(p)
		want := first
		for {
			data, rec, err := pr.ReadRecord(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if rec != want {
				t.Fatalf("part %d read logical %d, want %d", p, rec, want)
			}
			if err := workload.CheckRecord(data, 11, rec); err != nil {
				t.Fatal(err)
			}
			want++
		}
		if want != end {
			t.Fatalf("part %d stopped at %d of %d", p, want, end)
		}
		if err := pr.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDedupReaderCanonicalStream(t *testing.T) {
	v := testVolume(t, 4)
	ctx := sim.NewWall()
	l, err := New(4, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := CreateReplicated(v, "halo", 64, l)
	if err != nil {
		t.Fatal(err)
	}
	src := func(rec int64, buf []byte) error {
		workload.Record(buf, 12, rec)
		return nil
	}
	for p := 0; p < 4; p++ {
		if err := WriteReplicated(ctx, f, l, p, src, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenDedupReader(f, l, ctx, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for {
		data, rec, err := d.ReadRecord(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec != want {
			t.Fatalf("dedup stream gave %d, want %d", rec, want)
		}
		if err := workload.CheckRecord(data, 12, rec); err != nil {
			t.Fatal(err)
		}
		want++
	}
	if want != 40 {
		t.Fatalf("dedup stream delivered %d of 40", want)
	}
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestHaloCache(t *testing.T) {
	v := testVolume(t, 4)
	ctx := sim.NewWall()
	l, err := New(4, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := CreatePlain(v, "plain", 64, l)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the plain file canonically.
	w, err := core.OpenWriter(plain, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for rec := int64(0); rec < 40; rec++ {
		workload.Record(buf, 13, rec)
		if _, err := w.WriteRecord(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Partition 1 caches its halos: records 8,9 and 20,21.
	h := NewHaloCache(l, 1, 64)
	if err := h.Fill(ctx, plain, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if len(h.records) != 4 {
		t.Fatalf("cache size %d, want 4", len(h.records))
	}
	if mem := len(h.records) * h.rs; mem != 4*64 {
		t.Fatalf("memory = %d", mem)
	}
	for _, rec := range []int64{8, 9, 20, 21} {
		data := h.Get(rec)
		if data == nil {
			t.Fatalf("halo %d missing", rec)
		}
		if err := workload.CheckRecord(data, 13, rec); err != nil {
			t.Fatal(err)
		}
	}
	if h.Get(15) != nil {
		t.Fatal("owned record in halo cache")
	}
	// Edge partitions have one-sided halos.
	h0 := NewHaloCache(l, 0, 64)
	if err := h0.Fill(ctx, plain, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if len(h0.records) != 2 {
		t.Fatalf("edge cache size %d, want 2", len(h0.records))
	}
}

func TestPlainFileSmallerThanReplicated(t *testing.T) {
	v := testVolume(t, 4)
	l, err := New(4, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := CreatePlain(v, "p", 64, l)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := CreateReplicated(v, "r", 64, l)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Mapper().NumRecords() >= repl.Mapper().NumRecords() {
		t.Fatalf("plain %d >= replicated %d", plain.Mapper().NumRecords(), repl.Mapper().NumRecords())
	}
}
