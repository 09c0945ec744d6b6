package volio

import (
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func mkVolume(t *testing.T, devs int) ([]*device.Disk, *pfs.Volume) {
	t.Helper()
	disks := make([]*device.Disk, devs)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 64},
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	return disks, pfs.NewVolume(store)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	disks, vol := mkVolume(t, 3)
	ctx := sim.NewWall()
	f, err := vol.Create(pfs.Spec{
		Name: "data", Org: pfs.OrgPartitioned, RecordSize: 64,
		BlockRecords: 2, NumRecords: 48, Parts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.OpenWriter(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for r := int64(0); r < 48; r++ {
		workload.Record(buf, 9, r)
		if _, err := w.WriteRecord(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := Save(dir, disks, vol); err != nil {
		t.Fatal(err)
	}
	_, vol2, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := vol2.Lookup("data")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Spec().Org != pfs.OrgPartitioned || f2.Parts() != 3 {
		t.Fatalf("restored spec = %+v", f2.Spec())
	}
	r, err := core.OpenReader(f2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(0); want < 48; want++ {
		data, rec, err := r.ReadRecord(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rec != want {
			t.Fatalf("rec %d, want %d", rec, want)
		}
		if err := workload.CheckRecord(data, 9, want); err != nil {
			t.Fatal(err)
		}
	}
	_ = r.Close(ctx)
}

func TestSaveLoadSurvivesRemovals(t *testing.T) {
	disks, vol := mkVolume(t, 2)
	ctx := sim.NewWall()
	if _, err := vol.Create(pfs.Spec{Name: "temp", RecordSize: 64, NumRecords: 16}); err != nil {
		t.Fatal(err)
	}
	keep, err := vol.Create(pfs.Spec{Name: "keep", RecordSize: 64, NumRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.OpenWriter(keep, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for r := int64(0); r < 16; r++ {
		workload.Record(buf, 4, r)
		if _, err := w.WriteRecord(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := vol.Remove("temp"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(dir, disks, vol); err != nil {
		t.Fatal(err)
	}
	_, vol2, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vol2.Files()) != 1 {
		t.Fatalf("restored files = %v", vol2.Files())
	}
	// "keep" was allocated AFTER "temp"; its extents must still point at
	// the right data.
	f2, err := vol2.Lookup("keep")
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.OpenReader(f2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(0); want < 16; want++ {
		data, _, err := r.ReadRecord(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.CheckRecord(data, 4, want); err != nil {
			t.Fatal(err)
		}
	}
	_ = r.Close(ctx)
	// New files on the restored volume must not collide with "keep".
	f3, err := vol2.Create(pfs.Spec{Name: "new", RecordSize: 64, NumRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	w3, err := core.OpenWriter(f3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, 64)
	for r := int64(0); r < 16; r++ {
		if _, err := w3.WriteRecord(ctx, zero); err != nil {
			t.Fatal(err)
		}
	}
	_ = w3.Close(ctx)
	r2, err := core.OpenReader(f2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := r2.ReadRecord(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.CheckRecord(data, 4, 0); err != nil {
		t.Fatalf("new allocation collided with restored file: %v", err)
	}
	_ = r2.Close(ctx)
}

func TestLoadMissingDir(t *testing.T) {
	if _, _, err := Load("/nonexistent/volume", nil); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestSaveValidation(t *testing.T) {
	disks, vol := mkVolume(t, 2)
	if err := Save(t.TempDir(), disks[:1], vol); err == nil {
		t.Fatal("mismatched disk count accepted")
	}
}

// TestSaveLoadExtentWritten round-trips a volume whose file was written
// through the coalescing extent path (ExtentBlocks > 1) and re-read with
// it after restore: persistence must be byte-identical regardless of the
// transfer granularity that produced the device images.
func TestSaveLoadExtentWritten(t *testing.T) {
	disks, vol := mkVolume(t, 3)
	ctx := sim.NewWall()
	const records = 96
	f, err := vol.Create(pfs.Spec{
		Name: "extent", Org: pfs.OrgSequential, RecordSize: 64,
		BlockRecords: 2, NumRecords: records, StripeUnitFS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.OpenWriter(f, core.Options{NBufs: 2, ExtentBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for r := int64(0); r < records; r++ {
		workload.Record(buf, 31, r)
		if _, err := w.WriteRecord(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := Save(dir, disks, vol); err != nil {
		t.Fatal(err)
	}
	_, vol2, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := vol2.Lookup("extent")
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.OpenReader(f2, core.Options{NBufs: 2, ExtentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < records; i++ {
		data, rec, err := r.ReadRecord(ctx)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec != i {
			t.Fatalf("record index %d, want %d", rec, i)
		}
		if err := workload.CheckRecord(data, 31, i); err != nil {
			t.Fatalf("restored record %d corrupt: %v", i, err)
		}
	}
	_ = r.Close(ctx)
}

// TestLoadRejectsMalformedImage hand-writes device images that name a
// block past the drive, a negative block, or a page cut short, as a
// damaged or truncated image would: Load must refuse each with an error
// naming the device and the block, not hand back a drive holding them.
func TestLoadRejectsMalformedImage(t *testing.T) {
	disks, vol := mkVolume(t, 2)
	bs := disks[0].Geometry().BlockSize
	for _, tc := range []struct {
		pages map[int64][]byte
		want  string
	}{
		{map[int64][]byte{0: make([]byte, bs), 1 << 40: make([]byte, bs)}, "block 1099511627776"},
		{map[int64][]byte{-5: make([]byte, bs)}, "block -5"},
		{map[int64][]byte{3: make([]byte, bs/2)}, "block 3 is 128 bytes"},
	} {
		dir := t.TempDir()
		if err := Save(dir, disks, vol); err != nil {
			t.Fatal(err)
		}
		df, err := os.Create(filepath.Join(dir, "dev001.gob"))
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(df).Encode(tc.pages); err != nil {
			t.Fatal(err)
		}
		if err := df.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, err = Load(dir, nil)
		if err == nil || !strings.Contains(err.Error(), "restore device 1") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Load of image %v = %v, want an error naming device 1 and %q", tc.pages, err, tc.want)
		}
	}
}
