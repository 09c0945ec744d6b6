package convert

import (
	"errors"
	"io"
	"slices"
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
	v, _ := testVolumeDisks(t, devs, nil)
	return v
}

// testVolumeDisks is testVolume with the drives exposed (to fail them),
// timed by e when it is not nil.
func testVolumeDisks(t *testing.T, devs int, e *sim.Engine) (*pfs.Volume, []*device.Disk) {
	t.Helper()
	disks := make([]*device.Disk, devs)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 256},
			Engine:   e,
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	return pfs.NewVolume(store), disks
}

// fill writes workload records through the S view.
func fill(t *testing.T, f *pfs.File, ctx sim.Context, seed uint64) {
	t.Helper()
	w, err := core.OpenWriter(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.Mapper().RecordSize())
	for r := int64(0); r < f.Mapper().NumRecords(); r++ {
		workload.Record(buf, seed, r)
		if _, err := w.WriteRecord(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// drain reads a stream to EOF verifying workload records, returning ids.
func drain(t *testing.T, r *core.StreamReader, ctx sim.Context, seed uint64) []int64 {
	t.Helper()
	var ids []int64
	for {
		data, rec, err := r.ReadRecord(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.CheckRecord(data, seed, rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec)
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestAlternateViewISOverPS(t *testing.T) {
	v := testVolume(t, 4)
	ctx := sim.NewWall()
	ps, err := v.Create(pfs.Spec{
		Name: "ps", Org: pfs.OrgPartitioned, RecordSize: 64,
		BlockRecords: 2, NumRecords: 48, Parts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ps, ctx, 5)
	// Read the PS file with an IS view of stride 3.
	var all []int64
	for part := 0; part < 3; part++ {
		r, err := core.OpenInterleavedReader(ps, part, 3, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids := drain(t, r, ctx, 5)
		// Every record of this stride class: blocks ≡ part mod 3.
		for _, rec := range ids {
			if (rec/2)%3 != int64(part) {
				t.Fatalf("part %d got record %d", part, rec)
			}
		}
		all = append(all, ids...)
	}
	if len(all) != 48 {
		t.Fatalf("alternate views delivered %d records", len(all))
	}
}

func TestAlternateViewPSOverIS(t *testing.T) {
	v := testVolume(t, 4)
	ctx := sim.NewWall()
	is, err := v.Create(pfs.Spec{
		Name: "is", Org: pfs.OrgInterleaved, RecordSize: 64,
		BlockRecords: 2, NumRecords: 48, Parts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, is, ctx, 6)
	// PS view with 2 partitions over the IS file: the 24 paper-blocks
	// split evenly into two block ranges.
	var total int
	for part := 0; part < 2; part++ {
		r, err := core.OpenBlockRangeReader(is, int64(part)*12, int64(part+1)*12, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids := drain(t, r, ctx, 6)
		total += len(ids)
		// Contiguous halves: part0 records 0..23, part1 24..47.
		for _, rec := range ids {
			if part == 0 && rec >= 24 || part == 1 && rec < 24 {
				t.Fatalf("part %d got record %d", part, rec)
			}
		}
	}
	if total != 48 {
		t.Fatalf("PS alternate view delivered %d", total)
	}
	// PS views of the IS file's own 4-way partition table: partition part
	// is the contiguous paper-blocks [6·part, 6·part+6), records
	// [12·part, 12·part+12), though the IS placement deals them out
	// round-robin across the drives.
	total = 0
	for part := 0; part < 4; part++ {
		r, err := core.OpenPartReader(is, part, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids := drain(t, r, ctx, 6)
		total += len(ids)
		for i, rec := range ids {
			if want := int64(12*part + i); rec != want {
				t.Fatalf("part %d record %d is %d, want %d", part, i, rec, want)
			}
		}
	}
	if total != 48 {
		t.Fatalf("PS partitions of the IS file delivered %d", total)
	}
}

func TestGlobalFallback(t *testing.T) {
	v := testVolume(t, 2)
	ctx := sim.NewWall()
	ps, err := v.Create(pfs.Spec{
		Name: "ps", Org: pfs.OrgPartitioned, RecordSize: 64,
		BlockRecords: 2, NumRecords: 20, Parts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ps, ctx, 7)
	r, err := core.OpenReader(ps, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := drain(t, r, ctx, 7)
	for i, rec := range ids {
		if rec != int64(i) {
			t.Fatalf("global fallback out of order at %d: %d", i, rec)
		}
	}
}

func TestCopyConvert(t *testing.T) {
	v := testVolume(t, 4)
	ctx := sim.NewWall()
	ps, err := v.Create(pfs.Spec{
		Name: "ps", Org: pfs.OrgPartitioned, RecordSize: 64,
		BlockRecords: 2, NumRecords: 40, Parts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ps, ctx, 8)
	is, err := ToOrganization(ctx, v, ps, "is-copy", pfs.OrgInterleaved, 4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if is.Spec().Org != pfs.OrgInterleaved || is.Spec().Placement != pfs.PlaceInterleaved {
		t.Fatalf("converted spec = %+v", is.Spec())
	}
	// Converted file carries identical records.
	r, err := core.OpenReader(is, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := drain(t, r, ctx, 8)
	if len(ids) != 40 {
		t.Fatalf("converted file has %d records", len(ids))
	}
	// The native IS view now works with natural placement.
	ir, err := core.OpenInterleavedReader(is, 1, 4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, ir, ctx, 8)
}

func TestCopyValidation(t *testing.T) {
	v := testVolume(t, 2)
	ctx := sim.NewWall()
	a, err := v.Create(pfs.Spec{Name: "a", RecordSize: 64, NumRecords: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.Create(pfs.Spec{Name: "b", RecordSize: 32, NumRecords: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Copy(ctx, a, b, core.Options{}); err == nil {
		t.Fatal("mismatched record sizes accepted")
	}
	c, err := v.Create(pfs.Spec{Name: "c", RecordSize: 64, NumRecords: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Copy(ctx, a, c, core.Options{}); err == nil {
		t.Fatal("mismatched record counts accepted")
	}
}

// TestToOrganizationFailedCopy: a drive that fails in the middle of the
// copy fails the conversion, the half-written sibling is removed with it
// — its extents too, so the volume's usage reads as before the call —
// and once the drive is repaired a retry under the same name succeeds
// and uses what one clean conversion does.
func TestToOrganizationFailedCopy(t *testing.T) {
	spec := pfs.Spec{Name: "ps", Org: pfs.OrgPartitioned, RecordSize: 64,
		BlockRecords: 2, NumRecords: 256, Parts: 4}
	// setup fills a PS file on a timed 4-drive volume and runs convert
	// in a process of e, returning the volume, its drives and the file.
	setup := func(e *sim.Engine) (*pfs.Volume, []*device.Disk, *pfs.File) {
		v, disks := testVolumeDisks(t, 4, e)
		ps, err := v.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		fill(t, ps, sim.NewWall(), 9)
		return v, disks, ps
	}
	// How long a copy takes, to fail a drive halfway through one.
	e := sim.NewEngine()
	v, _, ps := setup(e)
	e.Go("convert", func(p *sim.Proc) {
		if _, err := ToOrganization(p, v, ps, "is", pfs.OrgInterleaved, 4, core.Options{}); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	took := e.Now()
	if took == 0 {
		t.Fatal("the copy took no modeled time")
	}
	clean := v.Used()

	e = sim.NewEngine()
	v, disks, ps := setup(e)
	before := v.Used()
	var convErr error
	e.Go("convert", func(p *sim.Proc) {
		_, convErr = ToOrganization(p, v, ps, "is", pfs.OrgInterleaved, 4, core.Options{})
	})
	e.Go("failure", func(p *sim.Proc) {
		p.Sleep(took / 2)
		disks[1].Fail()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(convErr, device.ErrFailed) {
		t.Fatalf("conversion across a drive failure returned %v, want %v", convErr, device.ErrFailed)
	}
	if _, err := v.Lookup("is"); err == nil {
		t.Fatal("the failed conversion left its half-copied file in the volume")
	}
	if got := v.Used(); !slices.Equal(got, before) {
		t.Fatalf("after the failed conversion the volume uses %v blocks a drive, want %v as before it", got, before)
	}
	disks[1].Repair()
	ctx := sim.NewWall()
	is, err := ToOrganization(ctx, v, ps, "is", pfs.OrgInterleaved, 4, core.Options{})
	if err != nil {
		t.Fatalf("retry after repair: %v", err)
	}
	r, err := core.OpenReader(is, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ids := drain(t, r, ctx, 9); len(ids) != 256 {
		t.Fatalf("converted file has %d records", len(ids))
	}
	if got := v.CreationOrder(); !slices.Equal(got, []string{"ps", "is"}) {
		t.Fatalf("creation order %v, want [ps is]", got)
	}
	if got := v.Used(); !slices.Equal(got, clean) {
		t.Fatalf("after the retry the volume uses %v blocks a drive, want %v as after one clean conversion", got, clean)
	}
}
