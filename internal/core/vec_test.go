package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// declusteredFile builds a unit-1 striped (declustered) file over 4
// fresh untimed drives, one 256-byte record per fs block.
func declusteredFile(t *testing.T, records int64) (*pfs.File, []*device.Disk) {
	t.Helper()
	disks := make([]*device.Disk, 4)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     fmt.Sprintf("d%d", i),
			Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 128},
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	v := pfs.NewVolume(store)
	f, err := v.Create(pfs.Spec{
		Name: "vec", Org: pfs.OrgGlobalDirect, RecordSize: 256, BlockRecords: 1,
		NumRecords: records, Placement: pfs.PlaceStriped, StripeUnitFS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, disks
}

func reqTotal(disks []*device.Disk) int64 {
	var n int64
	for _, d := range disks {
		n += d.Stats().Requests()
	}
	return n
}

// TestDirectMultiSpanRecords covers records that straddle fs-block
// boundaries through the direct handle's cache: every record's spans
// cross two 256-byte blocks (record size 384, two per paper-block), and a
// two-block cache evicts between a record's spans.
func TestDirectMultiSpanRecords(t *testing.T) {
	disks := []*device.Disk{device.New(device.Config{
		Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 64},
	})}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pfs.NewVolume(store).Create(pfs.Spec{
		Name: "straddle", Org: pfs.OrgGlobalDirect, RecordSize: 384, BlockRecords: 2,
		NumRecords: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	w, err := OpenDirect(f, Options{CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 16*384)
	for i := range src {
		src[i] = byte(i * 11)
	}
	for _, r := range rand.New(rand.NewSource(3)).Perm(16) {
		if err := w.WriteRecordAt(ctx, int64(r), src[r*384:(r+1)*384]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenDirect(f, Options{CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 384)
	for _, r := range rand.New(rand.NewSource(4)).Perm(16) {
		if err := rd.ReadRecordAt(ctx, int64(r), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src[r*384:(r+1)*384]) {
			t.Fatalf("record %d: straddling round trip mismatch", r)
		}
	}
}

// TestStreamVecCoalesces asserts the stream read path now coalesces a
// unit-1 declustered scan: with ExtentBlocks 8 over 4 devices every
// extent is one gather request per device instead of one per block.
func TestStreamVecCoalesces(t *testing.T) {
	const records = 64
	f, disks := declusteredFile(t, records)
	ctx := sim.NewWall()
	w, err := OpenWriter(f, Options{ExtentBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 256)
	for r := int64(0); r < records; r++ {
		rec[0] = byte(r)
		if _, err := w.WriteRecord(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for _, d := range disks {
		d.ResetStats()
	}
	rd, err := OpenReader(f, Options{ExtentBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < records; r++ {
		data, idx, err := rd.ReadRecord(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if idx != r || data[0] != byte(r) {
			t.Fatalf("record %d: got %d first byte %d", r, idx, data[0])
		}
	}
	if err := rd.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// 64 blocks / extent 8 = 8 extents × 4 devices = 32 requests.
	if got := reqTotal(disks); got != 32 {
		t.Fatalf("declustered extent scan issued %d requests, want 32 (one per device per extent)", got)
	}
}
