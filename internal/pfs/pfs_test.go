package pfs

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
)

func testVolume(t *testing.T, devs int) *Volume {
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
	return NewVolume(store)
}

// locate reports the drive and absolute physical block of f's fs block b.
func locate(f *File, b int64) (dev int, pblock int64) {
	r := f.Layout().MapRun(nil, b, 1)[0]
	return r.Dev, f.Set().Base(r.Dev) + r.PBlock
}

func TestCreateDefaults(t *testing.T) {
	v := testVolume(t, 4)
	f, err := v.Create(Spec{
		Name:       "data",
		Org:        OrgSequential,
		RecordSize: 64,
		NumRecords: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := f.Spec()
	if sp.BlockRecords != 4 { // 256/64
		t.Fatalf("default BlockRecords = %d, want 4", sp.BlockRecords)
	}
	if sp.Placement != PlaceStriped {
		t.Fatalf("S file placement = %v, want striped", sp.Placement)
	}
	if f.Parts() != 1 {
		t.Fatalf("S file parts = %d", f.Parts())
	}
	if f.Mapper().NumBlocks() != 25 {
		t.Fatalf("blocks = %d", f.Mapper().NumBlocks())
	}
}

func TestCreateValidation(t *testing.T) {
	v := testVolume(t, 2)
	cases := []Spec{
		{},                         // no name
		{Name: "a"},                // no record size
		{Name: "a", RecordSize: 8}, // no records
		{Name: "a", RecordSize: 8, NumRecords: -4},                     // negative
		{Name: "a", Org: OrgPartitioned, RecordSize: 8, NumRecords: 4}, // PS without parts
	}
	for i, s := range cases {
		if _, err := v.Create(s); err == nil {
			t.Fatalf("case %d accepted: %+v", i, s)
		}
	}
}

func TestCreateDuplicateName(t *testing.T) {
	v := testVolume(t, 2)
	spec := Spec{Name: "x", RecordSize: 8, NumRecords: 10}
	if _, err := v.Create(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create(spec); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("duplicate accepted: %v", err)
	}
}

func TestLookupRemove(t *testing.T) {
	v := testVolume(t, 2)
	if _, err := v.Create(Spec{Name: "x", RecordSize: 8, NumRecords: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Lookup("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Lookup("y"); err == nil {
		t.Fatal("lookup of missing file passed")
	}
	names := v.Files()
	if len(names) != 1 || names[0] != "x" {
		t.Fatalf("Files = %v", names)
	}
	if err := v.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove("x"); err == nil {
		t.Fatal("double remove passed")
	}
}

func TestPartitionDefaultsEvenSplit(t *testing.T) {
	v := testVolume(t, 4)
	// 10 blocks over 4 parts -> 3,3,2,2.
	f, err := v.Create(Spec{
		Name: "ps", Org: OrgPartitioned, RecordSize: 64,
		BlockRecords: 4, NumRecords: 40, Parts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for p := 0; p < 4; p++ {
		first, end := f.PartBlockRange(p)
		if first != want[p][0] || end != want[p][1] {
			t.Fatalf("part %d = [%d,%d), want %v", p, first, end, want[p])
		}
	}
	if f.Spec().Placement != PlacePartitioned {
		t.Fatalf("PS placement = %v", f.Spec().Placement)
	}
}

func TestPartRecordRangeClampsShortFile(t *testing.T) {
	v := testVolume(t, 2)
	// 7 records, 2 per block -> 4 blocks (last short); parts 2 -> blocks 2,2.
	f, err := v.Create(Spec{
		Name: "ps", Org: OrgPartitioned, RecordSize: 8,
		BlockRecords: 2, NumRecords: 7, Parts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, end := f.PartRecordRange(1)
	if first != 4 || end != 7 {
		t.Fatalf("part 1 records = [%d,%d), want [4,7)", first, end)
	}
}

func TestExplicitPartBlocks(t *testing.T) {
	v := testVolume(t, 2)
	f, err := v.Create(Spec{
		Name: "ps", Org: OrgPartitioned, RecordSize: 8,
		BlockRecords: 1, NumRecords: 10, Parts: 3,
		PartBlocks: []int64{5, 3, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first, end := f.PartBlockRange(1); first != 5 || end != 8 {
		t.Fatalf("part 1 = [%d,%d)", first, end)
	}
	// Sizes that don't add up must fail.
	if _, err := v.Create(Spec{
		Name: "bad", Org: OrgPartitioned, RecordSize: 8,
		BlockRecords: 1, NumRecords: 10, Parts: 2,
		PartBlocks: []int64{5, 3},
	}); err == nil {
		t.Fatal("bad partition sizes accepted")
	}
}

func TestBlockOwner(t *testing.T) {
	v := testVolume(t, 4)
	ps, err := v.Create(Spec{
		Name: "ps", Org: OrgPartitioned, RecordSize: 64,
		BlockRecords: 4, NumRecords: 48, Parts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 12 blocks over 3 parts -> 4 each.
	for b := int64(0); b < 12; b++ {
		if got := ps.BlockOwner(b); got != int(b/4) {
			t.Fatalf("PS owner(%d) = %d, want %d", b, got, b/4)
		}
	}
	is, err := v.Create(Spec{
		Name: "is", Org: OrgInterleaved, RecordSize: 64,
		BlockRecords: 4, NumRecords: 48, Parts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 12; b++ {
		if got := is.BlockOwner(b); got != int(b%3) {
			t.Fatalf("IS owner(%d) = %d, want %d", b, got, b%3)
		}
	}
}

func TestAllocationSeparatesFiles(t *testing.T) {
	v := testVolume(t, 2)
	f1, err := v.Create(Spec{Name: "a", RecordSize: 128, NumRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := v.Create(Spec{Name: "b", RecordSize: 128, NumRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Physical locations of block 0 must differ.
	d1, p1 := locate(f1, 0)
	d2, p2 := locate(f2, 0)
	if d1 == d2 && p1 == p2 {
		t.Fatal("two files share a physical block")
	}
	used := v.Used()
	if used[0] == 0 && used[1] == 0 {
		t.Fatal("no space accounted")
	}
}

func TestVolumeFull(t *testing.T) {
	v := testVolume(t, 1)
	// Device: 8*64 = 512 blocks of 256B. Ask for more.
	if _, err := v.Create(Spec{Name: "big", RecordSize: 256, NumRecords: 600}); err == nil {
		t.Fatal("over-capacity create accepted")
	}
	// A fitting file still works afterwards.
	if _, err := v.Create(Spec{Name: "ok", RecordSize: 256, NumRecords: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBeyondCapacityRefused: a file larger than all the drives together
// is refused at once, the error naming its size and the volume's, whether
// it is created or restored and however large its record count.
func TestBeyondCapacityRefused(t *testing.T) {
	const capacity = "the volume's 2048 fs blocks" // 4 drives of 512 blocks
	for _, tc := range []struct {
		records int64
		size    string // two 128-byte records a block
	}{
		{600_000, "300000 blocks of 1 fs blocks"},
		{1_000_000_000_000, "500000000000 blocks of 1 fs blocks"},
		{1 << 62, "2305843009213693952 blocks of 1 fs blocks"},
		{math.MaxInt64, "4611686018427387904 blocks of 1 fs blocks"},
	} {
		for _, restore := range []bool{false, true} {
			v := testVolume(t, 4)
			spec := Spec{Name: "big", RecordSize: 128, NumRecords: tc.records}
			done := make(chan error, 1)
			go func() {
				if restore {
					_, err := v.Restore(spec, make([]int64, 4))
					done <- err
				} else {
					_, err := v.Create(spec)
					done <- err
				}
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.size) || !strings.Contains(err.Error(), capacity) {
					t.Errorf("%d records (restore %v): %v, want an error naming %s and %s", tc.records, restore, err, tc.size, capacity)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%d records (restore %v): still mapping after 10 s", tc.records, restore)
			}
		}
	}
	if _, err := testVolume(t, 4).Create(Spec{Name: "full", RecordSize: 128, NumRecords: 4096}); err != nil {
		t.Fatalf("a file of exactly the volume's 2048 fs blocks: %v", err)
	}
}

func TestStripeUnitOverride(t *testing.T) {
	v := testVolume(t, 4)
	f, err := v.Create(Spec{
		Name: "declustered", Org: OrgGlobalDirect, RecordSize: 64,
		BlockRecords: 16, NumRecords: 256, // paper-block = 1024B = 4 fs blocks
		StripeUnitFS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With unit 1, consecutive fs blocks hit different devices.
	d0, _ := locate(f, 0)
	d1, _ := locate(f, 1)
	if d0 == d1 {
		t.Fatal("declustered layout kept consecutive fs blocks on one device")
	}
	// Default (whole paper-block) keeps them together.
	g, err := v.Create(Spec{
		Name: "whole", Org: OrgGlobalDirect, RecordSize: 64,
		BlockRecords: 16, NumRecords: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	e0, _ := locate(g, 0)
	e1, _ := locate(g, 1)
	if e0 != e1 {
		t.Fatal("whole-block layout split a paper-block")
	}
}

func TestOrganizationStrings(t *testing.T) {
	want := map[Organization]string{
		OrgSequential: "S", OrgPartitioned: "PS", OrgInterleaved: "IS",
		OrgSelfScheduled: "SS", OrgGlobalDirect: "GDA", OrgPartitionedDirect: "PDA",
	}
	for org, s := range want {
		if org.String() != s {
			t.Fatalf("%d -> %q want %q", int(org), org.String(), s)
		}
	}
	if Organization(99).String() == "" || Placement(99).String() == "" {
		t.Fatal("unknown enums print empty")
	}
	if Standard.String() != "standard" || Specialized.String() != "specialized" {
		t.Fatal("category strings")
	}
	if PlaceAuto.String() != "auto" || PlaceStriped.String() != "striped" ||
		PlacePartitioned.String() != "partitioned" || PlaceInterleaved.String() != "interleaved" {
		t.Fatal("placement strings")
	}
}

func TestInterleavedPlacementEqualsDevicesPerProc(t *testing.T) {
	v := testVolume(t, 3)
	f, err := v.Create(Spec{
		Name: "is", Org: OrgInterleaved, RecordSize: 256,
		BlockRecords: 1, NumRecords: 9, Parts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paper-block b belongs to proc b%3, which owns device b%3.
	for b := int64(0); b < 9; b++ {
		dev, _ := locate(f, b) // fsPer == 1 here
		if dev != int(b%3) {
			t.Fatalf("block %d on device %d, want %d", b, dev, b%3)
		}
	}
}

func TestFileGroup(t *testing.T) {
	v := testVolume(t, 2)
	mk := func(name string, records int64) *File {
		t.Helper()
		f, err := v.Create(Spec{Name: name, Org: OrgSequential, RecordSize: 256, NumRecords: records})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a := mk("a", 6) // 6 fs blocks
	b := mk("b", 3) // 3 fs blocks
	g, err := v.OpenGroup("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 || g.File(0) != a || g.File(1) != b {
		t.Fatalf("group members wrong: %v", g)
	}
	if g.TotalFSBlocks() != 9 {
		t.Fatalf("TotalFSBlocks = %d, want 9", g.TotalFSBlocks())
	}
	if g.Offset(0) != 0 || g.Offset(1) != 6 || g.Offset(2) != 9 {
		t.Fatalf("offsets = %d %d %d", g.Offset(0), g.Offset(1), g.Offset(2))
	}
	for _, tc := range []struct {
		global int64
		file   int
		block  int64
	}{{0, 0, 0}, {5, 0, 5}, {6, 1, 0}, {8, 1, 2}} {
		file, block, err := g.Locate(tc.global)
		if err != nil || file != tc.file || block != tc.block {
			t.Fatalf("Locate(%d) = (%d, %d, %v), want (%d, %d)", tc.global, file, block, err, tc.file, tc.block)
		}
	}
	if _, _, err := g.Locate(9); err == nil {
		t.Fatal("Locate beyond the group accepted")
	}
	if _, _, err := g.Locate(-1); err == nil {
		t.Fatal("negative Locate accepted")
	}
	if g.Store() != v.Store() {
		t.Fatal("group store differs from volume store")
	}
}

func TestFileGroupValidation(t *testing.T) {
	v := testVolume(t, 2)
	f, err := v.Create(Spec{Name: "a", Org: OrgSequential, RecordSize: 256, NumRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileGroup(); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := NewFileGroup(f, f); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate member: %v", err)
	}
	if _, err := v.OpenGroup("a", "missing"); err == nil {
		t.Fatal("missing member accepted")
	}
	// Files on a different device array cannot join the group.
	v2 := testVolume(t, 2)
	f2, err := v2.Create(Spec{Name: "b", Org: OrgSequential, RecordSize: 256, NumRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileGroup(f, f2); err == nil || !strings.Contains(err.Error(), "different device array") {
		t.Fatalf("cross-array group: %v", err)
	}
}
