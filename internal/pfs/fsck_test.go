package pfs

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/blockio"
	"repro/internal/device"
)

func TestCheckCleanVolume(t *testing.T) {
	v := testVolume(t, 4)
	specs := []Spec{
		{Name: "a", Org: OrgSequential, RecordSize: 64, NumRecords: 100},
		{Name: "b", Org: OrgPartitioned, RecordSize: 64, BlockRecords: 2, NumRecords: 64, Parts: 4},
		{Name: "c", Org: OrgInterleaved, RecordSize: 32, BlockRecords: 4, NumRecords: 48, Parts: 3},
		{Name: "d", Org: OrgGlobalDirect, RecordSize: 256, NumRecords: 32, StripeUnitFS: 1},
	}
	for _, s := range specs {
		if _, err := v.Create(s); err != nil {
			t.Fatal(err)
		}
	}
	rep := v.Check()
	if !rep.OK() {
		t.Fatalf("clean volume flagged:\n%s", rep)
	}
	if rep.Files != 4 || rep.Extents == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "consistent") {
		t.Fatalf("String = %q", rep.String())
	}
}

func TestCheckDetectsOverlap(t *testing.T) {
	v := testVolume(t, 2)
	if _, err := v.Create(Spec{Name: "a", RecordSize: 256, NumRecords: 32}); err != nil {
		t.Fatal(err)
	}
	// Force an overlapping restore: same bases as file "a".
	a, _ := v.Lookup("a")
	spec := a.Spec()
	spec.Name = "evil"
	if _, err := v.Restore(spec, []int64{a.Set().Base(0), a.Set().Base(1)}); err != nil {
		t.Fatal(err)
	}
	rep := v.Check()
	if rep.OK() {
		t.Fatal("overlapping extents not detected")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "overlaps") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no overlap problem in report:\n%s", rep)
	}
}

// TestNegativeBasesRefused: a volume image comes from outside the
// program, so Restore refuses an extent base below block 0, naming the
// file and the device, and Check reports such an extent should a file
// ever hold one.
func TestNegativeBasesRefused(t *testing.T) {
	v := testVolume(t, 2)
	spec := Spec{Name: "neg", RecordSize: 256, NumRecords: 32}
	_, err := v.Restore(spec, []int64{0, -4})
	if err == nil || !strings.Contains(err.Error(), `"neg"`) || !strings.Contains(err.Error(), "device 1") {
		t.Fatalf("Restore with a negative base: err = %v, want one naming \"neg\" and device 1", err)
	}
	if len(v.Files()) != 0 {
		t.Fatalf("refused restore registered %v", v.Files())
	}
	if _, err := v.create(spec, []int64{-4, -4}); err != nil {
		t.Fatal(err)
	}
	rep := v.Check()
	if rep.OK() || !strings.Contains(rep.String(), "below block 0") {
		t.Fatalf("extent at block -4 not reported:\n%s", rep)
	}
}

func TestCheckQuickRandomVolumes(t *testing.T) {
	// Property: any volume built purely through Create passes fsck.
	check := func(seeds [6]uint16, devs8 uint8) bool {
		devs := int(devs8%4) + 1
		disks := make([]*device.Disk, devs)
		for i := range disks {
			disks[i] = device.New(device.Config{
				Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 128},
			})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			return false
		}
		v := NewVolume(store)
		orgs := []Organization{OrgSequential, OrgPartitioned, OrgInterleaved, OrgGlobalDirect, OrgPartitionedDirect}
		created := 0
		for i, s := range seeds {
			spec := Spec{
				Name:         string(rune('a' + i)),
				Org:          orgs[int(s)%len(orgs)],
				RecordSize:   int(s%200) + 1,
				BlockRecords: int(s%3) + 1,
				NumRecords:   int64(s%150) + 1,
				Parts:        int(s%3) + 1,
			}
			if _, err := v.Create(spec); err == nil {
				created++
			}
		}
		if created == 0 {
			return true
		}
		return v.Check().OK()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
