package reliability

import (
	"math"
	"testing"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

func TestSystemMTBFPaperNumbers(t *testing.T) {
	// The paper: 30,000 h drives, 10 devices -> 3,000 h ("about 3 times
	// per year"); 100 devices -> 300 h ("more than one failure every two
	// weeks").
	ten := SystemMTBF(DeviceMTBF1989, 10)
	if ten != 3000*Hours {
		t.Fatalf("10 devices: %v, want 3000h", ten)
	}
	if fpy := FailuresPerYear(ten); math.Abs(fpy-2.922) > 0.01 {
		t.Fatalf("10 devices: %.3f failures/year, want ~2.9 ('about 3 times per year')", fpy)
	}
	hundred := SystemMTBF(DeviceMTBF1989, 100)
	if hundred != 300*Hours {
		t.Fatalf("100 devices: %v, want 300h", hundred)
	}
	twoWeeks := 14 * 24 * Hours
	if hundred >= twoWeeks {
		t.Fatalf("100 devices MTBF %v should be under two weeks (%v)", hundred, twoWeeks)
	}
	if SystemMTBF(DeviceMTBF1989, 0) != 0 {
		t.Fatal("n=0 should be 0")
	}
	if FailuresPerYear(0) != 0 {
		t.Fatal("zero MTBF should be 0")
	}
}

func TestMTTFSingleFault(t *testing.T) {
	// Redundancy must buy orders of magnitude.
	plain := SystemMTBF(DeviceMTBF1989, 10)
	mttr := 24 * Hours
	prot := MTTFSingleFaultHours(DeviceMTBF1989, mttr, 10)
	if prot < 100*plain.Hours() {
		t.Fatalf("single-fault MTTF %vh not >> plain %v", prot, plain)
	}
	if MTTFSingleFaultHours(DeviceMTBF1989, mttr, 1) != 0 {
		t.Fatal("n=1 should be 0")
	}
	if MTTFSingleFaultHours(DeviceMTBF1989, 0, 4) != 0 {
		t.Fatal("zero MTTR should be 0")
	}
}

func TestCampaignPlainMatchesAnalytic(t *testing.T) {
	rng := sim.NewRNG(123)
	mission := 3000 * Hours
	res := Campaign(rng, 2000, 10, 1, 0, DeviceMTBF1989, 24*Hours, mission)
	// Expected failures per mission: n * mission/MTBF = 10 * 0.1 = 1.
	if math.Abs(res.MeanFailures-1.0) > 0.1 {
		t.Fatalf("mean failures %v, want ~1.0", res.MeanFailures)
	}
	// P(any failure) = 1 - exp(-1) ≈ 0.632.
	if math.Abs(res.LossRate()-0.632) > 0.05 {
		t.Fatalf("loss rate %v, want ~0.632", res.LossRate())
	}
}

func TestCampaignRedundancyHelps(t *testing.T) {
	mission := 3000 * Hours
	plain := Campaign(sim.NewRNG(5), 1500, 10, 1, 0, DeviceMTBF1989, 24*Hours, mission)
	parity := Campaign(sim.NewRNG(5), 1500, 10, 1, 1, DeviceMTBF1989, 24*Hours, mission)
	mirror := Campaign(sim.NewRNG(5), 1500, 10, 5, 1, DeviceMTBF1989, 24*Hours, mission)
	if parity.LossRate() >= plain.LossRate()/5 {
		t.Fatalf("parity loss %v not << plain %v", parity.LossRate(), plain.LossRate())
	}
	if mirror.LossRate() > parity.LossRate() {
		t.Fatalf("mirror loss %v worse than one parity group %v", mirror.LossRate(), parity.LossRate())
	}
}

func TestCampaignScalesWithDeviceCount(t *testing.T) {
	mission := 1000 * Hours
	small := Campaign(sim.NewRNG(9), 800, 10, 1, 0, DeviceMTBF1989, 24*Hours, mission)
	large := Campaign(sim.NewRNG(9), 800, 100, 1, 0, DeviceMTBF1989, 24*Hours, mission)
	if large.LossRate() <= small.LossRate() {
		t.Fatalf("100 devices loss %v not worse than 10 devices %v", large.LossRate(), small.LossRate())
	}
	if large.MeanFailures <= small.MeanFailures {
		t.Fatal("failure count should grow with device count")
	}
}

func parityFixture(t *testing.T) (*stripe.Parity, *pfs.File) {
	t.Helper()
	geom := device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 64}
	disks := make([]*device.Disk, 4)
	for i := range disks {
		disks[i] = device.New(device.Config{Geometry: geom})
	}
	par, err := stripe.NewParity(disks, true)
	if err != nil {
		t.Fatal(err)
	}
	vol := pfs.NewVolume(par)
	f, err := vol.Create(pfs.Spec{Name: "data", RecordSize: 64, NumRecords: 96})
	if err != nil {
		t.Fatal(err)
	}
	return par, f
}

func TestParityScenarioEndToEnd(t *testing.T) {
	par, f := parityFixture(t)
	ctx := sim.NewWall()
	if _, err := ParityScenario(ctx, par, f, 1, 0x77); err != nil {
		t.Fatal(err)
	}
}

func TestMirrorScenarioEndToEnd(t *testing.T) {
	geom := device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 64}
	mk := func(n int) []*device.Disk {
		ds := make([]*device.Disk, n)
		for i := range ds {
			ds[i] = device.New(device.Config{Geometry: geom})
		}
		return ds
	}
	mir, err := stripe.NewMirror(mk(2), mk(2))
	if err != nil {
		t.Fatal(err)
	}
	vol := pfs.NewVolume(mir)
	f, err := vol.Create(pfs.Spec{Name: "data", RecordSize: 64, NumRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	if _, err := MirrorScenario(ctx, mir, f, 0, 0x55); err != nil {
		t.Fatal(err)
	}
}

// plainArray builds n small drives attached to e and a volume over them.
func plainArray(t *testing.T, e *sim.Engine, n int) ([]*device.Disk, *pfs.Volume) {
	t.Helper()
	disks := device.NewDrives(n, device.Config{Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 64}, Engine: e})
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	return disks, pfs.NewVolume(store)
}

func TestRollbackDemo(t *testing.T) {
	e := sim.NewEngine()
	disks, vol := plainArray(t, e, 4)
	f, err := vol.Create(pfs.Spec{Name: "data", RecordSize: 64, NumRecords: 128})
	if err != nil {
		t.Fatal(err)
	}
	var inconsistent, consistent bool
	e.Go("demo", func(p *sim.Proc) {
		var derr error
		inconsistent, consistent, derr = RollbackDemo(p, disks, f, 1)
		if derr != nil {
			t.Error(derr)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !inconsistent {
		t.Fatal("single-drive restore should corrupt the striped file (§5)")
	}
	if !consistent {
		t.Fatal("whole-array rollback should restore consistency")
	}
}

func TestWriteVerifyPattern(t *testing.T) {
	e := sim.NewEngine()
	_, vol := plainArray(t, e, 2)
	f, err := vol.Create(pfs.Spec{Name: "p", RecordSize: 64, NumRecords: 32})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("t", func(p *sim.Proc) {
		if err := WritePattern(p, f, 1); err != nil {
			t.Error(err)
		}
		if err := VerifyPattern(p, f, 1); err != nil {
			t.Error(err)
		}
		if err := VerifyPattern(p, f, 2); err == nil {
			t.Error("wrong seed verified")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
