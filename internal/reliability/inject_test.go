package reliability

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

func TestScheduleFailureFiresOnTime(t *testing.T) {
	e := sim.NewEngine()
	d := device.New(device.Config{Engine: e})
	ScheduleFailure(e, d, 5*time.Millisecond)
	var beforeFailed, afterFailed bool
	e.Go("probe", func(p *sim.Proc) {
		p.SleepUntil(4 * time.Millisecond)
		beforeFailed = d.Failed()
		p.SleepUntil(6 * time.Millisecond)
		afterFailed = d.Failed()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if beforeFailed {
		t.Fatal("disk failed early")
	}
	if !afterFailed {
		t.Fatal("disk did not fail on schedule")
	}
}

// TestMirroredWorkloadSurvivesInjectedFailure runs a PS read workload on
// a shadowed store while a failure injector kills a primary mid-run: the
// workload must complete with correct data.
func TestMirroredWorkloadSurvivesInjectedFailure(t *testing.T) {
	e := sim.NewEngine()
	geom := device.Geometry{BlockSize: 4096, BlocksPerCyl: 16, Cylinders: 64}
	mk := func() []*device.Disk {
		ds := make([]*device.Disk, 2)
		for i := range ds {
			ds[i] = device.New(device.Config{Geometry: geom, Engine: e})
		}
		return ds
	}
	prim, shad := mk(), mk()
	mir, err := stripe.NewMirror(prim, shad)
	if err != nil {
		t.Fatal(err)
	}
	vol := pfs.NewVolume(mir)
	f, err := vol.Create(pfs.Spec{Name: "d", RecordSize: 4096, NumRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("workload", func(p *sim.Proc) {
		if err := WritePattern(p, f, 0x9); err != nil {
			t.Error(err)
			return
		}
		// Kill a primary in the middle of the verify pass.
		ScheduleFailure(p.Engine(), prim[0], p.Now()+100*time.Millisecond)
		if err := VerifyPattern(p, f, 0x9); err != nil {
			t.Errorf("verify with mid-run failure: %v", err)
		}
		if !prim[0].Failed() {
			t.Error("failure did not fire during workload")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
