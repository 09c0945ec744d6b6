package blockio

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/sim"
)

// TestContFixedIsWhatTheDriveCharges: CostModel.ContFixed prices the
// requests that continue a sequential run with the drive's own
// service-time model, so it must equal, to the nanosecond, what a drive
// then charges for them: a process writes a run in equal requests, and
// the busy time the drive books for all but the first is ContFixed plus
// their transfers — for requests shorter than a cylinder, longer than
// one, and runs that start in the middle of one.
func TestContFixedIsWhatTheDriveCharges(t *testing.T) {
	for _, tc := range []struct{ first, blocks, n int64 }{
		{0, 16, 7},    // eight rounds of a 128-block domain: one crossing
		{0, 64, 1},    // two rounds: the second starts one cylinder on
		{40, 16, 7},   // mid-cylinder start: two crossings
		{3, 1, 200},   // single blocks
		{10, 100, 5},  // more than a cylinder a request
		{64, 128, 3},  // whole cylinders
		{5000, 32, 9}, // far out on the platter: distance, not position, is charged
	} {
		e := sim.NewEngine()
		d := device.New(device.Config{Engine: e})
		store, err := NewDirect([]*device.Disk{d})
		if err != nil {
			t.Fatal(err)
		}
		bs := int64(d.Geometry().BlockSize)
		var rest time.Duration
		e.Go("writer", func(p *sim.Proc) {
			buf := make([]byte, tc.blocks*bs)
			for j := int64(0); j <= tc.n; j++ {
				if j == 1 {
					rest = -d.Stats().BusyTime
				}
				if err := d.WriteBlocksVec(p, tc.first+j*tc.blocks, int(tc.blocks), [][]byte{buf}); err != nil {
					t.Error(err)
				}
			}
			rest += d.Stats().BusyTime
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		m := StoreCostModel(store, 1)
		if want := m.ContFixed(tc.n, tc.first, tc.blocks) + time.Duration(tc.n)*m.Xfer(tc.blocks*bs); rest != want {
			t.Errorf("%d requests of %d blocks continuing from block %d: the drive charged %v, ContFixed + transfer prices %v",
				tc.n, tc.blocks, tc.first, rest, want)
		}
	}
	if got := (CostModel{}).ContFixed(4, 0, 16); got != 0 {
		t.Errorf("the zero model prices continuing requests at %v, want free like the rest", got)
	}
}
