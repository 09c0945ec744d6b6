package device_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/sim"
)

// TestDriveFailsMidBatch: a drive of a four-drive Direct set fails while
// a transfer's runs are queued on it and is repaired later. The transfer
// reports the failed drive's runs, joined in run order, with the text it
// had when each run was a process of its own; the other drives' bytes
// land; the next transfer succeeds; and what the drives keep for reuse
// stays as few as the runs that were ever queued on one of them, none of
// it still referencing the caller's buffer.
func TestDriveFailsMidBatch(t *testing.T) {
	e := sim.NewEngine()
	disks := make([]*device.Disk, 4)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     fmt.Sprintf("d%d", i),
			Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 32},
			Engine:   e,
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	set, err := blockio.NewSet(store, blockio.NewStriped(4, 1), make([]int64, 4), 4*store.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	bs := int64(set.Store().BlockSize())
	// Three strided stretches: each drive gets three runs that are not
	// neighbours, twelve runs in all, and drive 2's runs are 6 to 8.
	vec := blockio.Vec{{Block: 0, N: 4}, {Block: 8, N: 4, BufOff: 4 * bs}, {Block: 16, N: 4, BufOff: 8 * bs}}
	if runs, err := set.MapVec(vec); err != nil || len(runs) != 12 {
		t.Fatalf("the descriptor maps to %d runs (%v), want 12", len(runs), err)
	}
	out := make([]byte, 12*bs)
	for i := range out {
		out[i] = byte(i%251 + 1)
	}
	const failAt, repairAt = time.Millisecond, 500 * time.Millisecond
	var failed, landed, again, back error
	in, in2 := make([]byte, len(out)), make([]byte, len(out))
	e.Go("writer", func(p *sim.Proc) {
		failed = set.WriteVec(p, vec, out)
		p.SleepUntil(repairAt + time.Millisecond)
		landed = set.ReadVec(p, vec, in)
		if again = set.WriteVec(p, vec, out); again == nil {
			back = set.ReadVec(p, vec, in2)
		}
	})
	e.Go("fault", func(p *sim.Proc) {
		p.SleepUntil(failAt) // drive 2 is serving run 6; runs 7 and 8 wait
		disks[2].Fail()
		p.SleepUntil(repairAt)
		disks[2].Repair()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	const want = "device: drive failed: d2\ndevice: drive failed: d2\ndevice: drive failed: d2"
	if failed == nil || failed.Error() != want || !errors.Is(failed, device.ErrFailed) {
		t.Fatalf("write during the failure returned %q, want %q", failed, want)
	}
	if landed != nil {
		t.Fatal(landed)
	}
	for b := int64(0); b < 12; b++ {
		blk, want := in[b*bs:(b+1)*bs], out[b*bs:(b+1)*bs]
		if b%4 == 2 { // logical blocks 2, 10, 18: drive 2's, never written
			want = make([]byte, bs)
		}
		if !bytes.Equal(blk, want) {
			t.Errorf("block %d of the descriptor after the failed write: %v, want %v", b, blk[:4], want[:4])
		}
	}
	if again != nil || back != nil || !bytes.Equal(in2, out) {
		t.Fatalf("after the repair: write %v, read %v, bytes equal %v", again, back, bytes.Equal(in2, out))
	}
	for i, d := range disks {
		if req, runs, holding := d.Pooled(); req > 3 || runs > 3 || holding != 0 {
			t.Errorf("drive %d keeps %d requests and %d runs, %d of them holding references; want at most 3 and 3, none holding", i, req, runs, holding)
		}
	}
}
