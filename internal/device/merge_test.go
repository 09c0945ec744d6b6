package device

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// mergeRun executes the canonical merge scenario — one process occupies
// the disk with an 8-block read while four others queue single-block
// requests on blocks 100..103 (in the given arrival order) — and
// returns the disk and total elapsed time. op selects reads or writes.
func mergeRun(t *testing.T, mergeOn bool, order []int64, write bool) (*Disk, time.Duration) {
	t.Helper()
	e := sim.NewEngine()
	d := New(Config{Engine: e, MergeQueued: mergeOn})
	bs := d.Geometry().BlockSize
	// Seed blocks 100..103 for the read case.
	ctx := sim.NewWall()
	for i := int64(0); i < 4; i++ {
		blk := make([]byte, bs)
		for j := range blk {
			blk[j] = byte(100 + i)
		}
		if err := writeBlocks(d, ctx, 100+i, 1, blk); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()

	e.Go("busy", func(p *sim.Proc) {
		buf := make([]byte, 8*bs)
		if err := readBlocks(d, p, 0, 8, buf); err != nil {
			t.Error(err)
		}
	})
	for _, b := range order {
		b := b
		e.Go("rq", func(p *sim.Proc) {
			p.Sleep(time.Microsecond) // arrive after "busy" is in service
			buf := make([]byte, bs)
			if write {
				for j := range buf {
					buf[j] = byte(200 + b - 100)
				}
				if err := writeBlocks(d, p, b, 1, buf); err != nil {
					t.Error(err)
				}
				return
			}
			if err := readBlocks(d, p, b, 1, buf); err != nil {
				t.Error(err)
				return
			}
			want := byte(100 + b - 100)
			for _, x := range buf {
				if x != want {
					t.Errorf("block %d read %d, want %d", b, x, want)
					return
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return d, e.Now()
}

// TestMergeQueuedBack merges in-order adjacent arrivals into one request
// and services them faster than individually.
func TestMergeQueuedBack(t *testing.T) {
	asc := []int64{100, 101, 102, 103}
	dOff, elapsedOff := mergeRun(t, false, asc, false)
	if got := dOff.Stats().Merged; got != 0 {
		t.Fatalf("merging off: Merged = %d, want 0", got)
	}
	dOn, elapsedOn := mergeRun(t, true, asc, false)
	if got := dOn.Stats().Merged; got != 3 {
		t.Fatalf("Merged = %d, want 3", got)
	}
	if elapsedOn >= elapsedOff {
		t.Fatalf("merged run not faster: %v vs %v", elapsedOn, elapsedOff)
	}
	// The merged service pays the per-request costs once instead of 4×:
	// savings = 3 × (overhead + rotation/2), modulo the sub-ns truncation
	// difference between one 4-block transfer and four 1-block transfers.
	tm := DefaultTiming1989()
	bs := DefaultGeometry1989().BlockSize
	xfer := func(bytes int) time.Duration {
		return time.Duration(float64(bytes) / tm.TransferRate * float64(time.Second))
	}
	want := elapsedOff - 3*(tm.Overhead+tm.RotationPeriod/2) - 4*xfer(bs) + xfer(4*bs)
	if elapsedOn != want {
		t.Fatalf("merged elapsed = %v, want %v", elapsedOn, want)
	}
	if dOn.Stats().BusyTime >= dOff.Stats().BusyTime {
		t.Fatalf("merged busy time not smaller: %v vs %v", dOn.Stats().BusyTime, dOff.Stats().BusyTime)
	}
}

// TestMergeQueuedFront merges reverse-order arrivals (each new request
// physically precedes a queued one).
func TestMergeQueuedFront(t *testing.T) {
	desc := []int64{103, 102, 101, 100}
	d, _ := mergeRun(t, true, desc, false)
	if got := d.Stats().Merged; got != 3 {
		t.Fatalf("front merge: Merged = %d, want 3", got)
	}
}

// TestMergeQueuedWrites merges adjacent writes and lands every process's
// own data.
func TestMergeQueuedWrites(t *testing.T) {
	d, _ := mergeRun(t, true, []int64{100, 101, 102, 103}, true)
	if got := d.Stats().Merged; got != 3 {
		t.Fatalf("write merge: Merged = %d, want 3", got)
	}
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	buf := make([]byte, bs)
	for i := int64(0); i < 4; i++ {
		if err := readBlocks(d, ctx, 100+i, 1, buf); err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{byte(200 + i)}, bs)
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %d holds %d, want %d", 100+i, buf[0], want[0])
		}
	}
}

// TestMergeRespectsOpAndAdjacency: different directions and non-adjacent
// blocks never merge.
func TestMergeRespectsOpAndAdjacency(t *testing.T) {
	e := sim.NewEngine()
	d := New(Config{Engine: e, MergeQueued: true})
	bs := d.Geometry().BlockSize
	e.Go("busy", func(p *sim.Proc) {
		buf := make([]byte, 8*bs)
		if err := readBlocks(d, p, 0, 8, buf); err != nil {
			t.Error(err)
		}
	})
	e.Go("read100", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		if err := readBlocks(d, p, 100, 1, make([]byte, bs)); err != nil {
			t.Error(err)
		}
	})
	e.Go("write101", func(p *sim.Proc) { // adjacent but a write: no merge
		p.Sleep(time.Microsecond)
		if err := writeBlocks(d, p, 101, 1, make([]byte, bs)); err != nil {
			t.Error(err)
		}
	})
	e.Go("read200", func(p *sim.Proc) { // same op but not adjacent
		p.Sleep(time.Microsecond)
		if err := readBlocks(d, p, 200, 1, make([]byte, bs)); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Merged; got != 0 {
		t.Fatalf("Merged = %d, want 0", got)
	}
}

// TestMergeDefaultTimingUnchanged: with the knob off (the default), the
// queue scenario's timing is identical to the historical model — the
// sum of four individual service times behind the busy request.
func TestMergeDefaultTimingUnchanged(t *testing.T) {
	_, elapsed := mergeRun(t, false, []int64{100, 101, 102, 103}, false)
	tm := DefaultTiming1989()
	g := DefaultGeometry1989()
	bs := g.BlockSize
	xfer := func(bytes int) time.Duration {
		return time.Duration(float64(bytes) / tm.TransferRate * float64(time.Second))
	}
	// Seeding blocks 100..103 left the head at their cylinder, so the
	// busy 8-block read at block 0 seeks back first; then the first
	// queued request seeks to block 100's cylinder again, and the
	// remaining three are seek-free.
	seek := d1seek(tm, g, 0, 100/int64(g.BlocksPerCyl))
	svcBusy := tm.Overhead + seek + tm.RotationPeriod/2 + xfer(8*bs)
	svcFirst := tm.Overhead + seek + tm.RotationPeriod/2 + xfer(bs)
	svcRest := tm.Overhead + tm.RotationPeriod/2 + xfer(bs)
	want := svcBusy + svcFirst + 3*svcRest
	if elapsed != want {
		t.Fatalf("default-off elapsed = %v, want %v", elapsed, want)
	}
}

// d1seek recomputes the model's seek time for a cylinder distance (test
// mirror of Disk.seekTime).
func d1seek(tm Timing, g Geometry, from, to int64) time.Duration {
	dist := to - from
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	maxDist := g.Cylinders - 1
	span := tm.SeekMax - tm.SeekMin
	frac := math.Sqrt(float64(dist) / float64(maxDist))
	return tm.SeekMin + time.Duration(float64(span)*frac)
}
