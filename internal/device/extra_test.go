package device

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDiskName(t *testing.T) {
	d := New(Config{Name: "scratch3"})
	if d.Name() != "scratch3" {
		t.Fatalf("Name = %q", d.Name())
	}
	if New(Config{}).Name() == "" {
		t.Fatal("default name empty")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	blkA := bytes.Repeat([]byte{0xaa}, bs)
	if err := writeBlocks(d, ctx, 2, 1, blkA); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate after the snapshot.
	blkB := bytes.Repeat([]byte{0xbb}, bs)
	if err := writeBlocks(d, ctx, 2, 1, blkB); err != nil {
		t.Fatal(err)
	}
	if err := writeBlocks(d, ctx, 7, 1, blkB); err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, bs)
	if err := readBlocks(d, ctx, 2, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xaa {
		t.Fatalf("block 2 = %#x after restore", got[0])
	}
	if err := readBlocks(d, ctx, 7, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("block written after snapshot survived restore")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	if err := writeBlocks(d, ctx, 0, 1, bytes.Repeat([]byte{1}, bs)); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap[0][0] = 0xff // mutating the snapshot must not touch the disk
	got := make([]byte, bs)
	if err := readBlocks(d, ctx, 0, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("snapshot aliased disk pages")
	}
	// And Restore must copy too.
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	snap[0][0] = 0x77
	if err := readBlocks(d, ctx, 0, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xff {
		t.Fatal("restore aliased snapshot pages")
	}
}

func TestServiceTimeQuickProperties(t *testing.T) {
	d := untimed()
	// Service time is monotone in bytes and in seek distance, and always
	// at least overhead + half rotation.
	err := quick.Check(func(c1, c2 uint16, n1 uint16) bool {
		from := int(c1) % d.Geometry().Cylinders
		to := int(c2) % d.Geometry().Cylinders
		bytes1 := int(n1)%65536 + 1
		s1 := d.serviceTime(from, to, bytes1)
		s2 := d.serviceTime(from, to, bytes1+4096)
		if s2 < s1 {
			return false
		}
		min := d.Timing().Overhead + d.Timing().RotationPeriod/2
		return s1 >= min
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueuePeakTracksDepth(t *testing.T) {
	e := sim.NewEngine()
	d := New(Config{Engine: e})
	const n = 6
	for i := 0; i < n; i++ {
		e.Go("w", func(p *sim.Proc) {
			buf := make([]byte, d.Geometry().BlockSize)
			_ = readBlocks(d, p, 0, 1, buf)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().QueuePeak; got != n {
		t.Fatalf("QueuePeak = %d, want %d", got, n)
	}
}

func TestLatencyStats(t *testing.T) {
	e := sim.NewEngine()
	d := New(Config{Engine: e})
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *sim.Proc) {
			buf := make([]byte, d.Geometry().BlockSize)
			_ = readBlocks(d, p, 0, 1, buf)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.LatencySum <= 0 || st.LatencyMax <= 0 {
		t.Fatalf("latency stats empty: %+v", st)
	}
	// Max latency (3rd request: waits for two services) must be about
	// 3x the min service; the sum of three queued latencies s+2s+3s = 6s.
	if st.LatencyMax >= st.LatencySum {
		t.Fatal("max latency not less than sum")
	}
}
