package stripe

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/sim"
)

// The contiguous shapes of the one Store primitive, as the layer above
// issues them: a block is a run of one with a one-buffer list, a
// contiguous range a run of n with one buffer.

func readBlock(st blockio.Store, ctx sim.Context, dev int, b int64, dst []byte) error {
	return readBlocks(st, ctx, dev, b, 1, dst)
}

func writeBlock(st blockio.Store, ctx sim.Context, dev int, b int64, src []byte) error {
	return writeBlocks(st, ctx, dev, b, 1, src)
}

func readBlocks(st blockio.Store, ctx sim.Context, dev int, b int64, n int, dst []byte) error {
	return st.Transfer(ctx, false, []blockio.Bound{{Dev: dev, PBlock: b, N: n, Iov: [][]byte{dst}}})
}

func writeBlocks(st blockio.Store, ctx sim.Context, dev int, b int64, n int, src []byte) error {
	return st.Transfer(ctx, true, []blockio.Bound{{Dev: dev, PBlock: b, N: n, Iov: [][]byte{src}}})
}

func drives(n int, e *sim.Engine) []*device.Disk {
	ds := make([]*device.Disk, n)
	for i := range ds {
		ds[i] = device.New(device.Config{
			Name:     "d",
			Geometry: device.Geometry{BlockSize: 128, BlocksPerCyl: 4, Cylinders: 16},
			Engine:   e,
		})
	}
	return ds
}

func blockOf(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestParityRoundTrip(t *testing.T) {
	p, err := NewParity(drives(4, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	if p.Devices() != 3 {
		t.Fatalf("Devices = %d, want 3", p.Devices())
	}
	for dev := 0; dev < 3; dev++ {
		if err := writeBlock(p, ctx, dev, 2, blockOf(byte(dev+1), 128)); err != nil {
			t.Fatal(err)
		}
	}
	for dev := 0; dev < 3; dev++ {
		got := make([]byte, 128)
		if err := readBlock(p, ctx, dev, 2, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(dev+1) {
			t.Fatalf("dev %d read %d", dev, got[0])
		}
	}
}

func TestParityReconstructsFailedDrive(t *testing.T) {
	for _, rotate := range []bool{false, true} {
		p, err := NewParity(drives(4, nil), rotate)
		if err != nil {
			t.Fatal(err)
		}
		ctx := sim.NewWall()
		for dev := 0; dev < 3; dev++ {
			for b := int64(0); b < 4; b++ {
				if err := writeBlock(p, ctx, dev, b, blockOf(byte(16*dev+int(b)+1), 128)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Fail data drive holding dev 1 (phys depends on rotation; fail
		// the physical drive for row 0).
		failPhys := p.phys(1, 0)
		p.Drives()[failPhys].Fail()
		got := make([]byte, 128)
		// Rows where dev1 lives on the failed phys must reconstruct.
		if err := readBlock(p, ctx, 1, 0, got); err != nil {
			t.Fatalf("rotate=%v: degraded read: %v", rotate, err)
		}
		if got[0] != 17 {
			t.Fatalf("rotate=%v: reconstructed %d, want 17", rotate, got[0])
		}
	}
}

func TestParityDegradedWriteThenRecover(t *testing.T) {
	p, err := NewParity(drives(4, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	for dev := 0; dev < 3; dev++ {
		if err := writeBlock(p, ctx, dev, 0, blockOf(byte(dev+1), 128)); err != nil {
			t.Fatal(err)
		}
	}
	p.Drives()[1].Fail() // dev 1's drive
	// Write to the failed device: must fold into parity.
	if err := writeBlock(p, ctx, 1, 0, blockOf(0x99, 128)); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	got := make([]byte, 128)
	if err := readBlock(p, ctx, 1, 0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x99 {
		t.Fatalf("degraded read-after-write got %#x, want 0x99", got[0])
	}
}

// TestParityWriteRacesFailure: a one-block small write whose data or
// parity drive fails while it is in flight is redone degraded, so it
// returns no error and the block reads back — as a multi-block run that
// races a failure already did (writeBlocks).
func TestParityWriteRacesFailure(t *testing.T) {
	for _, victim := range []string{"data", "parity"} {
		t.Run(victim, func(t *testing.T) {
			e := sim.NewEngine()
			p, err := NewParity(drives(4, e), false)
			if err != nil {
				t.Fatal(err)
			}
			fail := p.Drives()[p.phys(1, 0)]
			if victim == "parity" {
				fail = p.Drives()[p.phys(-1, 0)]
			}
			var werr, rerr error
			got := make([]byte, 128)
			e.Go("writer", func(q *sim.Proc) {
				werr = writeBlock(p, q, 1, 0, blockOf(0x55, 128))
				rerr = readBlock(p, q, 1, 0, got)
			})
			e.Go("fault", func(q *sim.Proc) {
				q.Sleep(time.Microsecond) // the old data and parity are being read
				fail.Fail()
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if werr != nil || rerr != nil || !bytes.Equal(got, blockOf(0x55, 128)) {
				t.Fatalf("write %v, read %v, block %#x...: want the write absorbed", werr, rerr, got[0])
			}
		})
	}
}

func TestParityRebuild(t *testing.T) {
	p, err := NewParity(drives(4, nil), true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	const rows = 6
	for dev := 0; dev < 3; dev++ {
		for b := int64(0); b < rows; b++ {
			if err := writeBlock(p, ctx, dev, b, blockOf(byte(10*dev+int(b)+1), 128)); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Drives()[2].Fail()
	if err := p.Drives()[2].Erase(); err != nil { // replacement drive arrives blank
		t.Fatal(err)
	}
	p.Drives()[2].Repair()
	if err := p.Rebuild(ctx, 2, rows); err != nil {
		t.Fatal(err)
	}
	// All data must read back clean with no degraded paths.
	for dev := 0; dev < 3; dev++ {
		for b := int64(0); b < rows; b++ {
			got := make([]byte, 128)
			if err := readBlock(p, ctx, dev, b, got); err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(10*dev+int(b)+1) {
				t.Fatalf("after rebuild dev %d row %d = %d", dev, b, got[0])
			}
		}
	}
}

func TestParityRebuildRequiresRepairedTarget(t *testing.T) {
	p, err := NewParity(drives(3, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	p.Drives()[0].Fail()
	if err := p.Rebuild(sim.NewWall(), 0, 1); err == nil {
		t.Fatal("rebuild onto failed drive accepted")
	}
}

func TestParityDoubleFailure(t *testing.T) {
	p, err := NewParity(drives(4, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	if err := writeBlock(p, ctx, 0, 0, blockOf(1, 128)); err != nil {
		t.Fatal(err)
	}
	p.Drives()[0].Fail()
	p.Drives()[1].Fail()
	got := make([]byte, 128)
	if err := readBlock(p, ctx, 0, 0, got); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("want ErrDoubleFailure, got %v", err)
	}
	if err := writeBlock(p, ctx, 1, 0, blockOf(2, 128)); err == nil {
		t.Fatal("double-failure write accepted")
	}
}

// TestParityDegradedWriteSecondFailure: a write whose data drive has
// failed folds into parity from the surviving data drives; with a second
// data drive failed too, that read fails and the write is an
// ErrDoubleFailure naming the second drive.
func TestParityDegradedWriteSecondFailure(t *testing.T) {
	p, err := NewParity(drives(4, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	p.Drives()[0].Fail()
	p.Drives()[2].Fail()
	err = writeBlock(p, sim.NewWall(), 0, 0, blockOf(1, 128))
	if !errors.Is(err, ErrDoubleFailure) || !strings.Contains(err.Error(), "drive 2 also unavailable") {
		t.Fatalf("got %v, want ErrDoubleFailure naming drive 2", err)
	}
}

// TestParityRebuildSecondFailure: a rebuild reads every surviving drive;
// with a second drive failed it stops at the first extent with an
// ErrDoubleFailure naming that extent's rows.
func TestParityRebuildSecondFailure(t *testing.T) {
	e := sim.NewEngine()
	p, err := NewParity(drives(4, e), true)
	if err != nil {
		t.Fatal(err)
	}
	p.Drives()[1].Fail()
	p.Drives()[3].Fail()
	if err := p.Drives()[1].Erase(); err != nil {
		t.Fatal(err)
	}
	p.Drives()[1].Repair()
	var rerr error
	e.Go("rebuild", func(pr *sim.Proc) { rerr = p.Rebuild(pr, 1, 40) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rerr, ErrDoubleFailure) || !strings.HasPrefix(rerr.Error(), "stripe: rebuild rows [0,32): ") ||
		!strings.Contains(rerr.Error(), "drive 3 also unavailable") {
		t.Fatalf("got %v, want ErrDoubleFailure naming drive 3 inside stripe: rebuild rows [0,32)", rerr)
	}
}

func TestParityValidation(t *testing.T) {
	if _, err := NewParity(drives(1, nil), false); err == nil {
		t.Fatal("1 drive accepted")
	}
	mixed := drives(2, nil)
	mixed = append(mixed, device.New(device.Config{Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 2, Cylinders: 2}}))
	if _, err := NewParity(mixed, false); err == nil {
		t.Fatal("mixed geometry accepted")
	}
}

func TestRotatedParitySpreadsParity(t *testing.T) {
	p, err := NewParity(drives(4, nil), true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for b := int64(0); b < 8; b++ {
		seen[p.phys(-1, b)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("rotated parity touched %d drives, want 4", len(seen))
	}
	fixed, _ := NewParity(drives(4, nil), false)
	for b := int64(0); b < 8; b++ {
		if fixed.phys(-1, b) != 3 {
			t.Fatal("dedicated parity moved")
		}
	}
}

func TestMirrorRoundTripAndFailover(t *testing.T) {
	e := (*sim.Engine)(nil)
	m, err := NewMirror(drives(2, e), drives(2, e))
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	if err := writeBlock(m, ctx, 0, 3, blockOf(0x42, 128)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := readBlock(m, ctx, 0, 3, got); err != nil || got[0] != 0x42 {
		t.Fatalf("read: %v %#x", err, got[0])
	}
	m.Drives()[0].Fail()
	clear(got)
	if err := readBlock(m, ctx, 0, 3, got); err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if got[0] != 0x42 {
		t.Fatalf("failover read %#x, want 0x42", got[0])
	}
}

func TestMirrorWritesSurviveSingleFailure(t *testing.T) {
	m, err := NewMirror(drives(1, nil), drives(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	m.Drives()[0].Fail()
	if err := writeBlock(m, ctx, 0, 0, blockOf(7, 128)); err != nil {
		t.Fatalf("write with failed primary: %v", err)
	}
	got := make([]byte, 128)
	if err := readBlock(m, ctx, 0, 0, got); err != nil || got[0] != 7 {
		t.Fatalf("read: %v %d", err, got[0])
	}
	m.Drives()[m.Devices()+0].Fail()
	if err := writeBlock(m, ctx, 0, 0, blockOf(8, 128)); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("want ErrDoubleFailure, got %v", err)
	}
	if err := readBlock(m, ctx, 0, 0, got); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("want ErrDoubleFailure, got %v", err)
	}
}

// TestMirrorSurvivesOnlyAFailedDrive: a mirror write tolerates one side
// of the pair that has failed (device.ErrFailed), and no other error. A
// write the drives refuse any other way — here a run past their end,
// device.ErrOutOfRange — reports that error: a read fails over to the
// shadow only from a failed drive, so a write that reported success
// would leave the next read of the block to the primary's error. And
// when both sides fail a read, the shadow's own error stays inside the
// ErrDoubleFailure.
func TestMirrorSurvivesOnlyAFailedDrive(t *testing.T) {
	ctx := sim.NewWall()
	m, err := NewMirror(drives(1, nil), drives(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBlock(m, ctx, 0, m.Blocks(), blockOf(7, 128)); !errors.Is(err, device.ErrOutOfRange) || errors.Is(err, device.ErrFailed) {
		t.Fatalf("write past the drives' end returned %v, want their ErrOutOfRange", err)
	}

	m.Drives()[0].Fail()
	m.Drives()[m.Devices()+0].Fail()
	err = readBlock(m, ctx, 0, 0, make([]byte, 128))
	if !errors.Is(err, ErrDoubleFailure) || !errors.Is(err, device.ErrFailed) {
		t.Fatalf("read with both sides failed returned %v, want ErrDoubleFailure carrying the shadow's error", err)
	}
}

func TestMirrorRebuild(t *testing.T) {
	m, err := NewMirror(drives(1, nil), drives(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	const rows = 5
	for b := int64(0); b < rows; b++ {
		if err := writeBlock(m, ctx, 0, b, blockOf(byte(b+1), 128)); err != nil {
			t.Fatal(err)
		}
	}
	m.Drives()[0].Fail()
	if err := m.Drives()[0].Erase(); err != nil {
		t.Fatal(err)
	}
	m.Drives()[0].Repair()
	if err := m.Rebuild(ctx, 0, rows, true); err != nil {
		t.Fatal(err)
	}
	m.Drives()[m.Devices()+0].Fail() // force reads onto the rebuilt primary
	for b := int64(0); b < rows; b++ {
		got := make([]byte, 128)
		if err := readBlock(m, ctx, 0, b, got); err != nil || got[0] != byte(b+1) {
			t.Fatalf("row %d after rebuild: %v %d", b, err, got[0])
		}
	}
}

func TestMirrorValidation(t *testing.T) {
	if _, err := NewMirror(drives(2, nil), drives(1, nil)); err == nil {
		t.Fatal("mismatched sets accepted")
	}
	if _, err := NewMirror(nil, nil); err == nil {
		t.Fatal("empty mirror accepted")
	}
}

func TestMirrorWritesOverlapUnderEngine(t *testing.T) {
	// Under the engine, primary and shadow writes are concurrent: the
	// pair costs one service time, not two.
	e := sim.NewEngine()
	m, err := NewMirror(drives(1, e), drives(1, e))
	if err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	e.Go("w", func(p *sim.Proc) {
		if err := writeBlock(m, p, 0, 0, blockOf(1, 128)); err != nil {
			t.Error(err)
		}
		elapsed = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	single := sim.NewEngine()
	d := drives(1, single)[0]
	var one time.Duration
	single.Go("w", func(p *sim.Proc) {
		if err := diskIO(p, true, d, 0, blockOf(1, 128)); err != nil {
			t.Error(err)
		}
		one = p.Now()
	})
	if err := single.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != one {
		t.Fatalf("mirrored write %v, want overlapped %v", elapsed, one)
	}
}

func TestParitySmallWritePenaltyUnderEngine(t *testing.T) {
	// The RAID small write is read+read then write+write: two serial
	// phases, each overlapped across two drives -> ~2x one service time.
	e := sim.NewEngine()
	p4, err := NewParity(drives(3, e), false)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	e.Go("w", func(p *sim.Proc) {
		if err := writeBlock(p4, p, 0, 0, blockOf(1, 128)); err != nil {
			t.Error(err)
		}
		elapsed = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	single := sim.NewEngine()
	d := drives(1, single)[0]
	var one time.Duration
	single.Go("w", func(p *sim.Proc) {
		_ = diskIO(p, false, d, 0, make([]byte, 128))
		one = p.Now()
	})
	if err := single.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 2*one {
		t.Fatalf("parity small write %v, want 2 phases = %v", elapsed, 2*one)
	}
}
