package stripe

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// TestParityConcurrentAggregators is the -race regression for parity
// scratch staging under concurrent collective writers: many aggregator
// processes issue overlapping-row vectored writes (the writeVec
// staging path) to different visible devices concurrently, interleaved
// with degraded-style single-row writers. The per-row locks must be
// taken in global (ascending-row) order, so the run must neither
// deadlock nor — under `go test -race` — trip the race detector, and
// every parity row must be consistent afterwards (XOR of all drives'
// blocks = 0).
func TestParityConcurrentAggregators(t *testing.T) {
	const (
		dataDevs = 4
		rows     = 64
		writers  = 8
		span     = 24 // rows per writer: overlapping ranges across writers
	)
	e := sim.NewEngine()
	disks := make([]*device.Disk, dataDevs+1)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     fmt.Sprintf("d%d", i),
			Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 16},
			Engine:   e,
		})
	}
	p, err := NewParity(disks, true)
	if err != nil {
		t.Fatal(err)
	}
	bs := p.BlockSize()

	for w := 0; w < writers; w++ {
		w := w
		e.Go(fmt.Sprintf("agg-%d", w), func(pr *sim.Proc) {
			dev := w % dataDevs
			base := int64(w * 5) // ranges [base, base+span) overlap heavily
			// A two-segment scatter list exercises the scratch staging.
			buf := make([]byte, span*bs)
			for i := range buf {
				buf[i] = byte(w*31 + i)
			}
			srcs := [][]byte{buf[: 8*bs : 8*bs], buf[8*bs:]}
			if err := p.writeVec(pr, dev, base, span, srcs); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
			// A second, shifted run so lock ranges cross between writers
			// in both directions.
			if err := writeBlocks(p, pr, (dev+1)%dataDevs, base+2, span, buf); err != nil {
				t.Errorf("writer %d second run: %v", w, err)
			}
		})
	}
	for w := 0; w < 4; w++ {
		w := w
		e.Go(fmt.Sprintf("row-%d", w), func(pr *sim.Proc) {
			blk := make([]byte, bs)
			for i := range blk {
				blk[i] = byte(200 + w)
			}
			for r := int64(w); r < rows; r += 16 {
				if err := writeBlock(p, pr, (w+2)%dataDevs, r, blk); err != nil {
					t.Errorf("row writer %d: %v", w, err)
					return
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	// Parity invariant: every row XORs to zero across all drives.
	ctx := sim.NewWall()
	acc := make([]byte, bs)
	blk := make([]byte, bs)
	for r := int64(0); r < rows; r++ {
		clear(acc)
		for i := range disks {
			if err := diskIO(ctx, false, disks[i], r, blk); err != nil {
				t.Fatal(err)
			}
			xorInto(acc, blk)
		}
		for _, x := range acc {
			if x != 0 {
				t.Fatalf("row %d parity inconsistent after concurrent writers", r)
			}
		}
	}
}
