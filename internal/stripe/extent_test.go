package stripe

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// newDrives builds n identical small untimed drives.
func newDrives(t *testing.T, n int, e *sim.Engine) []*device.Disk {
	t.Helper()
	disks := make([]*device.Disk, n)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     fmt.Sprintf("d%d", i),
			Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 32},
			Engine:   e,
		})
	}
	return disks
}

// checkParityConsistent asserts that XOR across all physical drives is
// zero for rows [0, rows).
func checkParityConsistent(t *testing.T, p *Parity, rows int64) {
	t.Helper()
	ctx := sim.NewWall()
	bs := p.BlockSize()
	acc := make([]byte, bs)
	buf := make([]byte, bs)
	for b := int64(0); b < rows; b++ {
		clear(acc)
		for i := 0; i < len(p.disks); i++ {
			if err := diskIO(ctx, false, p.Drives()[i], b, buf); err != nil {
				t.Fatalf("row %d drive %d: %v", b, i, err)
			}
			xorInto(acc, buf)
		}
		for _, x := range acc {
			if x != 0 {
				t.Fatalf("row %d parity inconsistent", b)
			}
		}
	}
}

// TestParityRunEquivalence writes runs through WriteBlocks and asserts
// the data reads back identically block-at-a-time and via ReadBlocks,
// parity stays consistent, and a degraded (failed-drive) ranged read
// still reconstructs the exact bytes — for both the dedicated check
// disk (RAID-4) and rotated parity (RAID-5) geometries.
func TestParityRunEquivalence(t *testing.T) {
	for _, rotate := range []bool{false, true} {
		t.Run(fmt.Sprintf("rotate=%v", rotate), func(t *testing.T) {
			ctx := sim.NewWall()
			const rows = 40
			const bs = 64
			p, err := NewParity(newDrives(t, 5, nil), rotate)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			want := make([][]byte, p.Devices())
			for dev := range want {
				want[dev] = make([]byte, rows*bs)
				rng.Read(want[dev])
				// Irregular run sizes cover the segment-splitting logic.
				for b := int64(0); b < rows; {
					n := int64(rng.Intn(9) + 1)
					if b+n > rows {
						n = rows - b
					}
					if err := writeBlocks(p, ctx, dev, b, int(n), want[dev][b*bs:(b+n)*bs]); err != nil {
						t.Fatalf("WriteBlocks(dev=%d,b=%d,n=%d): %v", dev, b, n, err)
					}
					b += n
				}
			}
			checkParityConsistent(t, p, rows)

			// Healthy ranged and per-block reads agree.
			got := make([]byte, rows*bs)
			buf := make([]byte, bs)
			for dev := range want {
				if err := readBlocks(p, ctx, dev, 0, rows, got); err != nil {
					t.Fatalf("ReadBlocks(dev=%d): %v", dev, err)
				}
				if !bytes.Equal(got, want[dev]) {
					t.Fatalf("dev %d ranged read mismatch", dev)
				}
				for b := int64(0); b < rows; b++ {
					if err := readBlock(p, ctx, dev, b, buf); err != nil {
						t.Fatalf("ReadBlock(dev=%d,b=%d): %v", dev, b, err)
					}
					if !bytes.Equal(buf, want[dev][b*bs:(b+1)*bs]) {
						t.Fatalf("dev %d block %d mismatch", dev, b)
					}
				}
			}

			// Degraded: fail each physical drive in turn; every visible
			// device must still read back exactly via ReadBlocks.
			for fail := 0; fail < len(p.disks); fail++ {
				p.Drives()[fail].Fail()
				for dev := range want {
					if err := readBlocks(p, ctx, dev, 0, rows, got); err != nil {
						t.Fatalf("degraded(fail=%d) ReadBlocks(dev=%d): %v", fail, dev, err)
					}
					if !bytes.Equal(got, want[dev]) {
						t.Fatalf("degraded(fail=%d) dev %d mismatch", fail, dev)
					}
				}
				p.Drives()[fail].Repair()
			}

			// Degraded writes: runs written with a failed drive must fold
			// into parity and read back after repair+rebuild.
			p.Drives()[0].Fail()
			alt := make([]byte, rows*bs)
			rng.Read(alt)
			if err := writeBlocks(p, ctx, 0, 0, rows, alt); err != nil {
				t.Fatalf("degraded WriteBlocks: %v", err)
			}
			if err := readBlocks(p, ctx, 0, 0, rows, got); err != nil {
				t.Fatalf("degraded read-after-write: %v", err)
			}
			if !bytes.Equal(got, alt) {
				t.Fatal("degraded write not recoverable")
			}
			p.Drives()[0].Repair()
			if err := p.Drives()[0].Erase(); err != nil {
				t.Fatal(err)
			}
			if err := p.Rebuild(ctx, 0, rows); err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			checkParityConsistent(t, p, rows)
			if err := readBlocks(p, ctx, 0, 0, rows, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, alt) {
				t.Fatal("post-rebuild mismatch")
			}
		})
	}
}

// TestParityRunUnderEngine exercises concurrent overlapping WriteBlocks
// from managed processes: ascending row-lock acquisition must not
// deadlock and parity must stay consistent.
func TestParityRunUnderEngine(t *testing.T) {
	const rows = 32
	const bs = 64
	e := sim.NewEngine()
	p, err := NewParity(newDrives(t, 4, e), true)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		w := w
		e.Go(fmt.Sprintf("writer%d", w), func(pr *sim.Proc) {
			data := make([]byte, rows*bs)
			rand.New(rand.NewSource(int64(w))).Read(data)
			for pass := 0; pass < 2; pass++ {
				for b := int64(0); b < rows; b += 8 {
					if err := writeBlocks(p, pr, w, b, 8, data[b*bs:(b+8)*bs]); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	checkParityConsistent(t, p, rows)
}

// TestMirrorRunEquivalence checks WriteBlocks lands on drive and shadow,
// ranged reads equal per-block reads, and a failed primary fails over.
func TestMirrorRunEquivalence(t *testing.T) {
	ctx := sim.NewWall()
	const rows = 24
	const bs = 64
	m, err := NewMirror(newDrives(t, 2, nil), newDrives(t, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	want := make([]byte, rows*bs)
	rng.Read(want)
	for b := int64(0); b < rows; {
		n := int64(rng.Intn(5) + 1)
		if b+n > rows {
			n = rows - b
		}
		if err := writeBlocks(m, ctx, 1, b, int(n), want[b*bs:(b+n)*bs]); err != nil {
			t.Fatalf("WriteBlocks: %v", err)
		}
		b += n
	}
	got := make([]byte, rows*bs)
	if err := readBlocks(m, ctx, 1, 0, rows, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mirror ranged read mismatch")
	}
	buf := make([]byte, bs)
	for b := int64(0); b < rows; b++ {
		if err := diskIO(ctx, false, m.Drives()[m.Devices()+1], b, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[b*bs:(b+1)*bs]) {
			t.Fatalf("shadow row %d differs", b)
		}
	}
	m.Drives()[1].Fail()
	clear(got)
	if err := readBlocks(m, ctx, 1, 0, rows, got); err != nil {
		t.Fatalf("failover ReadBlocks: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failover read mismatch")
	}
	m.Drives()[m.Devices()+1].Fail()
	if err := readBlocks(m, ctx, 1, 0, rows, got); err == nil {
		t.Fatal("double failure read should error")
	}
}
