package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/device"

	"repro/internal/pfs"
	"repro/internal/sim"
)

// poolFile is a GDA file of 64 one-record blocks over two drives, and a
// shared handle on it with a 8-frame pool and one write-behind process.
func poolFile(t *testing.T, e *sim.Engine, ioProcs int) (*pfs.File, *Direct, func(drive int, fail bool)) {
	t.Helper()
	v, disks := testVolumeDisks(t, 2, e)
	f, err := v.Create(pfs.Spec{Name: "g", Org: pfs.OrgGlobalDirect, RecordSize: 256, NumRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDirect(f, Options{CacheBlocks: 8, IOProcs: ioProcs})
	if err != nil {
		t.Fatal(err)
	}
	return f, d, func(drive int, fail bool) {
		if fail {
			disks[drive].Fail()
		} else {
			disks[drive].Repair()
		}
	}
}

func rec256(v uint64) []byte { return append(rec64(v), make([]byte, 192)...) }

// TestDirectNeverClosed: a shared handle with write-behind that is
// dropped without Flush or Close must let the engine finish — its
// cleaners retire on their own — and what they wrote must be on the
// drives.
func TestDirectNeverClosed(t *testing.T) {
	e := sim.NewEngine()
	f, d, _ := poolFile(t, e, 1)
	for w := 0; w < 4; w++ {
		e.Go("w", func(p *sim.Proc) {
			for r := int64(w); r < 64; r += 4 {
				if err := d.WriteRecordAt(p, r, rec256(uint64(r)+1)); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("engine with an unclosed handle: %v", err)
	}
	st := d.CacheStats()
	if st.WriteBacks == 0 || st.WriteBacks != st.Evictions {
		t.Fatalf("%d evictions of dirty blocks, %d write-backs", st.Evictions, st.WriteBacks)
	}
	// Every evicted record is on the drives; the resident ones never left.
	fresh, err := OpenDirect(f, Options{CacheBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	onDisk := int64(0)
	buf := make([]byte, 256)
	for r := int64(0); r < 64; r++ {
		if err := fresh.ReadRecordAt(sim.NewWall(), r, buf); err != nil {
			t.Fatal(err)
		}
		switch recVal(buf) {
		case uint64(r) + 1:
			onDisk++
		case 0:
		default:
			t.Fatalf("record %d on the drives is %d", r, recVal(buf))
		}
	}
	if onDisk != st.WriteBacks {
		t.Fatalf("%d records on the drives, %d written back", onDisk, st.WriteBacks)
	}
}

// TestDirectDriveFailsBehind: a drive that fails while cleaners are
// writing surfaces on every path — the misses that write back
// themselves afterwards, and Close, which keeps failing until the drive
// is repaired and then lands everything that was not reported lost.
func TestDirectDriveFailsBehind(t *testing.T) {
	const records = 19
	e := sim.NewEngine()
	f, d, failDrive := poolFile(t, e, 1)
	reported := map[int64]bool{} // blocks some accessor was told it could not evict
	e.Go("w", func(p *sim.Proc) {
		write := func(r int64) {
			if err := d.WriteRecordAt(p, r, rec256(uint64(r)+1)); err != nil {
				reported[r] = true // the write did not happen: nothing to expect
			}
		}
		for r := int64(0); r < 16; r++ {
			write(r)
		}
		failDrive(1, true)
		// Three more victims: the first are left behind and fail under the
		// cleaner; a miss that then writes back itself sees the drive.
		for r := int64(16); r < records; r++ {
			write(r)
		}
		// Half the resident blocks are the failed drive's: Close fails for
		// as long as it is (the first time joined with the cleaner's error).
		for i := 0; i < 2; i++ {
			err := d.Close(p)
			if !errors.Is(err, device.ErrFailed) {
				t.Errorf("Close %d with drive 1 failed: %v", i, err)
			} else if n := strings.Count(err.Error(), device.ErrFailed.Error()); i == 0 && n < 2 {
				t.Errorf("first Close reports %d failed writes, want the cleaner's and its own: %v", n, err)
			}
		}
		failDrive(1, false)
		if err := d.Close(p); err != nil {
			t.Errorf("Close after the repair: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	fresh, err := OpenDirect(f, Options{CacheBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	lost := 0
	for r := int64(0); r < records; r++ {
		if err := fresh.ReadRecordAt(sim.NewWall(), r, buf); err != nil {
			t.Fatal(err)
		}
		if !reported[r] && recVal(buf) != uint64(r)+1 {
			lost++
		}
	}
	// A synchronous write-back that fails drops its victim and tells the
	// accessor whose miss evicted it, as it always has: at most one block
	// per reported error may be missing, and nothing else.
	if lost > len(reported) {
		t.Fatalf("%d records missing from the drives, %d errors reported", lost, len(reported))
	}
}
