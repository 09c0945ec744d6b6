package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// TestDirectPartIsDirect: a PDA handle is the GDA handle with a record
// check. On a one-partition file, where every record is owned, the same
// seeded sequence of record reads and writes through OpenDirect and
// through OpenDirectPart costs the same modeled time, leaves the same
// cache counters and lands the same image. On a two-partition file, a
// record of the other partition is refused, read or written, and the
// partition's own last record is not.
func TestDirectPartIsDirect(t *testing.T) {
	const records = 96
	spec := pfs.Spec{Name: "pda", Org: pfs.OrgPartitionedDirect, RecordSize: 64,
		BlockRecords: 4, NumRecords: records, Parts: 1}
	type outcome struct {
		now   time.Duration
		stats buffer.CacheStats
		image []map[int64][]byte
	}
	run := func(part bool) outcome {
		e := sim.NewEngine()
		v, disks := testVolumeDisks(t, 2, e)
		f, err := v.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{CacheBlocks: 4, IOProcs: 1}
		var d *Direct
		if part {
			d, err = OpenDirectPart(f, 0, opts)
		} else {
			d, err = OpenDirect(f, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		e.Go("ops", func(p *sim.Proc) {
			rng := sim.NewRNG(7)
			one := make([]byte, 64)
			for i := 0; i < 600; i++ {
				rec := int64(rng.Intn(records))
				var err error
				if rng.Intn(2) == 0 {
					err = d.ReadRecordAt(p, rec, one)
				} else {
					err = d.WriteRecordAt(p, rec, rec64(rng.Uint64()))
				}
				if err != nil {
					t.Errorf("op %d: %v", i, err)
				}
			}
			if err := d.Close(p); err != nil {
				t.Error(err)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		o := outcome{now: e.Now(), stats: d.CacheStats()}
		for _, dk := range disks {
			snap, err := dk.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			o.image = append(o.image, snap)
		}
		return o
	}
	gda, pda := run(false), run(true)
	if gda.now == 0 || gda.stats.Hits == 0 || gda.stats.Misses == 0 {
		t.Fatalf("the sequence exercised nothing: %v, %+v", gda.now, gda.stats)
	}
	if gda.now != pda.now {
		t.Errorf("modeled time: GDA %v, PDA %v", gda.now, pda.now)
	}
	if gda.stats != pda.stats {
		t.Errorf("cache stats: GDA %+v, PDA %+v", gda.stats, pda.stats)
	}
	if !reflect.DeepEqual(gda.image, pda.image) {
		t.Error("GDA and PDA landed different images")
	}

	// Partition 0 of two owns blocks 0..11 = records 0..47.
	spec.Parts = 2
	f, err := testVolume(t, 2, nil).Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDirectPart(f, 0, Options{CacheBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	const want = "core: PDA violation: record 48 is in block 12 owned by partition 1, not 0"
	rerr := d.ReadRecordAt(ctx, 48, make([]byte, 64))
	werr := d.WriteRecordAt(ctx, 48, rec64(1))
	if rerr == nil || werr == nil || rerr.Error() != want || werr.Error() != want {
		t.Errorf("foreign record: ReadRecordAt %v, WriteRecordAt %v; want %q", rerr, werr, want)
	}
	if err := d.ReadRecordAt(ctx, 47, make([]byte, 64)); err != nil {
		t.Errorf("own last record: %v", err)
	}
}
