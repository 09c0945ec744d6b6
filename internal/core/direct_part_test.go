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
// seeded sequence of single-record and batch reads and writes through
// OpenDirect and through OpenDirectPart costs the same modeled time,
// leaves the same cache counters and lands the same image. On a
// two-partition file, a record of the other partition fails with one
// error whether it is asked for alone or inside a batch.
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
			many := make([]byte, 8*64)
			for i := 0; i < 300; i++ {
				rec := int64(rng.Intn(records))
				count := 1 + int64(rng.Intn(8))
				if rec+count > records {
					count = records - rec
				}
				var err error
				switch rng.Intn(4) {
				case 0:
					err = d.ReadRecordAt(p, rec, one)
				case 1:
					err = d.WriteRecordAt(p, rec, rec64(rng.Uint64()))
				case 2:
					err = d.ReadRecordsAt(p, rec, count, many[:count*64])
				case 3:
					for k := int64(0); k < count; k++ {
						copy(many[k*64:], rec64(rng.Uint64()))
					}
					err = d.WriteRecordsAt(p, rec, count, many[:count*64])
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
	alone := d.ReadRecordAt(ctx, 48, make([]byte, 64))
	batch := d.ReadRecordsAt(ctx, 46, 3, make([]byte, 3*64))
	if alone == nil || batch == nil || alone.Error() != batch.Error() {
		t.Errorf("foreign record: ReadRecordAt %v, ReadRecordsAt %v; want one error", alone, batch)
	}
}
