package core

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/sim"
)

func TestSelfSchedDirectEveryRecordOnce(t *testing.T) {
	e := sim.NewEngine()
	v := testVolume(t, 4, e)
	f, err := v.Create(pfs.Spec{Name: "ssd", Org: pfs.OrgGlobalDirect, RecordSize: 64, NumRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("main", func(p *sim.Proc) {
		fillSeq(t, f, p)
		ss, err := OpenSelfSchedDirect(f, DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		seen := make(map[int64]int)
		var g sim.Group
		for w := 0; w < 3; w++ {
			g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
				dst := make([]byte, 64)
				for {
					rec, err := ss.ReadNext(c, dst)
					if err == io.EOF {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					if recVal(dst) != uint64(rec) {
						t.Errorf("record %d carried %d", rec, recVal(dst))
					}
					seen[rec]++
					c.Sleep(time.Millisecond)
				}
			})
		}
		g.Wait(p)
		if err := ss.Close(p); err != nil {
			t.Error(err)
		}
		if len(seen) != 64 {
			t.Errorf("saw %d records", len(seen))
		}
		for rec, n := range seen {
			if n != 1 {
				t.Errorf("record %d claimed %d times", rec, n)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfSchedDirectMixedRandomReads(t *testing.T) {
	// The hybrid mode: a worker claims sequential records AND performs
	// interspersed random lookups through the same cache.
	e := sim.NewEngine()
	v := testVolume(t, 2, e)
	f, err := v.Create(pfs.Spec{Name: "ssd", Org: pfs.OrgGlobalDirect, RecordSize: 64, NumRecords: 32})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("main", func(p *sim.Proc) {
		fillSeq(t, f, p)
		ss, err := OpenSelfSchedDirect(f, DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		dst := make([]byte, 64)
		for {
			rec, err := ss.ReadNext(p, dst)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
			// Random lookup relative to the claimed record.
			back := rec / 2
			if err := ss.ReadRecordAt(p, back, dst); err != nil {
				t.Error(err)
				return
			}
			if recVal(dst) != uint64(back) {
				t.Errorf("random read %d carried %d", back, recVal(dst))
			}
		}
		if ss.CacheStats().Hits == 0 {
			t.Error("no cache hits in mixed mode")
		}
		_ = ss.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfSchedDirectWriteAndStraddle(t *testing.T) {
	// Unlike sequential SS, the direct variant accepts straddling
	// records (96-byte records on 256-byte fs blocks).
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{
		Name: "ssd", Org: pfs.OrgGlobalDirect, RecordSize: 96, BlockRecords: 8, NumRecords: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	ss, err := OpenSelfSchedDirect(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 96)
	for {
		for i := range data {
			data[i] = 0x3c
		}
		if _, err := ss.WriteNext(ctx, data); err != nil {
			if errors.Is(err, io.ErrShortWrite) {
				break
			}
			t.Fatal(err)
		}
	}
	if err := ss.Close(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		data, _, err := r.ReadRecord(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != 0x3c || data[95] != 0x3c {
			t.Fatal("straddling record corrupted")
		}
		n++
	}
	_ = r.Close(ctx)
	if n != 20 {
		t.Fatalf("read %d records", n)
	}
}

// TestSelfSchedDirectTraceAndClose: one claimant's reads trace the file
// in claim order, and Close is idempotent and final.
func TestSelfSchedDirectTraceAndClose(t *testing.T) {
	e := sim.NewEngine()
	v := testVolume(t, 2, e)
	f, err := v.Create(pfs.Spec{Name: "ssd", Org: pfs.OrgGlobalDirect, RecordSize: 64, NumRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("main", func(p *sim.Proc) {
		fillSeq(t, f, p)
		ss, err := OpenSelfSchedDirect(f, DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		dst := make([]byte, 64)
		for want := int64(0); ; want++ {
			rec, err := ss.ReadNext(p, dst)
			if err == io.EOF {
				if want != 8 {
					t.Errorf("EOF after %d claims", want)
				}
				break
			}
			if err != nil || rec != want || recVal(dst) != uint64(want) {
				t.Errorf("claim %d = record %d carrying %d, %v", want, rec, recVal(dst), err)
				return
			}
		}
		if err := ss.Close(p); err != nil {
			t.Error(err)
		}
		if err := ss.Close(p); err != nil { // idempotent
			t.Error(err)
		}
		if _, err := ss.ReadNext(p, dst); err == nil {
			t.Error("read after close accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
