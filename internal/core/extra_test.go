package core

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/sim"
)

func TestDirectClosePersists(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{Name: "g", Org: pfs.OrgGlobalDirect, RecordSize: 64, NumRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	d, err := OpenDirect(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRecordAt(ctx, 3, rec64(77)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// A second, independent handle must see the record the first one's
	// Close wrote back.
	d2, err := OpenDirect(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if err := d2.ReadRecordAt(ctx, 3, dst); err != nil || recVal(dst) != 77 {
		t.Fatalf("after Close: %v %d", err, recVal(dst))
	}
	if st := d.CacheStats(); st.WriteBacks == 0 {
		t.Fatalf("no write-backs recorded: %+v", st)
	}
	if err := d.Close(ctx); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestDirectPartFlushAndStats(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{
		Name: "pda", Org: pfs.OrgPartitionedDirect, RecordSize: 64,
		BlockRecords: 2, NumRecords: 16, Parts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	d, err := OpenDirectPart(f, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRecordAt(ctx, 1, rec64(9)); err != nil {
		t.Fatal(err)
	}
	if d.CacheStats().Misses == 0 {
		t.Fatal("no misses recorded")
	}
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRecordAt(ctx, 1, rec64(9)); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := d.ReadRecordAt(ctx, 1, make([]byte, 64)); err == nil {
		t.Fatal("read after close accepted")
	}
}

func TestOpenBlockRangeReader(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{Name: "s", RecordSize: 64, BlockRecords: 2, NumRecords: 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	fillSeq(t, f, ctx)
	r, err := OpenBlockRangeReader(f, 2, 5, Options{}) // blocks 2,3,4 -> records 4..9
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		_, rec, err := r.ReadRecord(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	want := []int64{4, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range read %v, want %v", got, want)
		}
	}
	_ = r.Close(ctx)
	// Validation.
	if _, err := OpenBlockRangeReader(f, -1, 2, Options{}); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := OpenBlockRangeReader(f, 3, 2, Options{}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := OpenBlockRangeReader(f, 0, 99, Options{}); err == nil {
		t.Fatal("overlong range accepted")
	}
}

// recs64 is n 64-byte records, each carrying v.
func recs64(n int, v uint64) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, rec64(v)...)
	}
	return b
}

// readAll64 reads f back through the S view and returns each record's value.
func readAll64(t *testing.T, f *pfs.File, ctx sim.Context) []uint64 {
	t.Helper()
	r, err := OpenReader(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var vals []uint64
	for {
		data, _, err := r.ReadRecord(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, recVal(data))
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestSelfSchedBlockModeWrite(t *testing.T) {
	e := sim.NewEngine()
	v := testVolume(t, 2, e)
	f, err := v.Create(pfs.Spec{
		Name: "ssb", Org: pfs.OrgSelfScheduled, RecordSize: 64,
		BlockRecords: 4, NumRecords: 22, // last block short: 2 records
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("main", func(p *sim.Proc) {
		ss, err := OpenSelfSched(f, SSWrite, DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		var g sim.Group
		for w := 0; w < 2; w++ {
			g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
				m := f.Mapper()
				for {
					// Build the payload for a full block; the final short
					// block rejects it, and the retry with its real size
					// must land in that same block.
					_, err := ss.WriteNextBlock(c, recs64(4, uint64(100+w)))
					if errors.Is(err, io.ErrShortWrite) {
						return
					}
					if err != nil {
						short := recs64(m.RecordsInBlock(m.NumBlocks()-1), uint64(100+w))
						if _, err := ss.WriteNextBlock(c, short); err != nil {
							if !errors.Is(err, io.ErrShortWrite) {
								t.Error(err)
							}
							return
						}
					}
					c.Sleep(time.Millisecond)
				}
			})
		}
		g.Wait(p)
		if err := ss.Close(p); err != nil {
			t.Error(err)
		}
		vals := readAll64(t, f, p)
		if len(vals) != 22 {
			t.Errorf("read %d records, want 22", len(vals))
		}
		for r, v := range vals {
			if v != 100 && v != 101 {
				t.Errorf("record %d carries %d, not a writer's tag", r, v)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfSchedRejectedBlockKeepsItsSlot: a block write whose payload has
// the wrong length is refused without claiming the block, so the retry
// with the right length lands in it and no record is left unwritten.
func TestSelfSchedRejectedBlockKeepsItsSlot(t *testing.T) {
	for _, opts := range []Options{{}, DefaultOptions()} {
		v := testVolume(t, 2, nil)
		f, err := v.Create(pfs.Spec{Name: "ssb", Org: pfs.OrgSelfScheduled, RecordSize: 64, BlockRecords: 4, NumRecords: 22})
		if err != nil {
			t.Fatal(err)
		}
		ctx := sim.NewWall()
		ss, err := OpenSelfSched(f, SSWrite, opts)
		if err != nil {
			t.Fatal(err)
		}
		for b := int64(0); b < 5; b++ {
			if _, err := ss.WriteNextBlock(ctx, recs64(3, 9)); err == nil {
				t.Fatalf("block %d took a 3-record payload", b)
			}
			if got, err := ss.WriteNextBlock(ctx, recs64(4, uint64(b+1))); err != nil || got != b {
				t.Fatalf("block write = %d, %v; want block %d", got, err, b)
			}
		}
		if _, err := ss.WriteNextBlock(ctx, recs64(4, 6)); err == nil {
			t.Fatal("the 2-record last block took a 4-record payload")
		}
		if got, err := ss.WriteNextBlock(ctx, recs64(2, 6)); err != nil || got != 5 {
			t.Fatalf("retry = %d, %v; want block 5", got, err)
		}
		if _, err := ss.WriteNextBlock(ctx, recs64(2, 7)); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("write past the end: %v", err)
		}
		if err := ss.Close(ctx); err != nil {
			t.Fatal(err)
		}
		vals := readAll64(t, f, ctx)
		if len(vals) != 22 {
			t.Fatalf("read %d records, want 22", len(vals))
		}
		for r, v := range vals {
			if want := uint64(r/4 + 1); v != want {
				t.Fatalf("opts %+v: record %d carries %d, want %d", opts, r, v, want)
			}
		}
	}
}

func TestSelfSchedSerializedWritePath(t *testing.T) {
	// EarlyRelease=false exercises the synchronous write-under-lock path.
	e := sim.NewEngine()
	v := testVolume(t, 2, e)
	f, err := v.Create(pfs.Spec{Name: "ss", Org: pfs.OrgSelfScheduled, RecordSize: 64, NumRecords: 24})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("main", func(p *sim.Proc) {
		opts := Options{NBufs: 2, IOProcs: 1, EarlyRelease: false}
		ss, err := OpenSelfSched(f, SSWrite, opts)
		if err != nil {
			t.Error(err)
			return
		}
		var g sim.Group
		for w := 0; w < 3; w++ {
			g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
				for {
					if _, err := ss.WriteNext(c, rec64(1)); err != nil {
						return
					}
				}
			})
		}
		g.Wait(p)
		if err := ss.Close(p); err != nil {
			t.Error(err)
		}
		// All records must be non-zero after close.
		r, err := OpenReader(f, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		n := 0
		for {
			data, _, err := r.ReadRecord(p)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
			if recVal(data) != 1 {
				t.Errorf("record value %d", recVal(data))
			}
			n++
		}
		_ = r.Close(p)
		if n != 24 {
			t.Errorf("read %d records", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalWriterRejectsOverflow(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{Name: "g", RecordSize: 64, NumRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	gw, err := OpenGlobalWriter(f, ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Write(make([]byte, 3*64)); err == nil {
		t.Fatal("overflow accepted")
	}
	_ = gw.Close()
	if _, err := gw.Write([]byte{1}); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestStreamReaderCloseIdempotentAndReadAfterClose(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{Name: "s", RecordSize: 64, NumRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	fillSeq(t, f, ctx)
	r, err := OpenReader(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadRecord(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadRecord(ctx); err == nil {
		t.Fatal("read after close accepted")
	}
}
