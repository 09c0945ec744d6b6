package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// testVolume builds a volume over devs fresh disks (engine optional).
func testVolume(t *testing.T, devs int, e *sim.Engine) *pfs.Volume {
	t.Helper()
	v, _ := testVolumeDisks(t, devs, e)
	return v
}

// testVolumeDisks is testVolume with the drives exposed (to fail them).
func testVolumeDisks(t *testing.T, devs int, e *sim.Engine) (*pfs.Volume, []*device.Disk) {
	t.Helper()
	disks := make([]*device.Disk, devs)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     "d",
			Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 128},
			Engine:   e,
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	return pfs.NewVolume(store), disks
}

// rec64 builds a 64-byte record whose first 8 bytes encode v.
func rec64(v uint64) []byte {
	b := make([]byte, 64)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func recVal(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// fillSeq writes records 0..n-1 (value = index) through the S view.
func fillSeq(t *testing.T, f *pfs.File, ctx sim.Context) {
	t.Helper()
	w, err := OpenWriter(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < f.Mapper().NumRecords(); r++ {
		if _, err := w.WriteRecord(ctx, rec64(uint64(r))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialWriteReadRoundTrip(t *testing.T) {
	v := testVolume(t, 4, nil)
	f, err := v.Create(pfs.Spec{Name: "s", Org: pfs.OrgSequential, RecordSize: 64, NumRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	fillSeq(t, f, ctx)
	r, err := OpenReader(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(0); ; want++ {
		data, rec, err := r.ReadRecord(ctx)
		if err == io.EOF {
			if want != 100 {
				t.Fatalf("EOF after %d records", want)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec != want || recVal(data) != uint64(want) {
			t.Fatalf("record %d: idx %d val %d", want, rec, recVal(data))
		}
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestStreamReaderRecordsCount(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{Name: "s", Org: pfs.OrgSequential, RecordSize: 64, BlockRecords: 3, NumRecords: 10})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The view's record count: its paper-blocks' records, 3 + 3 + 3 + 1.
	var n int64
	m := f.Mapper()
	for j := int64(0); j < r.seq.n; j++ {
		n += int64(m.RecordsInBlock(r.seq.pb(j)))
	}
	if n != 10 {
		t.Fatalf("view counts %d records, want 10", n)
	}
}

func TestPartitionedViews(t *testing.T) {
	v := testVolume(t, 4, nil)
	f, err := v.Create(pfs.Spec{
		Name: "ps", Org: pfs.OrgPartitioned, RecordSize: 64,
		BlockRecords: 4, NumRecords: 64, Parts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	// Each partition writes its own records (value = 1000*part + seq).
	for p := 0; p < 4; p++ {
		w, err := OpenPartWriter(f, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		first, end := f.PartRecordRange(p)
		for r := first; r < end; r++ {
			idx, err := w.WriteRecord(ctx, rec64(uint64(1000*p)+uint64(r-first)))
			if err != nil {
				t.Fatal(err)
			}
			if idx != r {
				t.Fatalf("part %d wrote record %d, want %d", p, idx, r)
			}
		}
		if err := w.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Read back per partition.
	for p := 0; p < 4; p++ {
		r, err := OpenPartReader(f, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		first, end := f.PartRecordRange(p)
		for want := first; want < end; want++ {
			data, rec, err := r.ReadRecord(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rec != want || recVal(data) != uint64(1000*p)+uint64(want-first) {
				t.Fatalf("part %d record %d: idx %d val %d", p, want, rec, recVal(data))
			}
		}
		if _, _, err := r.ReadRecord(ctx); err != io.EOF {
			t.Fatalf("partition overrun: %v", err)
		}
		if err := r.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// And the global view sees the canonical order.
	gr, err := OpenReader(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(0); want < 64; want++ {
		data, rec, err := gr.ReadRecord(ctx)
		if err != nil {
			t.Fatal(err)
		}
		p := int(want / 16)
		if rec != want || recVal(data) != uint64(1000*p)+uint64(want-int64(p)*16) {
			t.Fatalf("global record %d: idx %d val %d", want, rec, recVal(data))
		}
	}
	if err := gr.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedViews(t *testing.T) {
	v := testVolume(t, 3, nil)
	f, err := v.Create(pfs.Spec{
		Name: "is", Org: pfs.OrgInterleaved, RecordSize: 64,
		BlockRecords: 2, NumRecords: 36, Parts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	// Each proc writes its stride class.
	for p := 0; p < 3; p++ {
		w, err := OpenInterleavedWriter(f, p, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, err := w.WriteRecord(ctx, rec64(uint64(100+p)))
			if err != nil {
				if errors.Is(err, io.ErrShortWrite) {
					break
				}
				t.Fatal(err)
			}
		}
		if err := w.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Global view: block b (2 records) written by proc b%3.
	gr, err := OpenReader(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(0); want < 36; want++ {
		data, rec, err := gr.ReadRecord(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantProc := int((want / 2) % 3)
		if rec != want || recVal(data) != uint64(100+wantProc) {
			t.Fatalf("record %d: val %d, want proc %d", want, recVal(data), wantProc)
		}
	}
	if err := gr.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedReaderStrideClass(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{
		Name: "is", Org: pfs.OrgInterleaved, RecordSize: 64,
		BlockRecords: 2, NumRecords: 20, Parts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	fillSeq(t, f, ctx)
	r, err := OpenInterleavedReader(f, 1, 2, Options{})
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
	want := []int64{2, 3, 6, 7, 10, 11, 14, 15, 18, 19}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stride class = %v, want %v", got, want)
		}
	}
}

func TestStreamValidationErrors(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{
		Name: "ps", Org: pfs.OrgPartitioned, RecordSize: 64,
		BlockRecords: 2, NumRecords: 8, Parts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPartReader(f, 2, Options{}); err == nil {
		t.Fatal("bad partition accepted")
	}
	if _, err := OpenPartReader(f, -1, Options{}); err == nil {
		t.Fatal("negative partition accepted")
	}
	if _, err := OpenInterleavedReader(f, 2, 2, Options{}); err == nil {
		t.Fatal("part >= stride accepted")
	}
	if _, err := OpenInterleavedReader(f, 0, 0, Options{}); err == nil {
		t.Fatal("zero stride accepted")
	}
	ctx := sim.NewWall()
	w, err := OpenPartWriter(f, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteRecord(ctx, make([]byte, 3)); err == nil {
		t.Fatal("short record accepted")
	}
	for i := 0; i < 4; i++ {
		if _, err := w.WriteRecord(ctx, rec64(0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.WriteRecord(ctx, rec64(0)); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("overrun error = %v", err)
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteRecord(ctx, rec64(0)); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestStraddlingRecordsAcrossFSBlocks(t *testing.T) {
	// 96-byte records on 256-byte fs blocks straddle; stream views must
	// still round-trip.
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{
		Name: "odd", Org: pfs.OrgSequential, RecordSize: 96,
		BlockRecords: 8, NumRecords: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	w, err := OpenWriter(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 33; r++ {
		data := make([]byte, 96)
		for i := range data {
			data[i] = byte(r)
		}
		if _, err := w.WriteRecord(ctx, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(0); want < 33; want++ {
		data, _, err := rd.ReadRecord(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(want) || data[95] != byte(want) {
			t.Fatalf("record %d corrupted: %d %d", want, data[0], data[95])
		}
	}
	if err := rd.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSelfScheduledReadEveryRecordOnce(t *testing.T) {
	e := sim.NewEngine()
	v := testVolume(t, 4, e)
	f, err := v.Create(pfs.Spec{Name: "ss", Org: pfs.OrgSelfScheduled, RecordSize: 64, NumRecords: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Fill under the engine too (device calls need managed procs).
	e.Go("producer", func(p *sim.Proc) {
		fillSeq(t, f, p)
		ss, err := OpenSelfSched(f, SSRead, DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		seen := make(map[int64]int)
		var g sim.Group
		for w := 0; w < 4; w++ {
			g.Spawn(p.Engine(), "worker", func(c *sim.Proc) {
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
					c.Sleep(time.Millisecond) // simulate work
				}
			})
		}
		g.Wait(p)
		if err := ss.Close(p); err != nil {
			t.Error(err)
		}
		if len(seen) != 128 {
			t.Errorf("saw %d distinct records", len(seen))
		}
		for rec, n := range seen {
			if n != 1 {
				t.Errorf("record %d delivered %d times", rec, n)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfScheduledWriteFillsFile(t *testing.T) {
	e := sim.NewEngine()
	v := testVolume(t, 4, e)
	f, err := v.Create(pfs.Spec{Name: "ss", Org: pfs.OrgSelfScheduled, RecordSize: 64, NumRecords: 64})
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
		for w := 0; w < 3; w++ {
			wid := w
			g.Spawn(p.Engine(), "worker", func(c *sim.Proc) {
				for {
					_, err := ss.WriteNext(c, rec64(uint64(500+wid)))
					if errors.Is(err, io.ErrShortWrite) {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		g.Wait(p)
		if err := ss.Close(p); err != nil {
			t.Error(err)
		}
		// Every record must carry some worker's tag.
		r, err := OpenReader(f, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		count := 0
		for {
			data, _, err := r.ReadRecord(p)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
			if v := recVal(data); v < 500 || v > 502 {
				t.Errorf("record value %d not a worker tag", v)
			}
			count++
		}
		if count != 64 {
			t.Errorf("read %d records", count)
		}
		_ = r.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfScheduledBlockMode(t *testing.T) {
	e := sim.NewEngine()
	v := testVolume(t, 2, e)
	f, err := v.Create(pfs.Spec{
		Name: "ssb", Org: pfs.OrgSelfScheduled, RecordSize: 64,
		BlockRecords: 4, NumRecords: 30, // final block short: 2 records
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("main", func(p *sim.Proc) {
		fillSeq(t, f, p)
		ss, err := OpenSelfSched(f, SSRead, DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		blocks := 0
		records := 0
		for {
			payload, b, err := ss.ReadNextBlock(p)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
			nRec := len(payload) / 64
			for i := 0; i < nRec; i++ {
				want := uint64(b*4 + int64(i))
				if got := recVal(payload[i*64:]); got != want {
					t.Errorf("block %d record %d carried %d, want %d", b, i, got, want)
				}
			}
			blocks++
			records += nRec
		}
		if blocks != 8 || records != 30 {
			t.Errorf("blocks=%d records=%d", blocks, records)
		}
		// Mixing granularities must fail.
		dst := make([]byte, 64)
		if _, err := ss.ReadNext(p, dst); err == nil {
			t.Error("granularity mix accepted")
		}
		_ = ss.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfScheduledRejectsStraddlingRecords(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{
		Name: "bad", Org: pfs.OrgSelfScheduled, RecordSize: 96, BlockRecords: 8, NumRecords: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSelfSched(f, SSRead, Options{}); err == nil {
		t.Fatal("straddling records accepted for SS")
	}
}

func TestSelfScheduledEarlyReleaseFaster(t *testing.T) {
	// 4 workers reading 64 records with per-record compute; early release
	// must beat the fully serialized implementation.
	run := func(early bool) time.Duration {
		e := sim.NewEngine()
		v := testVolume(t, 4, e)
		f, err := v.Create(pfs.Spec{Name: "ss", Org: pfs.OrgSelfScheduled, RecordSize: 64, NumRecords: 64})
		if err != nil {
			t.Fatal(err)
		}
		var end time.Duration
		e.Go("main", func(p *sim.Proc) {
			fillSeq(t, f, p)
			start := p.Now()
			opts := DefaultOptions()
			opts.EarlyRelease = early
			opts.NBufs = 4
			opts.IOProcs = 4
			ss, err := OpenSelfSched(f, SSRead, opts)
			if err != nil {
				t.Error(err)
				return
			}
			var g sim.Group
			for w := 0; w < 4; w++ {
				g.Spawn(p.Engine(), "worker", func(c *sim.Proc) {
					dst := make([]byte, 64)
					for {
						if _, err := ss.ReadNext(c, dst); err != nil {
							return
						}
						c.Sleep(2 * time.Millisecond)
					}
				})
			}
			g.Wait(p)
			_ = ss.Close(p)
			end = p.Now() - start
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	fast, slow := run(true), run(false)
	if fast >= slow {
		t.Fatalf("early release %v not faster than serialized %v", fast, slow)
	}
}

func TestDirectRandomAccess(t *testing.T) {
	v := testVolume(t, 4, nil)
	f, err := v.Create(pfs.Spec{Name: "gda", Org: pfs.OrgGlobalDirect, RecordSize: 64, NumRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	d, err := OpenDirect(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Write in a scrambled order, read back in another.
	perm := rand.New(rand.NewSource(7)).Perm(64)
	for _, r := range perm {
		if err := d.WriteRecordAt(ctx, int64(r), rec64(uint64(r*3))); err != nil {
			t.Fatal(err)
		}
	}
	perm2 := rand.New(rand.NewSource(9)).Perm(64)
	dst := make([]byte, 64)
	for _, r := range perm2 {
		if err := d.ReadRecordAt(ctx, int64(r), dst); err != nil {
			t.Fatal(err)
		}
		if recVal(dst) != uint64(r*3) {
			t.Fatalf("record %d = %d", r, recVal(dst))
		}
	}
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := d.CacheStats()
	if st.Hits == 0 {
		t.Fatal("no cache hits on 4-records-per-block file")
	}
	// After close the data is durable: reopen and check.
	d2, err := OpenDirect(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.ReadRecordAt(ctx, 11, dst); err != nil || recVal(dst) != 33 {
		t.Fatalf("durability: %v %d", err, recVal(dst))
	}
	if err := d2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestDirectValidation(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{Name: "gda", Org: pfs.OrgGlobalDirect, RecordSize: 64, NumRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	d, err := OpenDirect(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ReadRecordAt(ctx, 8, make([]byte, 64)); err == nil {
		t.Fatal("out-of-range record accepted")
	}
	if err := d.ReadRecordAt(ctx, 0, make([]byte, 3)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadRecordAt(ctx, 0, make([]byte, 64)); err == nil {
		t.Fatal("read after close accepted")
	}
}

func TestDirectPartOwnership(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{
		Name: "pda", Org: pfs.OrgPartitionedDirect, RecordSize: 64,
		BlockRecords: 4, NumRecords: 64, Parts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	d0, err := OpenDirectPart(f, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Partition 0 owns blocks 0..7 = records 0..31.
	if err := d0.WriteRecordAt(ctx, 31, rec64(1)); err != nil {
		t.Fatal(err)
	}
	if err := d0.WriteRecordAt(ctx, 32, rec64(1)); err == nil {
		t.Fatal("foreign record accepted")
	}
	dst := make([]byte, 64)
	if err := d0.ReadRecordAt(ctx, 31, dst); err != nil || recVal(dst) != 1 {
		t.Fatalf("read back: %v %d", err, recVal(dst))
	}
	if err := d0.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDirectPart(f, 2, Options{}); err == nil {
		t.Fatal("bad partition accepted")
	}
}

func TestDirectPartSeqWithinBlocks(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{
		Name: "pda", Org: pfs.OrgPartitionedDirect, RecordSize: 64,
		BlockRecords: 4, NumRecords: 32, Parts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	opts := DefaultOptions()
	opts.SeqWithinBlocks = true
	d, err := OpenDirectPart(f, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	// In-order within block 0 is fine.
	for r := int64(0); r < 4; r++ {
		if err := d.ReadRecordAt(ctx, r, dst); err != nil {
			t.Fatal(err)
		}
	}
	// Blocks may be revisited (new pass).
	if err := d.ReadRecordAt(ctx, 0, dst); err != nil {
		t.Fatal(err)
	}
	// But skipping within a block is rejected.
	if err := d.ReadRecordAt(ctx, 2, dst); err == nil {
		t.Fatal("out-of-order intra-block access accepted in restricted mode")
	}
	_ = d.Close(ctx)
}

func TestGlobalReaderWholeFile(t *testing.T) {
	v := testVolume(t, 4, nil)
	f, err := v.Create(pfs.Spec{
		Name: "g", Org: pfs.OrgPartitioned, RecordSize: 64,
		BlockRecords: 4, NumRecords: 32, Parts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	fillSeq(t, f, ctx)
	gr, err := OpenGlobalReader(f, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gr.size != 32*64 {
		t.Fatalf("size = %d", gr.size)
	}
	all, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 32*64 {
		t.Fatalf("read %d bytes", len(all))
	}
	for r := 0; r < 32; r++ {
		if got := binary.BigEndian.Uint64(all[r*64:]); got != uint64(r) {
			t.Fatalf("record %d = %d", r, got)
		}
	}
}

func TestGlobalReaderSeek(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{Name: "g", RecordSize: 64, NumRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	fillSeq(t, f, ctx)
	gr, err := OpenGlobalReader(f, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gr.Seek(5*64, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := io.ReadFull(gr, buf); err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint64(buf) != 5 {
		t.Fatalf("seek read %d", binary.BigEndian.Uint64(buf))
	}
	if _, err := gr.Seek(-64, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(gr, buf); err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint64(buf) != 15 {
		t.Fatalf("end seek read %d", binary.BigEndian.Uint64(buf))
	}
	if _, err := gr.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek accepted")
	}
	if _, err := gr.Seek(0, 9); err == nil {
		t.Fatal("bad whence accepted")
	}
}

func TestGlobalWriterPadsFinalRecord(t *testing.T) {
	v := testVolume(t, 2, nil)
	f, err := v.Create(pfs.Spec{Name: "g", RecordSize: 64, NumRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	gw, err := OpenGlobalWriter(f, ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100) // 1.5625 records
	for i := range payload {
		payload[i] = 0xcd
	}
	if n, err := gw.Write(payload); err != nil || n != 100 {
		t.Fatalf("write: %d %v", n, err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	gr, err := OpenGlobalReader(f, ctx)
	if err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if all[i] != 0xcd {
			t.Fatalf("byte %d = %#x", i, all[i])
		}
	}
	for i := 100; i < 128; i++ {
		if all[i] != 0 {
			t.Fatalf("padding byte %d = %#x", i, all[i])
		}
	}
}

func TestFigure1Traces(t *testing.T) {
	// Reproduce Figure 1 with 3 processes and 12 single-record blocks: each
	// process notes the records it reads, and every organization's pattern
	// must be the paper's.
	const procs = 3
	const blocks = 12
	// scan fills a file of org and has n processes read it to EOF through
	// the claims open hands them, process w computing w+1 ms a record. It
	// returns the records each process read, in its order, and every
	// record in the order it was read.
	scan := func(t *testing.T, org pfs.Organization, n int, open func(f *pfs.File, w int) (func(*sim.Proc) (int64, error), error)) (byProc [][]int64, all []int64) {
		e := sim.NewEngine()
		v := testVolume(t, 3, e)
		spec := pfs.Spec{Name: "fig1", Org: org, RecordSize: 64, BlockRecords: 1, NumRecords: blocks}
		if org == pfs.OrgPartitioned || org == pfs.OrgInterleaved {
			spec.Parts = procs
		}
		f, err := v.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		byProc = make([][]int64, n)
		e.Go("main", func(p *sim.Proc) {
			fillSeq(t, f, p)
			var g sim.Group
			for w := 0; w < n; w++ {
				next, err := open(f, w)
				if err != nil {
					t.Error(err)
					return
				}
				g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
					for {
						rec, err := next(c)
						if err != nil {
							if err != io.EOF {
								t.Error(err)
							}
							return
						}
						byProc[w] = append(byProc[w], rec)
						all = append(all, rec)
						c.Sleep(time.Duration(w+1) * time.Millisecond)
					}
				})
			}
			g.Wait(p)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return byProc, all
	}
	stream := func(r *StreamReader, err error) (func(*sim.Proc) (int64, error), error) {
		if err != nil {
			return nil, err
		}
		return func(c *sim.Proc) (int64, error) {
			_, rec, err := r.ReadRecord(c)
			return rec, err
		}, nil
	}
	want := func(t *testing.T, got any, want string) {
		t.Helper()
		if s := fmt.Sprint(got); s != want {
			t.Fatalf("read %s, want %s", s, want)
		}
	}

	t.Run("S", func(t *testing.T) {
		byProc, _ := scan(t, pfs.OrgSequential, 1, func(f *pfs.File, _ int) (func(*sim.Proc) (int64, error), error) {
			return stream(OpenReader(f, Options{}))
		})
		want(t, byProc, "[[0 1 2 3 4 5 6 7 8 9 10 11]]")
	})
	t.Run("PS", func(t *testing.T) {
		byProc, _ := scan(t, pfs.OrgPartitioned, procs, func(f *pfs.File, w int) (func(*sim.Proc) (int64, error), error) {
			return stream(OpenPartReader(f, w, Options{}))
		})
		want(t, byProc, "[[0 1 2 3] [4 5 6 7] [8 9 10 11]]")
	})
	t.Run("IS", func(t *testing.T) {
		byProc, _ := scan(t, pfs.OrgInterleaved, procs, func(f *pfs.File, w int) (func(*sim.Proc) (int64, error), error) {
			return stream(OpenInterleavedReader(f, w, procs, Options{}))
		})
		want(t, byProc, "[[0 3 6 9] [1 4 7 10] [2 5 8 11]]")
	})
	t.Run("SS", func(t *testing.T) {
		var ss *SelfSched
		byProc, all := scan(t, pfs.OrgSelfScheduled, procs, func(f *pfs.File, _ int) (func(*sim.Proc) (int64, error), error) {
			if ss == nil {
				var err error
				if ss, err = OpenSelfSched(f, SSRead, Options{NBufs: 2, IOProcs: 1, EarlyRelease: true}); err != nil {
					return nil, err
				}
			}
			dst := make([]byte, 64)
			return func(c *sim.Proc) (int64, error) { return ss.ReadNext(c, dst) }, nil
		})
		// Every record exactly once, in claim order, shared between processes.
		want(t, all, "[0 1 2 3 4 5 6 7 8 9 10 11]")
		for w, recs := range byProc {
			if len(recs) == 0 {
				t.Fatalf("process %d claimed nothing: %v", w, byProc)
			}
		}
	})
}

func TestDefaultOptionsSane(t *testing.T) {
	o := DefaultOptions()
	if o.NBufs < 2 || o.IOProcs < 1 || !o.EarlyRelease || o.CacheBlocks < 1 {
		t.Fatalf("DefaultOptions = %+v", o)
	}
	var zero Options
	n := zero.norm()
	if n.NBufs < 1 || n.CacheBlocks < 1 || n.IOProcs != 0 {
		t.Fatalf("norm(zero) = %+v", n)
	}
}
