package core

import (
	"io"
	"testing"

	"repro/internal/blockio"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// extentSpecs enumerates file shapes covering every stream organization,
// both pack policies, straddling records (96-byte records over 256-byte
// fs blocks), padded paper-blocks and shared devices (3 devices for 5
// partitions).
func extentSpecs() []pfs.Spec {
	return []pfs.Spec{
		{Name: "s-striped", Org: pfs.OrgSequential, RecordSize: 64, NumRecords: 101},
		{Name: "s-unit1", Org: pfs.OrgSequential, RecordSize: 96, BlockRecords: 8,
			NumRecords: 77, StripeUnitFS: 1},
		{Name: "ps-contig", Org: pfs.OrgPartitioned, RecordSize: 64, BlockRecords: 4,
			NumRecords: 97, Parts: 5, Pack: blockio.PackContiguous},
		{Name: "ps-inter", Org: pfs.OrgPartitioned, RecordSize: 64, BlockRecords: 4,
			NumRecords: 97, Parts: 5, Pack: blockio.PackInterleaved},
		{Name: "is-contig", Org: pfs.OrgInterleaved, RecordSize: 96, BlockRecords: 8,
			NumRecords: 90, Parts: 5, Pack: blockio.PackContiguous},
		{Name: "is-inter", Org: pfs.OrgInterleaved, RecordSize: 64, BlockRecords: 4,
			NumRecords: 90, Parts: 5, Pack: blockio.PackInterleaved},
	}
}

// streamCount reports how many stream views f has.
func streamCount(f *pfs.File) int {
	if f.Spec().Org == pfs.OrgPartitioned || f.Spec().Org == pfs.OrgInterleaved {
		return f.Parts()
	}
	return 1
}

// openView opens the part'th stream view of f, read or write.
func openView(t *testing.T, f *pfs.File, part int, opts Options, write bool) (*StreamReader, *StreamWriter) {
	t.Helper()
	var r *StreamReader
	var w *StreamWriter
	var err error
	switch f.Spec().Org {
	case pfs.OrgPartitioned:
		if write {
			w, err = OpenPartWriter(f, part, opts)
		} else {
			r, err = OpenPartReader(f, part, opts)
		}
	case pfs.OrgInterleaved:
		if write {
			w, err = OpenInterleavedWriter(f, part, f.Parts(), opts)
		} else {
			r, err = OpenInterleavedReader(f, part, f.Parts(), opts)
		}
	default:
		if write {
			w, err = OpenWriter(f, opts)
		} else {
			r, err = OpenReader(f, opts)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return r, w
}

// stamp fills data with a deterministic pattern derived from rec.
func stamp(data []byte, rec int64) {
	for i := range data {
		data[i] = byte(int64(i+1)*(rec+3) + rec>>5)
	}
}

// writeStamped fills every stream of f with records stamped by their
// global record index. Two passes per stream: the first learns the
// stream's record sequence (the writer assigns indices), the second —
// on a reopened view — writes the stamped payloads.
func writeStamped(t *testing.T, f *pfs.File, ctx sim.Context, opts Options) {
	t.Helper()
	rs := f.Mapper().RecordSize()
	for part := 0; part < streamCount(f); part++ {
		_, w := openView(t, f, part, opts, true)
		zero := make([]byte, rs)
		var recs []int64
		for {
			rec, err := w.WriteRecord(ctx, zero)
			if err != nil {
				break // stream full
			}
			recs = append(recs, rec)
		}
		if err := w.Close(ctx); err != nil {
			t.Fatal(err)
		}
		_, w = openView(t, f, part, opts, true)
		data := make([]byte, rs)
		for _, rec := range recs {
			stamp(data, rec)
			if got, err := w.WriteRecord(ctx, data); err != nil || got != rec {
				t.Fatalf("restamp rec %d: got %d err %v", rec, got, err)
			}
		}
		if err := w.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// verifyStamped reads every stream of f checking each record's payload
// against its global record index; it returns the records seen.
func verifyStamped(t *testing.T, f *pfs.File, ctx sim.Context, opts Options) int64 {
	t.Helper()
	rs := f.Mapper().RecordSize()
	want := make([]byte, rs)
	var total int64
	for part := 0; part < streamCount(f); part++ {
		r, _ := openView(t, f, part, opts, false)
		for {
			data, rec, err := r.ReadRecord(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("part %d: %v", part, err)
			}
			stamp(want, rec)
			if string(data) != string(want) {
				t.Fatalf("part %d record %d payload mismatch", part, rec)
			}
			total++
		}
		if err := r.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return total
}

// TestStreamExtentEquivalence asserts extent and per-block streaming are
// bit-for-bit interchangeable: files written with one extent size read
// back exactly under every other, across all organizations and packs.
func TestStreamExtentEquivalence(t *testing.T) {
	extents := []int{1, 3, 8}
	for _, spec := range extentSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ctx := sim.NewWall()
			for _, wExt := range extents {
				vol := testVolume(t, 3, nil)
				f, err := vol.Create(spec)
				if err != nil {
					t.Fatal(err)
				}
				writeStamped(t, f, ctx, Options{NBufs: 2, ExtentBlocks: wExt})
				for _, rExt := range extents {
					n := verifyStamped(t, f, ctx, Options{NBufs: 2, ExtentBlocks: rExt})
					if n != spec.NumRecords {
						t.Fatalf("write ext %d / read ext %d: %d records, want %d",
							wExt, rExt, n, spec.NumRecords)
					}
				}
			}
		})
	}
}

// TestStreamExtentEquivalenceEngine repeats the round trip under the
// virtual-time engine with prefetch and write-behind processes, so the
// asynchronous extent path (parallel per-device runs) is covered.
func TestStreamExtentEquivalenceEngine(t *testing.T) {
	for _, spec := range extentSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			e := sim.NewEngine()
			vol := testVolume(t, 3, e)
			f, err := vol.Create(spec)
			if err != nil {
				t.Fatal(err)
			}
			e.Go("main", func(p *sim.Proc) {
				writeStamped(t, f, p, Options{NBufs: 4, IOProcs: 2, ExtentBlocks: 4})
				if n := verifyStamped(t, f, p, Options{NBufs: 4, IOProcs: 2, ExtentBlocks: 1}); n != spec.NumRecords {
					t.Errorf("read %d records, want %d", n, spec.NumRecords)
				}
				if n := verifyStamped(t, f, p, Options{NBufs: 4, IOProcs: 2, ExtentBlocks: 8}); n != spec.NumRecords {
					t.Errorf("read %d records, want %d", n, spec.NumRecords)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSelfSchedExtent runs the shared SS handle with extents under the
// engine: several processes write the whole file, then several read it,
// every record exactly once, payloads intact.
func TestSelfSchedExtent(t *testing.T) {
	const records = 120
	e := sim.NewEngine()
	vol := testVolume(t, 3, e)
	f, err := vol.Create(pfs.Spec{Name: "ss", Org: pfs.OrgSelfScheduled,
		RecordSize: 64, NumRecords: records})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NBufs: 4, IOProcs: 2, EarlyRelease: true, ExtentBlocks: 4}
	w, err := OpenSelfSched(f, SSWrite, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sim.Group
	for i := 0; i < 3; i++ {
		wg.Spawn(e, "writer", func(p *sim.Proc) {
			data := make([]byte, 64)
			for {
				// Claim then stamp: WriteNext copies data after the claim,
				// so the stamp must be computed from the returned index —
				// write zero first is not possible; instead write a
				// predictable pattern independent of claim order.
				for i := range data {
					data[i] = 0xA5
				}
				if _, err := w.WriteNext(p, data); err != nil {
					return
				}
			}
		})
	}
	e.Go("closer", func(p *sim.Proc) {
		wg.Wait(p)
		if err := w.Close(p); err != nil {
			t.Errorf("close writer: %v", err)
		}
		r, err := OpenSelfSched(f, SSRead, opts)
		if err != nil {
			t.Errorf("open reader: %v", err)
			return
		}
		seen := make(map[int64]bool)
		var rg sim.Group
		for i := 0; i < 3; i++ {
			rg.Spawn(p.Engine(), "reader", func(c *sim.Proc) {
				buf := make([]byte, 64)
				for {
					rec, err := r.ReadNext(c, buf)
					if err == io.EOF {
						return
					}
					if err != nil {
						t.Errorf("ReadNext: %v", err)
						return
					}
					if seen[rec] {
						t.Errorf("record %d claimed twice", rec)
					}
					seen[rec] = true
					for _, b := range buf {
						if b != 0xA5 {
							t.Errorf("record %d corrupted", rec)
							break
						}
					}
				}
			})
		}
		rg.Wait(p)
		if len(seen) != records {
			t.Errorf("saw %d records, want %d", len(seen), records)
		}
		if err := r.Close(p); err != nil {
			t.Errorf("close reader: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalReaderDenseBulk checks a dense file read in bulk: one global
// read into a file-sized buffer returns the exact canonical stream, and
// an unaligned read after a backward Seek agrees with it.
func TestGlobalReaderDenseBulk(t *testing.T) {
	vol := testVolume(t, 2, nil)
	f, err := vol.Create(pfs.Spec{Name: "g", Org: pfs.OrgSequential,
		RecordSize: 64, NumRecords: 64, StripeUnitFS: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m := f.Mapper(); int64(m.RecordSize()*m.BlockRecords()) != m.FSPerBlock()*int64(m.FSBlockSize()) {
		t.Fatal("expected dense framing")
	}
	ctx := sim.NewWall()
	writeStamped(t, f, ctx, Options{ExtentBlocks: 1})
	gr, err := OpenGlobalReader(f, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, gr.size+10)
	n, err := io.ReadFull(gr, got[:gr.size])
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != gr.size {
		t.Fatalf("read %d of %d", n, gr.size)
	}
	rs := f.Mapper().RecordSize()
	want := make([]byte, rs)
	for rec := int64(0); rec < 64; rec++ {
		stamp(want, rec)
		if string(got[rec*int64(rs):(rec+1)*int64(rs)]) != string(want) {
			t.Fatalf("record %d mismatch in global stream", rec)
		}
	}
	// Unaligned reads still work.
	if _, err := gr.Seek(13, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	frag := make([]byte, 300)
	if _, err := io.ReadFull(gr, frag); err != nil {
		t.Fatal(err)
	}
	if string(frag) != string(got[13:313]) {
		t.Fatal("unaligned dense read mismatch")
	}
}
