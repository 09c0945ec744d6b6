package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blockio"
	"repro/internal/buffer"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// staleFrames leaves n frames of size bytes, every byte 0xFF, on top of
// the buffer package's free list: the next streams of that frame size
// start on them.
func staleFrames(t *testing.T, size, n int) {
	t.Helper()
	ctx := sim.NewWall()
	r, err := buffer.NewSeqReader(func(_ sim.Context, _ int64, _ int, sp blockio.Space) error {
		for _, pc := range sp {
			for i := range pc.Buf {
				pc.Buf[i] = 0xff
			}
		}
		return nil
	}, size, int64(n), 1, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	var held [][]byte
	for range n {
		buf, _, err := r.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, buf)
	}
	for _, buf := range held {
		r.Release(ctx, buf)
	}
	r.Close(ctx)
}

// TestStreamShortLastExtentOnStaleFrames writes and reads back a stream
// whose last extent is short (11 blocks in extents of 4) with write-behind
// and read-ahead, each time on recycled frames holding 0xFF: every record
// reads back exactly, and no stale byte reaches a drive (the records hold
// none, and the padding after each 3-record block must be written zero).
func TestStreamShortLastExtentOnStaleFrames(t *testing.T) {
	e := sim.NewEngine()
	v, disks := testVolumeDisks(t, 3, e)
	f, err := v.Create(pfs.Spec{Name: "s", Org: pfs.OrgSequential, RecordSize: 64, BlockRecords: 3, NumRecords: 31})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{ExtentBlocks: 4, NBufs: 2, IOProcs: 2}
	frame := opts.ExtentBlocks * f.Mapper().FSBlockSize()
	e.Go("stream", func(p *sim.Proc) {
		staleFrames(t, frame, 4)
		w, err := OpenWriter(f, opts)
		if err != nil {
			t.Error(err)
			return
		}
		for r := range uint64(31) {
			if _, err := w.WriteRecord(p, rec64(r)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
		}
		staleFrames(t, frame, 4)
		r, err := OpenReader(f, opts)
		if err != nil {
			t.Error(err)
			return
		}
		for want := int64(0); ; want++ {
			data, rec, err := r.ReadRecord(p)
			if err == io.EOF && want == 31 {
				break
			}
			if err != nil || rec != want || recVal(data) != uint64(want) || string(data[8:]) != string(make([]byte, 56)) {
				t.Errorf("record %d: idx %d, %x, %v", want, rec, data, err)
				return
			}
		}
		_ = r.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range disks {
		snap, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for b, pg := range snap {
			for _, c := range pg {
				if c == 0xff {
					t.Fatalf("drive %d block %d holds a stale 0xFF byte", i, b)
				}
			}
		}
	}
}

// TestStreamFramesComeBack runs rounds shaped like org_scan's stream
// phases under TunedOptions (four 128-KiB frames a stream): PS and IS
// partitions written and read back by a process each, and the S file
// written, then read to its last byte through a GlobalReader that is
// never closed — as io.Reader consumers leave one — through one taken by
// a far Seek and closed, and through a StreamReader dropped mid-stream
// and closed with its read-ahead in flight. Every stream frame comes back
// to the free list once no transfer can touch it, so after a warm-up a
// round allocates less than one frame (not asserted under -race, whose
// runtime allocates on its own account); every record reads back exactly.
func TestStreamFramesComeBack(t *testing.T) {
	const (
		recSize   = 512
		blockRecs = 8 // a paper-block is one 4-KiB fs block
		parts     = 4
		recs      = parts * 64 * blockRecs
		frame     = 32 << 12
	)
	e := sim.NewEngine()
	disks := make([]*device.Disk, 4)
	for i := range disks {
		disks[i] = device.New(device.Config{Geometry: device.Geometry{BlockSize: 4096, BlocksPerCyl: 16, Cylinders: 256}, Engine: e})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	v := pfs.NewVolume(store)
	create := func(name string, org pfs.Organization) *pfs.File {
		f, err := v.Create(pfs.Spec{Name: name, Org: org, RecordSize: recSize, BlockRecords: blockRecs, NumRecords: recs, Parts: parts})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ps, is, seq := create("ps", pfs.OrgPartitioned), create("is", pfs.OrgInterleaved), create("s", pfs.OrgSequential)
	opts := TunedOptions()

	// stamp fills rec with record idx of round r.
	stamp := func(rec []byte, idx int64, r int) []byte {
		for i := 0; i < len(rec); i += 8 {
			binary.BigEndian.PutUint64(rec[i:], uint64(idx)<<16|uint64(r)<<8|uint64(i/8))
		}
		return rec
	}
	e.Go("rounds", func(p *sim.Proc) {
		want := make([]byte, recSize)
		check := func(what string, r int, idx int64, got []byte) bool {
			if !bytes.Equal(got, stamp(want, idx, r)) {
				t.Errorf("round %d %s: record %d reads wrong", r, what, idx)
				return false
			}
			return true
		}
		// stream writes a view of every part in a process each, then reads
		// it back to EOF and closes it. A record is stamped with its
		// position in the stream.
		bufs := make([][]byte, parts)
		for part := range bufs {
			bufs[part] = make([]byte, recSize)
		}
		stream := func(r int, f *pfs.File, writer func(int) (*StreamWriter, error), reader func(int) (*StreamReader, error)) {
			var g sim.Group
			for part := range parts {
				g.Spawn(e, "part", func(q *sim.Proc) {
					w, err := writer(part)
					if err != nil {
						t.Error(err)
						return
					}
					n := int64(0)
					for ; ; n++ {
						if _, err := w.WriteRecord(q, stamp(bufs[part], n, r)); err != nil {
							break // the stream is full
						}
					}
					if err := w.Close(q); err != nil {
						t.Error(err)
						return
					}
					rd, err := reader(part)
					if err != nil {
						t.Error(err)
						return
					}
					for i := int64(0); ; i++ {
						data, _, err := rd.ReadRecord(q)
						if err == io.EOF && i == n {
							break
						}
						if err != nil || !check(f.Name(), r, i, data) {
							t.Errorf("round %d %s part %d: record %d of %d: %v", r, f.Name(), part, i, n, err)
							return
						}
					}
					if err := rd.Close(q); err != nil {
						t.Error(err)
					}
				})
			}
			g.Wait(p)
		}
		round := func(r int) {
			stream(r, ps, func(part int) (*StreamWriter, error) { return OpenPartWriter(ps, part, opts) },
				func(part int) (*StreamReader, error) { return OpenPartReader(ps, part, opts) })
			stream(r, is, func(part int) (*StreamWriter, error) { return OpenInterleavedWriter(is, part, parts, opts) },
				func(part int) (*StreamReader, error) { return OpenInterleavedReader(is, part, parts, opts) })
			w, err := OpenWriter(seq, opts)
			if err != nil {
				t.Error(err)
				return
			}
			rec := bufs[0]
			for idx := range int64(recs) {
				if _, err := w.WriteRecord(p, stamp(rec, idx, r)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := w.Close(p); err != nil {
				t.Error(err)
				return
			}

			// Read to the last byte and dropped, never closed.
			gr, err := OpenGlobalReader(seq, p)
			if err != nil {
				t.Error(err)
				return
			}
			for idx := range int64(recs) {
				if _, err := io.ReadFull(gr, rec); err != nil || !check("global", r, idx, rec) {
					t.Errorf("round %d global read of record %d: %v", r, idx, err)
					return
				}
			}

			// One far Seek, then closed.
			gr, err = OpenGlobalReader(seq, p)
			if err != nil {
				t.Error(err)
				return
			}
			far := int64(recs - 3*blockRecs)
			if _, err := io.ReadFull(gr, rec); err != nil || !check("seek", r, 0, rec) {
				t.Errorf("round %d: first record before the seek: %v", r, err)
			}
			if _, err := gr.Seek(far*recSize, io.SeekStart); err != nil {
				t.Error(err)
			}
			if _, err := io.ReadFull(gr, rec); err != nil || !check("seek", r, far, rec) {
				t.Errorf("round %d: record %d after the seek: %v", r, far, err)
			}
			if err := gr.Close(); err != nil {
				t.Error(err)
			}

			// Dropped mid-stream with its read-ahead in flight, then closed.
			sr, err := OpenReader(seq, opts)
			if err != nil {
				t.Error(err)
				return
			}
			for idx := range int64(blockRecs + 1) {
				data, _, err := sr.ReadRecord(p)
				if err != nil || !check("dropped", r, idx, data) {
					t.Errorf("round %d: record %d of the dropped stream: %v", r, idx, err)
					return
				}
			}
			if err := sr.Close(p); err != nil {
				t.Error(err)
			}
		}

		for r := range 2 {
			round(r) // warm-up: drive slabs, pooled scratch, the frames themselves
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round(2)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("a round after the warm-up allocates %d bytes", got)
		if got >= frame && !raceEnabled {
			t.Errorf("a round after the warm-up allocates %d bytes, a frame is %d: stream frames are not coming back", got, frame)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterCloseReleasesOnFailedFlush closes writers whose last write
// fails. A synchronous StreamWriter or GlobalWriter whose final flush
// meets a failed drive reports that flush, and its frames still come back:
// reopening with eight frames allocates no more than with one. A
// GlobalWriter under an engine whose padded last record overflows the
// file still drains and stops its write-behind process, so the run ends
// without a deadlock.
func TestWriterCloseReleasesOnFailedFlush(t *testing.T) {
	v, disks := testVolumeDisks(t, 2, nil)
	f, err := v.Create(pfs.Spec{Name: "s", Org: pfs.OrgSequential, RecordSize: 64, BlockRecords: 3, NumRecords: 31})
	if err != nil {
		t.Fatal(err)
	}
	disks[1].Fail()
	defer disks[1].Repair()
	ctx := sim.NewWall()
	rec := rec64(7)
	stream := func(nbufs int) error {
		w, err := OpenWriter(f, Options{ExtentBlocks: 4, NBufs: nbufs})
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := w.WriteRecord(ctx, rec); err != nil {
				t.Fatal(err)
			}
		}
		return w.Close(ctx)
	}
	global := func(nbufs int) error {
		g, err := OpenGlobalWriter(f, ctx, Options{ExtentBlocks: 4, NBufs: nbufs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Write(rec[:10]); err != nil {
			t.Fatal(err)
		}
		return g.Close()
	}
	for name, closeFailed := range map[string]func(int) error{"stream": stream, "global": global} {
		err := closeFailed(8)
		if !errors.Is(err, device.ErrFailed) || !strings.Contains(err.Error(), "flush extent 0") {
			t.Errorf("%s: Close after a failed last flush: %v", name, err)
		}
		if raceEnabled {
			continue
		}
		one := testing.AllocsPerRun(20, func() { _ = closeFailed(1) })
		eight := testing.AllocsPerRun(20, func() { _ = closeFailed(8) })
		if eight > one {
			t.Errorf("%s: a writer whose last flush failed allocates %v objects with 8 frames, %v with 1: its frames are lost", name, eight, one)
		}
	}

	e := sim.NewEngine()
	v, _ = testVolumeDisks(t, 2, e)
	f, err = v.Create(pfs.Spec{Name: "s", Org: pfs.OrgSequential, RecordSize: 64, BlockRecords: 3, NumRecords: 31})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("writer", func(p *sim.Proc) {
		g, err := OpenGlobalWriter(f, p, Options{ExtentBlocks: 4, NBufs: 2, IOProcs: 1})
		if err != nil {
			t.Error(err)
			return
		}
		for r := range uint64(31) {
			if _, err := g.Write(rec64(r)); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := g.Write(rec[:1]); err != nil {
			t.Error(err)
		}
		if err := g.Close(); !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("Close of a global writer one byte past the file: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("a writer whose last record overflowed left its write-behind behind: %v", err)
	}
	r, err := OpenReader(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx = sim.NewWall()
	for want := uint64(0); want < 31; want++ {
		if data, _, err := r.ReadRecord(ctx); err != nil || recVal(data) != want {
			t.Fatalf("record %d: %x, %v", want, data, err)
		}
	}
}
