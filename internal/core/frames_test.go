package core

import (
	"io"
	"testing"

	"repro/internal/buffer"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// staleFrames leaves n frames of size bytes, every byte 0xFF, on top of
// the buffer package's free list: the next streams of that frame size
// start on them.
func staleFrames(t *testing.T, size, n int) {
	t.Helper()
	ctx := sim.NewWall()
	r, err := buffer.NewSeqReader(func(_ sim.Context, _ int64, buf []byte) error {
		for i := range buf {
			buf[i] = 0xff
		}
		return nil
	}, size, int64(n), n, 0)
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
