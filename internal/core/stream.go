package core

import (
	"fmt"
	"io"

	"repro/internal/buffer"
	"repro/internal/pfs"
	"repro/internal/records"
	"repro/internal/sim"
)

// StreamReader reads the records of a stream view (S, one PS partition,
// or one IS stride class) in order, with multiple buffering and
// read-ahead when IOProcs > 0. It is a single-process handle.
type StreamReader struct {
	f   *pfs.File
	seq blockSeq

	rd      *buffer.SeqReader
	ext     int64  // fs blocks per streaming extent
	totalFS int64  // stream length in fs blocks
	cur     []byte // current extent buffer
	curLo   int64  // stream fs range [curLo, curHi) held by cur
	curHi   int64
	j       int64 // paper-block cursor within the stream
	i       int   // record cursor within the paper-block

	recBuf  []byte
	spanBuf []records.Span
	closed  bool
}

// newStreamReader wires an extent SeqReader over the stream's fs blocks:
// each prefetch covers a batch of extents of up to opts.ExtentBlocks fs
// blocks, issued as one descriptor over the batch's frames (rangedRun:
// Set.Transfer), which coalesces it into a gather request per
// drive.
func newStreamReader(f *pfs.File, seq blockSeq, opts Options) (*StreamReader, error) {
	opts = opts.norm()
	m := f.Mapper()
	totalFS := seq.n * m.FSPerBlock()
	rd, err := buffer.NewSeqReader(rangedRun(f, seq, opts.Strategy, false), m.FSBlockSize(), totalFS,
		opts.ExtentBlocks, opts.NBufs, opts.IOProcs)
	if err != nil {
		return nil, err
	}
	return &StreamReader{
		f:       f,
		seq:     seq,
		rd:      rd,
		ext:     int64(opts.ExtentBlocks),
		totalFS: totalFS,
		recBuf:  make([]byte, m.RecordSize()),
	}, nil
}

// OpenReader opens the type-S (whole file, sequential) read view.
func OpenReader(f *pfs.File, opts Options) (*StreamReader, error) {
	return newStreamReader(f, wholeFileSeq(f), opts)
}

// OpenPartReader opens the type-PS read view of partition part.
func OpenPartReader(f *pfs.File, part int, opts Options) (*StreamReader, error) {
	seq, err := partSeq(f, part)
	if err != nil {
		return nil, err
	}
	return newStreamReader(f, seq, opts)
}

// OpenInterleavedReader opens the type-IS read view: the blocks
// ≡ part (mod stride). For an IS-organized file stride is normally
// f.Parts(), but any stride is legal (alternate views).
func OpenInterleavedReader(f *pfs.File, part, stride int, opts Options) (*StreamReader, error) {
	seq, err := interleavedSeq(f, part, stride)
	if err != nil {
		return nil, err
	}
	return newStreamReader(f, seq, opts)
}

// OpenBlockRangeReader opens a sequential read view over the contiguous
// paper-block range [first, end) — an ad-hoc PS-style partition
// independent of the file's own partition table (used by alternate
// views, §5).
func OpenBlockRangeReader(f *pfs.File, first, end int64, opts Options) (*StreamReader, error) {
	if first < 0 || end < first || end > f.Mapper().NumBlocks() {
		return nil, fmt.Errorf("core: block range [%d,%d) of %d", first, end, f.Mapper().NumBlocks())
	}
	seq := blockSeq{n: end - first, pb: func(j int64) int64 { return first + j }}
	return newStreamReader(f, seq, opts)
}

// advanceTo makes cur the extent holding stream fs block k (consuming
// the underlying sequential stream; k must be ≥ curLo).
func (r *StreamReader) advanceTo(ctx sim.Context, k int64) error {
	for r.cur == nil || k >= r.curHi {
		if r.cur != nil {
			r.rd.Release(ctx, r.cur)
			r.cur = nil
		}
		buf, e, err := r.rd.Next(ctx)
		if err != nil {
			return err
		}
		r.cur = buf
		r.curLo, r.curHi = extentSpanOf(e, r.ext, r.totalFS)
	}
	if k < r.curLo {
		return fmt.Errorf("core: stream reader skipped past fs block %d (at [%d,%d))", k, r.curLo, r.curHi)
	}
	return nil
}

// readAheadEnd reports the stream fs block one past the last extent
// fetched or being fetched (not clamped to the stream's end): moving the
// cursor forward below it waits only for transfers already issued.
func (r *StreamReader) readAheadEnd() int64 { return r.rd.Claimed() * r.ext }

// fsSlice returns the cached bytes of stream fs block k; advanceTo(k)
// must have succeeded.
func (r *StreamReader) fsSlice(k int64) []byte {
	return extentSlice(r.cur, k, r.curLo, r.f.Mapper().FSBlockSize())
}

// ReadRecord returns the next record of the stream and its global record
// index. The returned slice is valid until the next call. At the end of
// the stream it returns io.EOF.
func (r *StreamReader) ReadRecord(ctx sim.Context) ([]byte, int64, error) {
	if r.closed {
		return nil, 0, fmt.Errorf("core: reader closed")
	}
	m := r.f.Mapper()
	for r.j < r.seq.n && r.i >= m.RecordsInBlock(r.seq.pb(r.j)) {
		r.j++
		r.i = 0
	}
	if r.j >= r.seq.n {
		return nil, 0, io.EOF
	}
	block := r.seq.pb(r.j)
	rec := block*int64(m.BlockRecords()) + int64(r.i)
	fsPer := m.FSPerBlock()
	blockFirstFS := block * fsPer
	streamFirstFS := r.j * fsPer

	r.spanBuf = m.AppendSpans(r.spanBuf[:0], rec)
	got := 0
	for _, sp := range r.spanBuf {
		k := streamFirstFS + (sp.FSBlock - blockFirstFS)
		if err := r.advanceTo(ctx, k); err != nil {
			return nil, rec, err
		}
		blk := r.fsSlice(k)
		copy(r.recBuf[got:], blk[sp.Off:sp.Off+sp.Len])
		got += sp.Len
	}
	r.i++
	return r.recBuf[:got], rec, nil
}

// Close releases buffers and stops read-ahead.
func (r *StreamReader) Close(ctx sim.Context) error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.cur != nil {
		r.rd.Release(ctx, r.cur)
		r.cur = nil
	}
	r.rd.Close(ctx)
	return nil
}

// StreamWriter writes the records of a stream view in order, with
// deferred writing when IOProcs > 0. It is a single-process handle.
type StreamWriter struct {
	f   *pfs.File
	seq blockSeq

	sw      *buffer.SeqWriter
	ext     int64  // fs blocks per streaming extent
	totalFS int64  // stream length in fs blocks
	cur     []byte // current extent assembly buffer
	wLo     int64  // stream fs range [wLo, wHi) assembled in cur
	wHi     int64
	j       int64
	i       int

	spanBuf []records.Span
	closed  bool
}

// newStreamWriter wires an extent SeqWriter over the stream's fs blocks:
// each deferred flush covers a batch of consecutive extents of up to
// opts.ExtentBlocks fs blocks, issued as one descriptor over the batch's
// frames (rangedRun: Set.Transfer), which coalesces it into a
// gather request per drive.
func newStreamWriter(f *pfs.File, seq blockSeq, opts Options) (*StreamWriter, error) {
	opts = opts.norm()
	m := f.Mapper()
	totalFS := seq.n * m.FSPerBlock()
	sw, err := buffer.NewSeqWriter(rangedRun(f, seq, opts.Strategy, true), m.FSBlockSize(), totalFS,
		opts.ExtentBlocks, opts.NBufs, opts.IOProcs)
	if err != nil {
		return nil, err
	}
	return &StreamWriter{f: f, seq: seq, sw: sw,
		ext: int64(opts.ExtentBlocks), totalFS: totalFS}, nil
}

// OpenWriter opens the type-S (whole file, sequential) write view.
func OpenWriter(f *pfs.File, opts Options) (*StreamWriter, error) {
	return newStreamWriter(f, wholeFileSeq(f), opts)
}

// OpenPartWriter opens the type-PS write view of partition part.
func OpenPartWriter(f *pfs.File, part int, opts Options) (*StreamWriter, error) {
	seq, err := partSeq(f, part)
	if err != nil {
		return nil, err
	}
	return newStreamWriter(f, seq, opts)
}

// OpenInterleavedWriter opens the type-IS write view.
func OpenInterleavedWriter(f *pfs.File, part, stride int, opts Options) (*StreamWriter, error) {
	seq, err := interleavedSeq(f, part, stride)
	if err != nil {
		return nil, err
	}
	return newStreamWriter(f, seq, opts)
}

// advanceTo makes cur the extent assembly buffer holding stream fs block
// k, submitting the completed predecessor extent.
func (w *StreamWriter) advanceTo(ctx sim.Context, k int64) error {
	if w.cur != nil && k >= w.wLo && k < w.wHi {
		return nil
	}
	if w.cur != nil {
		if err := w.sw.Submit(ctx, w.wLo/w.ext, w.cur); err != nil {
			return err
		}
		w.cur = nil
	}
	buf, err := w.sw.Acquire(ctx)
	if err != nil {
		return err
	}
	clear(buf)
	w.cur = buf
	w.wLo, w.wHi = extentSpanAt(k, w.ext, w.totalFS)
	return nil
}

// fsSlice returns the assembly bytes of stream fs block k; advanceTo(k)
// must have succeeded.
func (w *StreamWriter) fsSlice(k int64) []byte {
	return extentSlice(w.cur, k, w.wLo, w.f.Mapper().FSBlockSize())
}

// nextBlock reports the paper-block the next record written lands in, or
// -1 when the stream is full.
func (w *StreamWriter) nextBlock() int64 {
	m := w.f.Mapper()
	for w.j < w.seq.n && w.i >= m.RecordsInBlock(w.seq.pb(w.j)) {
		w.j++
		w.i = 0
	}
	if w.j >= w.seq.n {
		return -1
	}
	return w.seq.pb(w.j)
}

// WriteRecord appends data (len must equal the record size) as the next
// record of the stream, returning its global record index.
func (w *StreamWriter) WriteRecord(ctx sim.Context, data []byte) (int64, error) {
	if w.closed {
		return 0, fmt.Errorf("core: writer closed")
	}
	m := w.f.Mapper()
	if len(data) != m.RecordSize() {
		return 0, fmt.Errorf("core: record is %d bytes, file records are %d", len(data), m.RecordSize())
	}
	block := w.nextBlock()
	if block < 0 {
		return 0, fmt.Errorf("core: stream full: %w", io.ErrShortWrite)
	}
	rec := block*int64(m.BlockRecords()) + int64(w.i)
	fsPer := m.FSPerBlock()
	blockFirstFS := block * fsPer
	streamFirstFS := w.j * fsPer

	w.spanBuf = m.AppendSpans(w.spanBuf[:0], rec)
	put := 0
	for _, sp := range w.spanBuf {
		k := streamFirstFS + (sp.FSBlock - blockFirstFS)
		if err := w.advanceTo(ctx, k); err != nil {
			return rec, err
		}
		blk := w.fsSlice(k)
		copy(blk[sp.Off:sp.Off+sp.Len], data[put:])
		put += sp.Len
	}
	w.i++
	return rec, nil
}

// Close flushes the partial block and drains deferred writes.
func (w *StreamWriter) Close(ctx sim.Context) error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.cur != nil {
		if err := w.sw.Submit(ctx, w.wLo/w.ext, w.cur); err != nil {
			return err
		}
		w.cur = nil
	}
	return w.sw.Close(ctx)
}
