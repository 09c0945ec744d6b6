package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/pfs"
	"repro/internal/sim"
)

// GlobalReader presents the paper's global view of any parallel file: a
// standard sequential byte stream of the record payload in canonical
// order, with block padding invisible. It implements io.ReadSeekCloser,
// so conventional sequential software (editors, print spoolers, checksum
// tools — anything taking an io.Reader) can consume parallel files.
//
// It is a byte cursor over the S stream view under TunedOptions: reads of
// any size are served from 32-block extents that a dedicated I/O process
// keeps four buffers ahead of the program (synchronous extent reads
// under a wall context), the extents of every free buffer fetched as one
// batch, one request per drive. A Seek
// forward inside the extents already read ahead costs nothing; any other
// target drops them and restarts read-ahead at the target's paper-block.
// Consistency is the stream views': a prefetched extent is a snapshot, so
// a writer racing the scan is seen or not per extent. A reader read to
// its end has already given its buffers back, so it may be dropped
// without a Close, as io.Reader consumers do; Close releases the buffers
// and stops read-ahead early, and buffers still being fetched into go
// back when their fetch lands. A reader that is merely dropped leaves no
// process behind.
type GlobalReader struct {
	f      *pfs.File
	ctx    sim.Context
	rd     *StreamReader // nil until the first Read after open or a far Seek
	base   int64         // paper-block rd's stream starts at
	rec    []byte        // record `have`, valid until rd's next ReadRecord
	have   int64         // −1: none
	pos    int64         // byte position in payload space
	size   int64
	closed bool
}

// OpenGlobalReader opens the global view of f. The supplied context is
// used for all subsequent Read/Seek/Close calls (io interfaces leave no
// parameter room).
func OpenGlobalReader(f *pfs.File, ctx sim.Context) (*GlobalReader, error) {
	m := f.Mapper()
	return &GlobalReader{
		f:    f,
		ctx:  ctx,
		have: -1,
		size: m.NumRecords() * int64(m.RecordSize()),
	}, nil
}

// Read implements io.Reader over the canonical record stream. A fetch
// error surfaces on the Read that reaches the failed extent; the next
// Read retries from the same position.
func (g *GlobalReader) Read(p []byte) (int, error) {
	if g.closed {
		return 0, fmt.Errorf("core: reader closed")
	}
	if g.pos >= g.size {
		return 0, io.EOF
	}
	rs := int64(g.f.Mapper().RecordSize())
	total := 0
	for len(p) > 0 && g.pos < g.size {
		if idx := g.pos / rs; idx != g.have {
			if err := g.load(idx); err != nil {
				return total, err
			}
		}
		n := copy(p, g.rec[g.pos%rs:])
		p = p[n:]
		g.pos += int64(n)
		total += n
	}
	return total, nil
}

// load makes rec hold record idx: by moving the stream cursor when idx
// lies ahead inside the extents already read ahead, else by restarting
// the stream at idx's paper-block.
func (g *GlobalReader) load(idx int64) error {
	m := g.f.Mapper()
	pb := idx / int64(m.BlockRecords())
	if g.rd != nil && (idx < g.have || (pb-g.base)*m.FSPerBlock() >= g.rd.readAheadEnd()) {
		g.drop()
	}
	if g.rd == nil {
		rd, err := OpenBlockRangeReader(g.f, pb, m.NumBlocks(), TunedOptions())
		if err != nil {
			return err
		}
		g.rd, g.base = rd, pb
	}
	g.rd.j, g.rd.i = pb-g.base, int(idx%int64(m.BlockRecords()))
	rec, _, err := g.rd.ReadRecord(g.ctx)
	if err != nil {
		g.drop()
		return err
	}
	g.rec, g.have = rec, idx
	return nil
}

// drop releases the stream and its read-ahead.
func (g *GlobalReader) drop() {
	if g.rd != nil {
		_ = g.rd.Close(g.ctx) // a stream reader's Close cannot fail
	}
	g.rd, g.rec, g.have = nil, nil, -1
}

// Seek implements io.Seeker over payload bytes; the next Read pays for
// the move, if anything.
func (g *GlobalReader) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = g.pos + offset
	case io.SeekEnd:
		abs = g.size + offset
	default:
		return 0, fmt.Errorf("core: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("core: negative seek %d", abs)
	}
	g.pos = abs
	return abs, nil
}

// Close releases the buffers and stops read-ahead. It is idempotent, and
// optional for correctness.
func (g *GlobalReader) Close() error {
	g.drop()
	g.closed = true
	return nil
}

var _ io.ReadSeekCloser = (*GlobalReader)(nil)

// GlobalWriter fills a parallel file through the global view: a plain
// io.Writer whose byte stream lands in canonical record order. Partial
// trailing records are zero-padded at Close.
type GlobalWriter struct {
	f      *pfs.File
	ctx    sim.Context
	w      *StreamWriter
	rec    []byte
	fill   int
	closed bool
}

// OpenGlobalWriter opens the global write view of f using ctx for all
// subsequent calls.
func OpenGlobalWriter(f *pfs.File, ctx sim.Context, opts Options) (*GlobalWriter, error) {
	w, err := OpenWriter(f, opts)
	if err != nil {
		return nil, err
	}
	return &GlobalWriter{
		f:   f,
		ctx: ctx,
		w:   w,
		rec: make([]byte, f.Mapper().RecordSize()),
	}, nil
}

// Write implements io.Writer; bytes beyond the file's capacity are
// rejected with io.ErrShortWrite.
func (g *GlobalWriter) Write(p []byte) (int, error) {
	if g.closed {
		return 0, fmt.Errorf("core: writer closed")
	}
	written := 0
	for len(p) > 0 {
		n := copy(g.rec[g.fill:], p)
		g.fill += n
		p = p[n:]
		written += n
		if g.fill == len(g.rec) {
			if _, err := g.w.WriteRecord(g.ctx, g.rec); err != nil {
				return written, err
			}
			g.fill = 0
		}
	}
	return written, nil
}

// Close pads and flushes the final record and drains deferred writes. A
// final record that fails still drains and releases the writer; the
// error reports both.
func (g *GlobalWriter) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	var err error
	if g.fill > 0 {
		clear(g.rec[g.fill:])
		_, err = g.w.WriteRecord(g.ctx, g.rec)
	}
	return errors.Join(err, g.w.Close(g.ctx))
}

var _ io.WriteCloser = (*GlobalWriter)(nil)
