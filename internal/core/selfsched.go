package core

import (
	"fmt"
	"io"

	"repro/internal/pfs"
	"repro/internal/sim"
)

// SelfSched is the shared type-SS handle: each request — from whatever
// process — is guaranteed to reference the next record of the file, so
// every record is consumed (or produced) exactly once, in claim order. It
// is the type-S stream with its file pointer shared: a claim is one
// StreamReader.ReadRecord (StreamWriter.WriteRecord) of the whole-file
// view, taken under the handle's lock.
//
// With Options.EarlyRelease (the §4 optimization) that stream runs its
// read-ahead and write-behind on dedicated I/O processes (at least one),
// so a claim holding the lock waits only for pointer arithmetic and
// buffer space, while the transfers go on outside it. Without it the
// stream has one buffer, one-block extents and no I/O process: each
// request performs its device transfer while holding the lock — the
// naive fully-serialized implementation.
//
// SelfSched also supports self-scheduling by whole blocks ("could be
// provided if needed", §3.1) via ReadNextBlock/WriteNextBlock: a block
// claim is the block's records claimed in one critical section. Record
// and block granularity must not be mixed on one handle.
//
// SS requires records not to straddle fs blocks ("the use of predictable
// length records reduces the problem"); OpenSelfSched rejects framings
// that straddle.
type SelfSched struct {
	f    *pfs.File
	gran ssGran

	mu sim.Mutex
	rd *StreamReader // read handles
	wr *StreamWriter // write handles

	payload []byte // block-mode read assembly buffer
	closed  bool
}

type ssMode int

const (
	ssRead ssMode = iota
	ssWrite
)

type ssGran int

const (
	granUnset ssGran = iota
	granRecord
	granBlock
)

// SSRead and SSWrite select the handle direction.
const (
	SSRead  = ssRead
	SSWrite = ssWrite
)

// OpenSelfSched opens the shared SS handle in the given direction. All
// participating processes share the one handle.
func OpenSelfSched(f *pfs.File, mode ssMode, opts Options) (*SelfSched, error) {
	m := f.Mapper()
	// Reject record framings that straddle fs blocks.
	for r := range min(int64(m.BlockRecords()), m.NumRecords()) {
		if len(m.Spans(r)) != 1 {
			return nil, fmt.Errorf("core: self-scheduled files need records that do not straddle fs blocks (record size %d, fs block %d)",
				m.RecordSize(), m.FSBlockSize())
		}
	}
	if opts.EarlyRelease {
		opts.IOProcs = max(opts.IOProcs, 1)
	} else {
		opts.NBufs, opts.ExtentBlocks, opts.IOProcs = 1, 1, 0
	}
	s := &SelfSched{f: f}
	var err error
	switch mode {
	case ssRead:
		s.rd, err = OpenReader(f, opts)
	case ssWrite:
		s.wr, err = OpenWriter(f, opts)
	default:
		err = fmt.Errorf("core: unknown SS mode %d", mode)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// lock takes the shared pointer lock when running under an engine.
func (s *SelfSched) lock(ctx sim.Context) *sim.Proc {
	p, _ := ctx.(*sim.Proc)
	if p != nil {
		s.mu.Lock(p)
	}
	return p
}

// unlock releases the pointer lock.
func (s *SelfSched) unlock(p *sim.Proc) {
	if p != nil {
		s.mu.Unlock(p)
	}
}

// claim takes the pointer lock, fixes the handle granularity on first use
// and reports whether the handle is open. The caller must unlock the
// returned process.
func (s *SelfSched) claim(ctx sim.Context, g ssGran) (*sim.Proc, error) {
	p := s.lock(ctx)
	switch {
	case s.closed:
		return p, fmt.Errorf("core: handle closed")
	case s.gran == granUnset:
		s.gran = g
	case s.gran != g:
		return p, fmt.Errorf("core: self-scheduled handle already used with different granularity")
	}
	return p, nil
}

// ReadNext claims and returns the next record (copied into dst) and its
// record index. Returns io.EOF when the file is exhausted.
func (s *SelfSched) ReadNext(ctx sim.Context, dst []byte) (int64, error) {
	if s.rd == nil {
		return 0, fmt.Errorf("core: ReadNext on a write handle")
	}
	if rs := s.f.Mapper().RecordSize(); len(dst) != rs {
		return 0, fmt.Errorf("core: dst is %d bytes, records are %d", len(dst), rs)
	}
	p, err := s.claim(ctx, granRecord)
	defer s.unlock(p)
	if err != nil {
		return 0, err
	}
	data, rec, err := s.rd.ReadRecord(ctx)
	copy(dst, data)
	return rec, err
}

// WriteNext claims the next record slot and writes data (len must equal
// the record size), returning the record index.
func (s *SelfSched) WriteNext(ctx sim.Context, data []byte) (int64, error) {
	if s.wr == nil {
		return 0, fmt.Errorf("core: WriteNext on a read handle")
	}
	p, err := s.claim(ctx, granRecord)
	defer s.unlock(p)
	if err != nil {
		return 0, err
	}
	return s.wr.WriteRecord(ctx, data)
}

// ReadNextBlock claims the next whole paper-block, returning its payload
// (valid until the next block-mode call) and block index. The final
// block's payload may be short.
func (s *SelfSched) ReadNextBlock(ctx sim.Context) ([]byte, int64, error) {
	if s.rd == nil {
		return nil, 0, fmt.Errorf("core: ReadNextBlock on a write handle")
	}
	p, err := s.claim(ctx, granBlock)
	defer s.unlock(p)
	if err != nil {
		return nil, 0, err
	}
	m := s.f.Mapper()
	data, rec, err := s.rd.ReadRecord(ctx)
	if err != nil {
		return nil, 0, err
	}
	b := m.BlockOf(rec)
	s.payload = append(s.payload[:0], data...)
	for i := 1; i < m.RecordsInBlock(b); i++ {
		if data, _, err = s.rd.ReadRecord(ctx); err != nil {
			return nil, b, err
		}
		s.payload = append(s.payload, data...)
	}
	return s.payload, b, nil
}

// WriteNextBlock claims the next paper-block slot and writes its payload
// (len must equal RecordsInBlock(b) * record size). A payload of the wrong
// length is rejected without claiming the block.
func (s *SelfSched) WriteNextBlock(ctx sim.Context, payload []byte) (int64, error) {
	if s.wr == nil {
		return 0, fmt.Errorf("core: WriteNextBlock on a read handle")
	}
	p, err := s.claim(ctx, granBlock)
	defer s.unlock(p)
	if err != nil {
		return 0, err
	}
	m := s.f.Mapper()
	b := s.wr.nextBlock()
	if b < 0 {
		return 0, fmt.Errorf("core: file full: %w", io.ErrShortWrite)
	}
	rs := m.RecordSize()
	if want := m.RecordsInBlock(b) * rs; len(payload) != want {
		return b, fmt.Errorf("core: block %d payload is %d bytes, want %d", b, len(payload), want)
	}
	for off := 0; off < len(payload); off += rs {
		if _, err := s.wr.WriteRecord(ctx, payload[off:off+rs]); err != nil {
			return b, err
		}
	}
	return b, nil
}

// Close flushes pending output and stops the I/O processes. Call once,
// after all participants are done.
func (s *SelfSched) Close(ctx sim.Context) error {
	p := s.lock(ctx)
	defer s.unlock(p)
	if s.closed {
		return nil
	}
	s.closed = true
	if s.rd != nil {
		return s.rd.Close(ctx)
	}
	return s.wr.Close(ctx)
}
