package core

import (
	"fmt"
	"io"

	"repro/internal/blockio"
	"repro/internal/buffer"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SelfSched is the shared type-SS handle: each request — from whatever
// process — is guaranteed to reference the next record of the file, so
// every record is consumed (or produced) exactly once, in claim order.
//
// With Options.EarlyRelease (the §4 optimization) the shared file
// pointer is advanced and buffer space reserved inside the critical
// section, while data transfers are carried by dedicated I/O processes
// outside it; concurrent requests therefore serialize only on pointer
// arithmetic. Without it, each request performs its device transfer
// while holding the lock — the naive fully-serialized implementation.
//
// SelfSched also supports self-scheduling by whole blocks ("could be
// provided if needed", §3.1) via ReadNextBlock/WriteNextBlock. Record
// and block granularity must not be mixed on one handle.
//
// SS requires records not to straddle fs blocks ("the use of predictable
// length records reduces the problem"); OpenSelfSched rejects framings
// that straddle.
type SelfSched struct {
	f    *pfs.File
	opts Options
	mode ssMode
	gran ssGran

	mu     sim.Mutex
	cursor int64 // next record (record mode) or paper-block (block mode)

	ext     int64 // fs blocks per streaming extent (early release)
	totalFS int64

	// Read state.
	rd    *buffer.SeqReader
	cur   []byte
	curLo int64 // logical fs range [curLo, curHi) held by cur
	curHi int64

	// Write state.
	sw    *buffer.SeqWriter
	wbuf  []byte
	wLo   int64 // logical fs range [wLo, wHi) assembled in wbuf
	wHi   int64
	wBuf1 []byte // serialized-mode scratch block

	payload []byte // block-mode assembly buffer
	closed  bool

	// procIDs maps simulated processes to trace ids: the handle is
	// shared, so the per-handle Options.Proc cannot identify claimants.
	procIDs map[*sim.Proc]int
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
	opts = opts.norm()
	m := f.Mapper()
	// Reject record framings that straddle fs blocks.
	probe := m.BlockRecords()
	if int64(probe) > m.NumRecords() {
		probe = int(m.NumRecords())
	}
	for i := 0; i < probe; i++ {
		if len(m.Spans(int64(i))) != 1 {
			return nil, fmt.Errorf("core: self-scheduled files need records that do not straddle fs blocks (record size %d, fs block %d)",
				m.RecordSize(), m.FSBlockSize())
		}
	}
	totalFS := m.TotalFSBlocks()
	s := &SelfSched{f: f, opts: opts, mode: mode,
		ext: int64(opts.ExtentBlocks), totalFS: totalFS,
		curLo: -1, curHi: -1, wLo: -1, wHi: -1}
	switch mode {
	case ssRead:
		if opts.EarlyRelease {
			ioProcs := opts.IOProcs
			if ioProcs < 1 {
				ioProcs = 1
			}
			fetch := rangedFetch(f, wholeFileSeq(f), blockio.StrategyDefault)
			rd, err := buffer.NewSeqReaderExtent(fetch, m.FSBlockSize(), totalFS,
				opts.ExtentBlocks, opts.NBufs, ioProcs)
			if err != nil {
				return nil, err
			}
			s.rd = rd
		} else {
			s.cur = make([]byte, m.FSBlockSize())
		}
	case ssWrite:
		if opts.EarlyRelease {
			ioProcs := opts.IOProcs
			if ioProcs < 1 {
				ioProcs = 1
			}
			flush := rangedFlush(f, wholeFileSeq(f), blockio.StrategyDefault)
			sw, err := buffer.NewSeqWriterExtent(flush, m.FSBlockSize(), totalFS,
				opts.ExtentBlocks, opts.NBufs, ioProcs)
			if err != nil {
				return nil, err
			}
			s.sw = sw
		} else {
			s.wBuf1 = make([]byte, m.FSBlockSize())
		}
	default:
		return nil, fmt.Errorf("core: unknown SS mode %d", mode)
	}
	return s, nil
}

// RegisterProc associates a simulated process with a process id for
// tracing. Call once per participating process before its first request;
// unregistered processes trace as Options.Proc.
func (s *SelfSched) RegisterProc(p *sim.Proc, id int) {
	if s.procIDs == nil {
		s.procIDs = make(map[*sim.Proc]int)
	}
	s.procIDs[p] = id
}

// traceProc resolves the claimant's trace id.
func (s *SelfSched) traceProc(ctx sim.Context) int {
	if p, ok := ctx.(*sim.Proc); ok {
		if id, ok := s.procIDs[p]; ok {
			return id
		}
	}
	return s.opts.Proc
}

// lock acquires the shared pointer lock when running under an engine.
func (s *SelfSched) lock(ctx sim.Context) *sim.Proc {
	if p, ok := ctx.(*sim.Proc); ok {
		s.mu.Lock(p)
		return p
	}
	return nil
}

// unlock releases the pointer lock.
func (s *SelfSched) unlock(p *sim.Proc) {
	if p != nil {
		s.mu.Unlock(p)
	}
}

// setGran fixes the handle granularity on first use.
func (s *SelfSched) setGran(g ssGran) error {
	if s.gran == granUnset {
		s.gran = g
		return nil
	}
	if s.gran != g {
		return fmt.Errorf("core: self-scheduled handle already used with different granularity")
	}
	return nil
}

// readAdvanceTo makes cur hold logical fs block k.
func (s *SelfSched) readAdvanceTo(ctx sim.Context, k int64) error {
	if s.opts.EarlyRelease {
		for s.cur == nil || k >= s.curHi {
			if s.cur != nil {
				s.rd.Release(ctx, s.cur)
				s.cur = nil
			}
			buf, e, err := s.rd.Next(ctx)
			if err != nil {
				return err
			}
			s.cur = buf
			s.curLo, s.curHi = extentSpanOf(e, s.ext, s.totalFS)
		}
		if k < s.curLo {
			return fmt.Errorf("core: SS read skipped fs block %d (at [%d,%d))", k, s.curLo, s.curHi)
		}
		return nil
	}
	if k < s.curLo || k >= s.curHi {
		if err := s.f.Set().ReadBlock(ctx, k, s.cur); err != nil {
			return err
		}
		s.curLo, s.curHi = k, k+1
	}
	return nil
}

// rblock returns the cached bytes of logical fs block k; readAdvanceTo(k)
// must have succeeded.
func (s *SelfSched) rblock(k int64) []byte {
	return extentSlice(s.cur, k, s.curLo, s.f.Mapper().FSBlockSize())
}

// wblock returns the assembly bytes of logical fs block k;
// writeAdvanceTo(k) must have succeeded.
func (s *SelfSched) wblock(k int64) []byte {
	return extentSlice(s.wbuf, k, s.wLo, s.f.Mapper().FSBlockSize())
}

// ReadNext claims and returns the next record (valid until the caller's
// next ReadNext) and its record index. Returns io.EOF when the file is
// exhausted.
func (s *SelfSched) ReadNext(ctx sim.Context, dst []byte) (int64, error) {
	if s.mode != ssRead {
		return 0, fmt.Errorf("core: ReadNext on a write handle")
	}
	if err := s.setGran(granRecord); err != nil {
		return 0, err
	}
	m := s.f.Mapper()
	if len(dst) != m.RecordSize() {
		return 0, fmt.Errorf("core: dst is %d bytes, records are %d", len(dst), m.RecordSize())
	}
	p := s.lock(ctx)
	defer s.unlock(p)
	if s.closed {
		return 0, fmt.Errorf("core: handle closed")
	}
	if s.cursor >= m.NumRecords() {
		return 0, io.EOF
	}
	rec := s.cursor
	s.cursor++
	sp := m.Spans(rec)[0]
	if err := s.readAdvanceTo(ctx, sp.FSBlock); err != nil {
		return rec, err
	}
	blk := s.rblock(sp.FSBlock)
	copy(dst, blk[sp.Off:sp.Off+sp.Len])
	s.opts.Trace.Add(trace.Event{
		Time: ctx.Now(), Proc: s.traceProc(ctx), Op: trace.Read, Record: rec, Block: m.BlockOf(rec),
	})
	return rec, nil
}

// WriteNext claims the next record slot and writes data (len must equal
// the record size), returning the record index.
func (s *SelfSched) WriteNext(ctx sim.Context, data []byte) (int64, error) {
	if s.mode != ssWrite {
		return 0, fmt.Errorf("core: WriteNext on a read handle")
	}
	if err := s.setGran(granRecord); err != nil {
		return 0, err
	}
	m := s.f.Mapper()
	if len(data) != m.RecordSize() {
		return 0, fmt.Errorf("core: record is %d bytes, file records are %d", len(data), m.RecordSize())
	}
	p := s.lock(ctx)
	defer s.unlock(p)
	if s.closed {
		return 0, fmt.Errorf("core: handle closed")
	}
	if s.cursor >= m.NumRecords() {
		return 0, fmt.Errorf("core: file full: %w", io.ErrShortWrite)
	}
	rec := s.cursor
	s.cursor++
	sp := m.Spans(rec)[0]
	if err := s.writeAdvanceTo(ctx, sp.FSBlock); err != nil {
		return rec, err
	}
	blk := s.wblock(sp.FSBlock)
	copy(blk[sp.Off:sp.Off+sp.Len], data)
	s.opts.Trace.Add(trace.Event{
		Time: ctx.Now(), Proc: s.traceProc(ctx), Op: trace.Write, Record: rec, Block: m.BlockOf(rec),
	})
	return rec, nil
}

// writeAdvanceTo makes wbuf the assembly buffer covering logical fs
// block k, flushing the completed predecessor extent.
func (s *SelfSched) writeAdvanceTo(ctx sim.Context, k int64) error {
	if s.wbuf != nil && k >= s.wLo && k < s.wHi {
		return nil
	}
	if s.opts.EarlyRelease {
		if s.wbuf != nil {
			if err := s.sw.Submit(ctx, s.wLo/s.ext, s.wbuf); err != nil {
				return err
			}
			s.wbuf = nil
		}
		buf, err := s.sw.Acquire(ctx)
		if err != nil {
			return err
		}
		clear(buf)
		s.wbuf = buf
		s.wLo, s.wHi = extentSpanAt(k, s.ext, s.totalFS)
		return nil
	}
	if s.wbuf != nil {
		if err := s.f.Set().WriteBlock(ctx, s.wLo, s.wbuf); err != nil {
			return err
		}
	}
	clear(s.wBuf1)
	s.wbuf = s.wBuf1
	s.wLo, s.wHi = k, k+1
	return nil
}

// ReadNextBlock claims the next whole paper-block, returning its payload
// (valid until the next block-mode call) and block index. The final
// block's payload may be short.
func (s *SelfSched) ReadNextBlock(ctx sim.Context) ([]byte, int64, error) {
	if s.mode != ssRead {
		return nil, 0, fmt.Errorf("core: ReadNextBlock on a write handle")
	}
	if err := s.setGran(granBlock); err != nil {
		return nil, 0, err
	}
	m := s.f.Mapper()
	p := s.lock(ctx)
	defer s.unlock(p)
	if s.closed {
		return nil, 0, fmt.Errorf("core: handle closed")
	}
	if s.cursor >= m.NumBlocks() {
		return nil, 0, io.EOF
	}
	b := s.cursor
	s.cursor++
	nRec := m.RecordsInBlock(b)
	want := nRec * m.RecordSize()
	if cap(s.payload) < want {
		s.payload = make([]byte, want)
	}
	out := s.payload[:want]
	firstFS, _ := m.BlockSpan(b)
	fsbs := m.FSBlockSize()
	for got := 0; got < want; {
		k := firstFS + int64(got/fsbs)
		if err := s.readAdvanceTo(ctx, k); err != nil {
			return nil, b, err
		}
		off := got % fsbs
		n := fsbs - off
		if n > want-got {
			n = want - got
		}
		blk := s.rblock(k)
		copy(out[got:], blk[off:off+n])
		got += n
	}
	s.opts.Trace.Add(trace.Event{
		Time: ctx.Now(), Proc: s.traceProc(ctx), Op: trace.Read,
		Record: b * int64(m.BlockRecords()), Block: b,
	})
	return out, b, nil
}

// WriteNextBlock claims the next paper-block slot and writes its payload
// (len must equal RecordsInBlock(b) * record size).
func (s *SelfSched) WriteNextBlock(ctx sim.Context, payload []byte) (int64, error) {
	if s.mode != ssWrite {
		return 0, fmt.Errorf("core: WriteNextBlock on a read handle")
	}
	if err := s.setGran(granBlock); err != nil {
		return 0, err
	}
	m := s.f.Mapper()
	p := s.lock(ctx)
	defer s.unlock(p)
	if s.closed {
		return 0, fmt.Errorf("core: handle closed")
	}
	if s.cursor >= m.NumBlocks() {
		return 0, fmt.Errorf("core: file full: %w", io.ErrShortWrite)
	}
	b := s.cursor
	s.cursor++
	want := m.RecordsInBlock(b) * m.RecordSize()
	if len(payload) != want {
		return b, fmt.Errorf("core: block %d payload is %d bytes, want %d", b, len(payload), want)
	}
	firstFS, _ := m.BlockSpan(b)
	fsbs := m.FSBlockSize()
	for put := 0; put < want; {
		k := firstFS + int64(put/fsbs)
		if err := s.writeAdvanceTo(ctx, k); err != nil {
			return b, err
		}
		off := put % fsbs
		n := fsbs - off
		if n > want-put {
			n = want - put
		}
		blk := s.wblock(k)
		copy(blk[off:off+n], payload[put:put+n])
		put += n
	}
	s.opts.Trace.Add(trace.Event{
		Time: ctx.Now(), Proc: s.traceProc(ctx), Op: trace.Write,
		Record: b * int64(m.BlockRecords()), Block: b,
	})
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
	switch s.mode {
	case ssRead:
		if s.opts.EarlyRelease {
			if s.cur != nil {
				s.rd.Release(ctx, s.cur)
				s.cur = nil
			}
			s.rd.Close(ctx)
		}
		return nil
	default:
		if s.wbuf != nil {
			if s.opts.EarlyRelease {
				if err := s.sw.Submit(ctx, s.wLo/s.ext, s.wbuf); err != nil {
					return err
				}
			} else if err := s.f.Set().WriteBlock(ctx, s.wLo, s.wbuf); err != nil {
				return err
			}
			s.wbuf = nil
		}
		if s.opts.EarlyRelease {
			return s.sw.Close(ctx)
		}
		return nil
	}
}
