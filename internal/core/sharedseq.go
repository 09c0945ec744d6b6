package core

import (
	"fmt"
	"io"

	"repro/internal/buffer"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// SelfSchedDirect is the §3.2 variant the paper sketches for the GDA
// organization: "this organization could be used to support direct
// access versions of the S and SS file types". Like SelfSched it is one
// cursor over the file's records in S order, shared by all processes:
// every claim takes the next record (the SS guarantee). Its records move
// through a shared direct-access block cache instead of the S stream, so
// the same handle can also serve interspersed random reads (the mixed
// mode a purely sequential SS handle cannot offer), and records may
// straddle fs blocks (the cache assembles spans).
type SelfSchedDirect struct {
	f *pfs.File
	d *Direct

	mu     sim.Mutex
	cursor int64
	closed bool
}

// OpenSelfSchedDirect opens the shared direct-access self-scheduled view.
func OpenSelfSchedDirect(f *pfs.File, opts Options) (*SelfSchedDirect, error) {
	d, err := OpenDirect(f, opts)
	if err != nil {
		return nil, err
	}
	return &SelfSchedDirect{f: f, d: d}, nil
}

// Claim atomically takes the next record index without transferring any
// data — the §4 early-release idea taken to its limit: the critical
// section contains only the pointer bump, and the caller performs the
// transfer at its leisure through the shared cache.
func (s *SelfSchedDirect) Claim(ctx sim.Context) (int64, error) {
	var p *sim.Proc
	if pr, ok := ctx.(*sim.Proc); ok {
		s.mu.Lock(pr)
		p = pr
	}
	defer func() {
		if p != nil {
			s.mu.Unlock(p)
		}
	}()
	if s.closed {
		return 0, fmt.Errorf("core: handle closed")
	}
	if s.cursor >= s.f.Mapper().NumRecords() {
		return 0, io.EOF
	}
	rec := s.cursor
	s.cursor++
	return rec, nil
}

// ReadNext claims the next record and reads it into dst via the shared
// cache. The device transfer happens outside the pointer lock.
func (s *SelfSchedDirect) ReadNext(ctx sim.Context, dst []byte) (int64, error) {
	rec, err := s.Claim(ctx)
	if err != nil {
		return 0, err
	}
	return rec, s.d.ReadRecordAt(ctx, rec, dst)
}

// WriteNext claims the next record slot and writes data through the
// shared cache.
func (s *SelfSchedDirect) WriteNext(ctx sim.Context, data []byte) (int64, error) {
	rec, err := s.Claim(ctx)
	if err != nil {
		if err == io.EOF {
			return 0, fmt.Errorf("core: file full: %w", io.ErrShortWrite)
		}
		return 0, err
	}
	return rec, s.d.WriteRecordAt(ctx, rec, data)
}

// ReadRecordAt performs an interspersed random read through the same
// shared cache (the GDA side of the hybrid).
func (s *SelfSchedDirect) ReadRecordAt(ctx sim.Context, rec int64, dst []byte) error {
	return s.d.ReadRecordAt(ctx, rec, dst)
}

// CacheStats exposes the shared cache counters.
func (s *SelfSchedDirect) CacheStats() buffer.CacheStats {
	return s.d.CacheStats()
}

// Close flushes the cache and invalidates the handle.
func (s *SelfSchedDirect) Close(ctx sim.Context) error {
	if pr, ok := ctx.(*sim.Proc); ok {
		s.mu.Lock(pr)
		defer s.mu.Unlock(pr)
	}
	if s.closed {
		return nil
	}
	s.closed = true
	return s.d.Close(ctx)
}
