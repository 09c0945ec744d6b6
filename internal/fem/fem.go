// Package fem implements the baseline the paper argues against: the
// file-per-process practice from NASA's Finite Element Machine (§3).
// Each process owns one or more private sequential files; a global input
// must be partitioned into them by a pre-processing utility, and their
// outputs merged back by a post-processing utility — the two overheads
// the paper reports users "balked at".
//
// The manager quantifies the §3 pain points directly: the number of
// file-system objects to create/track/delete, and the virtual time spent
// in the partition and merge passes (which are sequential programs).
package fem

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Manager tracks a file-per-process working set on a volume.
type Manager struct {
	vol    *pfs.Volume
	app    string
	procs  int
	perPrc int
}

// NewManager prepares a manager for app with procs processes and
// filesPerProc private files each.
func NewManager(vol *pfs.Volume, app string, procs, filesPerProc int) (*Manager, error) {
	if procs <= 0 || filesPerProc <= 0 {
		return nil, fmt.Errorf("fem: procs %d, filesPerProc %d", procs, filesPerProc)
	}
	return &Manager{vol: vol, app: app, procs: procs, perPrc: filesPerProc}, nil
}

// FileName reports the conventional name of process p's i-th file.
func (m *Manager) FileName(p, i int) string {
	return fmt.Sprintf("%s.p%03d.f%d", m.app, p, i)
}

// FileCount reports how many separate files the working set needs — the
// paper's first complaint ("the sheer number of files became unwieldy").
func (m *Manager) FileCount() int { return m.procs * m.perPrc }

// CreateAll creates every private file (recordSize bytes per record,
// recsPerFile records each). Each create is a separate directory
// operation, as it was on the FEM.
func (m *Manager) CreateAll(recordSize int, recsPerFile int64) error {
	for p := 0; p < m.procs; p++ {
		for i := 0; i < m.perPrc; i++ {
			name := m.FileName(p, i)
			_, err := m.vol.Create(pfs.Spec{
				Name:       name,
				Org:        pfs.OrgSequential,
				Category:   pfs.Specialized,
				RecordSize: recordSize,
				NumRecords: recsPerFile,
			})
			if err != nil {
				return fmt.Errorf("fem: create %s: %w", name, err)
			}
		}
	}
	return nil
}

// Partition is the pre-processing utility: a sequential program that
// reads a global input file and deals its records round-robin into each
// process's file 0. It returns the virtual time consumed.
func (m *Manager) Partition(ctx sim.Context, global *pfs.File, opts core.Options) (elapsed time.Duration, err error) {
	start := ctx.Now()
	r, err := core.OpenReader(global, opts)
	if err != nil {
		return 0, err
	}
	defer r.Close(ctx)
	writers := make([]*core.StreamWriter, m.procs)
	for p := 0; p < m.procs; p++ {
		f, err := m.vol.Lookup(m.FileName(p, 0))
		if err != nil {
			return 0, err
		}
		w, err := core.OpenWriter(f, opts)
		if err != nil {
			return 0, err
		}
		writers[p] = w
	}
	var rec int64
	for {
		data, _, rerr := r.ReadRecord(ctx)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			err = rerr
			break
		}
		if _, werr := writers[int(rec)%m.procs].WriteRecord(ctx, data); werr != nil {
			err = werr
			break
		}
		rec++
	}
	for _, w := range writers {
		if cerr := w.Close(ctx); cerr != nil && err == nil {
			err = cerr
		}
	}
	return ctx.Now() - start, err
}

// Merge is the post-processing utility: a sequential program that reads
// every process's file 0 and reassembles the global order (inverse of
// Partition's round-robin deal) into dst. It returns the virtual time
// consumed.
func (m *Manager) Merge(ctx sim.Context, dst *pfs.File, opts core.Options) (time.Duration, error) {
	start := ctx.Now()
	readers := make([]*core.StreamReader, m.procs)
	for p := 0; p < m.procs; p++ {
		f, err := m.vol.Lookup(m.FileName(p, 0))
		if err != nil {
			return 0, err
		}
		r, err := core.OpenReader(f, opts)
		if err != nil {
			return 0, err
		}
		readers[p] = r
	}
	w, err := core.OpenWriter(dst, opts)
	if err != nil {
		return 0, err
	}
	var rec int64
	total := dst.Mapper().NumRecords()
	for rec < total {
		data, _, rerr := readers[int(rec)%m.procs].ReadRecord(ctx)
		if rerr != nil {
			err = rerr
			break
		}
		if _, werr := w.WriteRecord(ctx, data); werr != nil {
			err = werr
			break
		}
		rec++
	}
	for _, r := range readers {
		if cerr := r.Close(ctx); cerr != nil && err == nil {
			err = cerr
		}
	}
	if cerr := w.Close(ctx); cerr != nil && err == nil {
		err = cerr
	}
	return ctx.Now() - start, err
}

// ProcFile returns process p's i-th file for direct worker access.
func (m *Manager) ProcFile(p, i int) (*pfs.File, error) {
	return m.vol.Lookup(m.FileName(p, i))
}
