// Package boundary implements the paper's §5 treatment of partition
// boundaries: "in many algorithms, data along partition boundaries is
// needed by processes on both sides ... the data partitions logically
// overlap". Two remedies are provided:
//
//   - Replication: boundary (halo) records are stored twice, once in each
//     adjacent partition, so every process reads a self-contained
//     partition. This inflates the file and complicates the global view
//     ("there will be redundant data records") — DedupReader restores a
//     clean canonical stream.
//
//   - Caching: partitions store only their own records; each process
//     reads its neighbours' boundary records once and caches them in
//     memory across passes (HaloCache) — "helpful if more than one pass
//     is made through the file".
package boundary

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Layout describes a 1-D domain of logical records split into partitions
// with halo overlap.
type Layout struct {
	Parts int   // number of partitions
	Base  int64 // records owned per partition (the last may own fewer if Points < Parts*Base)
	Halo  int64 // records replicated from each neighbour
	Total int64 // total logical records
}

// New validates a boundary layout for total records over parts
// partitions with the given halo width.
func New(parts int, total, halo int64) (Layout, error) {
	if parts <= 0 {
		return Layout{}, fmt.Errorf("boundary: parts %d", parts)
	}
	if total <= 0 {
		return Layout{}, fmt.Errorf("boundary: total records %d", total)
	}
	if halo < 0 {
		return Layout{}, fmt.Errorf("boundary: negative halo")
	}
	base := (total + int64(parts) - 1) / int64(parts)
	if halo > base {
		return Layout{}, fmt.Errorf("boundary: halo %d exceeds partition size %d", halo, base)
	}
	return Layout{Parts: parts, Base: base, Halo: halo, Total: total}, nil
}

// OwnedRange reports the logical records partition p owns (no halo).
func (l Layout) OwnedRange(p int) (first, end int64) {
	first = int64(p) * l.Base
	end = first + l.Base
	if first > l.Total {
		first = l.Total
	}
	if end > l.Total {
		end = l.Total
	}
	return first, end
}

// StoredRange reports the logical records partition p stores when
// replicated (owned plus halos, clipped at the domain edges).
func (l Layout) StoredRange(p int) (first, end int64) {
	of, oe := l.OwnedRange(p)
	first = of - l.Halo
	end = oe + l.Halo
	if p == 0 {
		first = of
	}
	if p == l.Parts-1 {
		end = oe
	}
	if first < 0 {
		first = 0
	}
	if end > l.Total {
		end = l.Total
	}
	return first, end
}

// StoredPerPart reports the stored record count of each partition under
// replication.
func (l Layout) StoredPerPart() []int64 {
	out := make([]int64, l.Parts)
	for p := range out {
		f, e := l.StoredRange(p)
		out[p] = e - f
	}
	return out
}

// TotalStored reports the file size in records under replication.
func (l Layout) TotalStored() int64 {
	var sum int64
	for _, n := range l.StoredPerPart() {
		sum += n
	}
	return sum
}

// Overhead reports the fractional file-size overhead of replication.
func (l Layout) Overhead() float64 {
	return float64(l.TotalStored()-l.Total) / float64(l.Total)
}

// CreateReplicated creates a PS file storing each partition's owned and
// halo records contiguously (BlockRecords is fixed at 1 so partition
// boundaries land exactly on paper-block boundaries for any halo).
func CreateReplicated(vol *pfs.Volume, name string, recordSize int, l Layout) (*pfs.File, error) {
	return vol.Create(pfs.Spec{
		Name:         name,
		Org:          pfs.OrgPartitioned,
		Category:     pfs.Specialized,
		RecordSize:   recordSize,
		BlockRecords: 1,
		NumRecords:   l.TotalStored(),
		Parts:        l.Parts,
		PartBlocks:   l.StoredPerPart(),
	})
}

// CreatePlain creates the non-replicated PS twin (each partition stores
// only owned records) for the caching strategy.
func CreatePlain(vol *pfs.Volume, name string, recordSize int, l Layout) (*pfs.File, error) {
	parts := make([]int64, l.Parts)
	for p := range parts {
		f, e := l.OwnedRange(p)
		parts[p] = e - f
	}
	return vol.Create(pfs.Spec{
		Name:         name,
		Org:          pfs.OrgPartitioned,
		Category:     pfs.Specialized,
		RecordSize:   recordSize,
		BlockRecords: 1,
		NumRecords:   l.Total,
		Parts:        l.Parts,
		PartBlocks:   parts,
	})
}

// WriteReplicated fills a replicated file: partition p's stream receives
// logical records StoredRange(p) in order, with src(rec, buf) producing
// record rec's payload.
func WriteReplicated(ctx sim.Context, f *pfs.File, l Layout, part int,
	src func(rec int64, buf []byte) error, opts core.Options) error {
	w, err := core.OpenPartWriter(f, part, opts)
	if err != nil {
		return err
	}
	buf := make([]byte, f.Mapper().RecordSize())
	first, end := l.StoredRange(part)
	for rec := first; rec < end; rec++ {
		if err := src(rec, buf); err != nil {
			w.Close(ctx)
			return err
		}
		if _, err := w.WriteRecord(ctx, buf); err != nil {
			w.Close(ctx)
			return err
		}
	}
	return w.Close(ctx)
}

// PartReader yields the logical records partition p needs for a pass
// (StoredRange under replication) directly from its own partition.
type PartReader struct {
	r       *core.StreamReader
	logical int64
	end     int64
}

// OpenPartReader opens partition part of a replicated file; records come
// back tagged with their logical (global) index.
func OpenPartReader(f *pfs.File, l Layout, part int, opts core.Options) (*PartReader, error) {
	r, err := core.OpenPartReader(f, part, opts)
	if err != nil {
		return nil, err
	}
	first, end := l.StoredRange(part)
	return &PartReader{r: r, logical: first, end: end}, nil
}

// ReadRecord returns the next record and its logical index.
func (pr *PartReader) ReadRecord(ctx sim.Context) ([]byte, int64, error) {
	if pr.logical >= pr.end {
		return nil, 0, io.EOF
	}
	data, _, err := pr.r.ReadRecord(ctx)
	if err != nil {
		return nil, 0, err
	}
	rec := pr.logical
	pr.logical++
	return data, rec, nil
}

// Close releases the reader.
func (pr *PartReader) Close(ctx sim.Context) error { return pr.r.Close(ctx) }

// DedupReader presents the clean global view of a replicated file:
// logical records in canonical order, halo duplicates skipped (the §5
// "difficulties for the global view" resolved in software).
type DedupReader struct {
	f    *pfs.File
	l    Layout
	opts core.Options

	part    int
	r       *core.StreamReader
	skipped bool
	ctx     sim.Context
	logical int64
}

// OpenDedupReader opens the deduplicating global view.
func OpenDedupReader(f *pfs.File, l Layout, ctx sim.Context, opts core.Options) (*DedupReader, error) {
	return &DedupReader{f: f, l: l, opts: opts, ctx: ctx, part: -1}, nil
}

// ReadRecord returns the next logical record and its index.
func (d *DedupReader) ReadRecord(ctx sim.Context) ([]byte, int64, error) {
	for {
		if d.r == nil {
			d.part++
			if d.part >= d.l.Parts {
				return nil, 0, io.EOF
			}
			r, err := core.OpenPartReader(d.f, d.part, d.opts)
			if err != nil {
				return nil, 0, err
			}
			d.r = r
			first, _ := d.l.StoredRange(d.part)
			d.logical = first
			d.skipped = false
		}
		ownF, ownE := d.l.OwnedRange(d.part)
		data, _, err := d.r.ReadRecord(ctx)
		if err == io.EOF {
			d.r.Close(ctx)
			d.r = nil
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		rec := d.logical
		d.logical++
		if rec < ownF || rec >= ownE {
			continue // halo duplicate: skip
		}
		return data, rec, nil
	}
}

// Close releases any open partition reader.
func (d *DedupReader) Close(ctx sim.Context) error {
	if d.r != nil {
		err := d.r.Close(ctx)
		d.r = nil
		return err
	}
	return nil
}

// HaloCache implements the in-memory alternative: partition p of a plain
// (non-replicated) file reads its neighbours' boundary records once,
// keeps them in memory, and reuses them on every subsequent pass.
type HaloCache struct {
	l       Layout
	part    int
	rs      int
	records map[int64][]byte
}

// NewHaloCache prepares an empty cache for partition part.
func NewHaloCache(l Layout, part, recordSize int) *HaloCache {
	return &HaloCache{l: l, part: part, rs: recordSize, records: make(map[int64][]byte)}
}

// haloRecords lists the logical records partition p needs but does not
// own.
func (h *HaloCache) haloRecords() []int64 {
	ownF, ownE := h.l.OwnedRange(h.part)
	var out []int64
	for r := ownF - h.l.Halo; r < ownF; r++ {
		if r >= 0 {
			out = append(out, r)
		}
	}
	for r := ownE; r < ownE+h.l.Halo && r < h.l.Total; r++ {
		out = append(out, r)
	}
	return out
}

// Fill loads the halo records from the plain file through a GDA handle
// (one-time cost; subsequent passes hit memory).
func (h *HaloCache) Fill(ctx sim.Context, f *pfs.File, opts core.Options) error {
	d, err := core.OpenDirect(f, opts)
	if err != nil {
		return err
	}
	defer d.Close(ctx)
	for _, rec := range h.haloRecords() {
		buf := make([]byte, h.rs)
		if err := d.ReadRecordAt(ctx, rec, buf); err != nil {
			return err
		}
		h.records[rec] = buf
	}
	return nil
}

// Get returns the cached halo record, or nil if rec is not a cached halo.
func (h *HaloCache) Get(rec int64) []byte { return h.records[rec] }
