package core

import (
	"fmt"

	"repro/internal/blockio"
	"repro/internal/buffer"
	"repro/internal/pfs"
	"repro/internal/records"
	"repro/internal/sim"
)

// blockVec describes the fs blocks idxs, the i-th at space block i, each
// a one-block segment: physically adjacent blocks — even when logically
// strided — coalesce into gather runs (Set.Transfer).
func blockVec(dst blockio.Vec, idxs []int64, bs int64) blockio.Vec {
	for i, k := range idxs {
		dst = append(dst, blockio.VecSeg{Block: k, N: 1, BufOff: int64(i) * bs})
	}
	return dst
}

// spansOf builds the hook of f's buffer pool. A miss's block arrives —
// the pool fetches nothing else, so a read only ever gets one index — and
// an eviction's victim and the dirty blocks of a Flush or a cleaner's
// batch leave, as one descriptor of one-block segments over a space of
// the cache's frames: one gather request per physical run, scattered
// into and gathered from the frames themselves, in parallel across
// drives, and a single block the one-segment case. A read goes through
// Options.Strategy like every other read of the handle; a write is
// vectored. The hook reuses its descriptor across calls, which is safe
// even with concurrent callers: the transfer consumes it into physical
// runs before its first wait.
func spansOf(f *pfs.File, strat blockio.Strategy) buffer.SpanIO {
	set := f.Set()
	bs := int64(f.Mapper().FSBlockSize())
	var vec blockio.Vec
	return func(ctx sim.Context, write bool, idxs []int64, sp blockio.Space) error {
		vec = blockVec(vec[:0], idxs, bs)
		st := strat
		if write {
			st = blockio.StrategyVectored
		}
		return set.Transfer(ctx, write, st, vec, sp)
	}
}

// newBlockCache builds the buffer pool of a direct-access handle on f:
// opts.CacheBlocks frames, moved through spansOf's hook, and
// opts.IOProcs write-behind processes.
func newBlockCache(f *pfs.File, opts Options) (*buffer.Cache, error) {
	return buffer.NewCache(spansOf(f, opts.Strategy), f.Mapper().FSBlockSize(), opts.CacheBlocks, opts.IOProcs)
}

// Direct is the direct-access handle, GDA or PDA. Opened with
// OpenDirect it is the type-GDA handle: any process may read or write any
// record in any order, through a shared write-back block cache ("buffer
// caching techniques would be helpful when there is some locality of
// reference"), and one handle may be shared by all processes under an
// engine. Opened with OpenDirectPart it is the type-PDA handle: a process
// accesses records randomly but only within the paper-blocks assigned to
// its partition ("blocks can be thought of as pages of virtual memory");
// each process opens its own, so the block cache is private — the
// locality the paper expects. The two differ in the record check alone.
//
// With Options.SeqWithinBlocks a PDA handle enforces the §3.2 restricted
// variant: records inside each block must be accessed in ascending order
// (block order stays free).
type Direct struct {
	f      *pfs.File
	opts   Options
	cache  *buffer.Cache
	part   int           // PDA: the partition whose blocks the handle may touch; -1 for GDA
	seqPos map[int64]int // restricted PDA: next record index per block
	closed bool
}

// OpenDirect opens the GDA view of f.
func OpenDirect(f *pfs.File, opts Options) (*Direct, error) {
	return openDirect(f, -1, opts)
}

// OpenDirectPart opens the PDA view of partition part.
func OpenDirectPart(f *pfs.File, part int, opts Options) (*Direct, error) {
	if part < 0 || part >= f.Parts() {
		return nil, fmt.Errorf("core: partition %d of %d", part, f.Parts())
	}
	return openDirect(f, part, opts)
}

func openDirect(f *pfs.File, part int, opts Options) (*Direct, error) {
	opts = opts.norm()
	cache, err := newBlockCache(f, opts)
	if err != nil {
		return nil, err
	}
	d := &Direct{f: f, opts: opts, cache: cache, part: part}
	if part >= 0 && opts.SeqWithinBlocks {
		d.seqPos = make(map[int64]int)
	}
	return d, nil
}

// CacheStats reports the handle's cache counters.
func (d *Direct) CacheStats() buffer.CacheStats { return d.cache.Stats() }

// ReadRecordAt reads record rec into dst (len = record size).
func (d *Direct) ReadRecordAt(ctx sim.Context, rec int64, dst []byte) error {
	return d.access(ctx, rec, dst, false)
}

// WriteRecordAt writes src (len = record size) as record rec.
func (d *Direct) WriteRecordAt(ctx sim.Context, rec int64, src []byte) error {
	return d.access(ctx, rec, src, true)
}

// check validates record rec for this handle: in range, and on a PDA
// handle in an owned block and (restricted mode) next in its block.
func (d *Direct) check(rec int64) error {
	m := d.f.Mapper()
	if err := m.Check(rec); err != nil {
		return err
	}
	if d.part < 0 {
		return nil
	}
	b := m.BlockOf(rec)
	if owner := d.f.BlockOwner(b); owner != d.part {
		return fmt.Errorf("core: PDA violation: record %d is in block %d owned by partition %d, not %d",
			rec, b, owner, d.part)
	}
	if d.seqPos != nil {
		idx := m.IndexInBlock(rec)
		if want := d.seqPos[b]; idx != want {
			return fmt.Errorf("core: restricted PDA: block %d expects record index %d next, got %d", b, want, idx)
		}
		d.seqPos[b] = idx + 1
		if d.seqPos[b] >= m.RecordsInBlock(b) {
			d.seqPos[b] = 0 // block completed; a new pass may begin
		}
	}
	return nil
}

// access moves one record between the caller's buffer and the cache.
func (d *Direct) access(ctx sim.Context, rec int64, data []byte, write bool) error {
	if d.closed {
		return fmt.Errorf("core: handle closed")
	}
	if err := d.check(rec); err != nil {
		return err
	}
	m := d.f.Mapper()
	if len(data) != m.RecordSize() {
		return fmt.Errorf("core: buffer is %d bytes, records are %d", len(data), m.RecordSize())
	}
	pos := 0
	// A record rarely straddles more than two fs blocks; the array keeps
	// the span list off the heap.
	var arr [4]records.Span
	for _, sp := range m.AppendSpans(arr[:0], rec) {
		p0 := pos
		err := d.cache.With(ctx, sp.FSBlock, write, func(buf []byte) error {
			if write {
				copy(buf[sp.Off:sp.Off+sp.Len], data[p0:])
			} else {
				copy(data[p0:], buf[sp.Off:sp.Off+sp.Len])
			}
			return nil
		})
		if err != nil {
			return err
		}
		pos += sp.Len
	}
	return nil
}

// Close flushes and invalidates the handle.
func (d *Direct) Close(ctx sim.Context) error {
	if d.closed {
		return nil
	}
	if err := d.cache.Flush(ctx); err != nil {
		return err
	}
	d.closed = true
	return nil
}
