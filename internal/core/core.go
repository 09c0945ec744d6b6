// Package core implements the paper's contribution: access methods for
// the six standard parallel file organizations (§3) over the pfs
// substrate.
//
//	S    StreamReader / StreamWriter over the whole file
//	PS   OpenPartReader / OpenPartWriter — one contiguous partition
//	IS   OpenInterleavedReader / OpenInterleavedWriter — strided blocks
//	SS   SelfSched — the S stream with a shared pointer; a request claims the next record
//	GDA  OpenDirect — random record access through a buffer pool
//	PDA  OpenDirectPart — the same Direct handle, checked to owned blocks
//
// Organizations are access methods, deliberately decoupled from the
// file's physical placement: opening a PS-placed file with an
// interleaved view is legal (it is the paper's §5 "alternate view with
// degraded performance"), and package convert builds on exactly that.
//
// Concurrent use of shared handles (SelfSched, Direct) requires running
// under a sim.Engine; see package sim.
package core

import (
	"fmt"
	"sync"

	"repro/internal/blockio"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Options tune an access method. The zero value means: synchronous,
// unbuffered I/O. Use DefaultOptions for the paper's recommended
// configuration (double buffering, read-ahead, deferred write).
type Options struct {
	// NBufs is the number of block buffers for stream handles
	// (minimum 1; DefaultOptions sets 2 — double buffering). With
	// extents of more than one block it also bounds a batch: an I/O
	// process sends at most the extents of every buffer at once.
	NBufs int
	// ExtentBlocks sets the streaming transfer size in fs blocks: stream
	// handles prefetch and write-behind whole extents of up to this many
	// fs blocks, and spans that are logically contiguous coalesce into
	// single device requests (extent I/O), paying the device's
	// per-request overhead once per extent instead of once per block.
	// Above 1 an I/O process also batches: a prefetch process claims the
	// extent of every free buffer, a write-behind process every
	// consecutive extent queued behind the one it took, and each batch
	// leaves as one descriptor over the batch's buffers (list I/O), so
	// physically adjacent extents are one request per drive. 0 or 1
	// keeps the paper's block-at-a-time requests; DefaultOptions leaves
	// it there so the paper's modeled shapes are unchanged. Each of the
	// NBufs buffers grows to ExtentBlocks fs blocks, and a closed stream
	// writer zero-fills the unwritten remainder of its final extent.
	ExtentBlocks int
	// IOProcs is the number of dedicated I/O processes performing
	// read-ahead / write-behind, each sending its own batches (see
	// ExtentBlocks); several of one stream have batches in flight at
	// once. 0 disables overlap (synchronous, one extent a transfer). For
	// a direct-access handle it is the number of cleaner processes
	// writing the dirty blocks evictions leave behind, in vectored
	// batches; with 0 every dirty victim is written back inside the miss
	// that evicted it.
	IOProcs int
	// EarlyRelease enables the §4 self-scheduling optimization. An SS
	// handle is a cursor over the S stream, shared by its claimants; with
	// EarlyRelease that stream reads ahead and writes behind on IOProcs
	// (at least one) dedicated I/O processes, so the shared file pointer
	// advances and buffer space is reserved before the data transfer
	// completes. Without it the stream is one synchronous block buffer,
	// and every SS request holds the pointer through its device transfer.
	EarlyRelease bool
	// CacheBlocks is the capacity, in fs-block frames, of a direct-access
	// handle's buffer pool (minimum 1; DefaultOptions sets 8): resident
	// blocks plus fetches in flight never exceed it. Replacement is a
	// segmented LRU — a fault enters on probation, a hit promotes to a
	// protected ¾ — so blocks touched once do not flush the ones hit
	// again. With IOProcs > 0 the pool grows a write-behind reserve of up
	// to CacheBlocks/4 more frames, holding evicted dirty blocks until a
	// cleaner has written them.
	CacheBlocks int
	// SeqWithinBlocks enforces the restricted PDA variant of §3.2:
	// records inside each owned block must be accessed sequentially.
	SeqWithinBlocks bool
	// Strategy selects how noncontiguous extent transfers execute:
	// vectored (one request per physical run), sieved (one covering span
	// per device, writes as read-modify-write), or Auto, which prices
	// both against the store's modeled device parameters per operation
	// and picks the cheaper. The zero value keeps the historical
	// vectored path, so the paper's modeled shapes are unchanged;
	// TunedOptions sets blockio.StrategyAuto.
	Strategy blockio.Strategy
}

// DefaultOptions is the paper-recommended configuration: double
// buffering with one dedicated I/O process, early release, and a small
// block cache.
func DefaultOptions() Options {
	return Options{
		NBufs:        2,
		IOProcs:      1,
		EarlyRelease: true,
		CacheBlocks:  8,
	}
}

// TunedOptions is the access-method half of the "modern defaults"
// profile: everything the layers grown since the paper recommend
// turning on. Streams move 32-block extents through four buffers (the
// vectored path coalesces a batch of them to one gather request per
// device) and the direct-access cache grows to match. DefaultOptions
// remains the paper's configuration, whose modeled shapes stay
// bit-identical; see the top-level package's TunedProfile for the
// machine- and collective-level half (SCAN scheduling, queue merging, a
// modeled interconnect, chunked collective buffering).
func TunedOptions() Options {
	return Options{
		NBufs:        4,
		ExtentBlocks: 32,
		IOProcs:      1,
		EarlyRelease: true,
		CacheBlocks:  64,
		Strategy:     blockio.StrategyAuto,
	}
}

// norm clamps an Options value into a usable state.
func (o Options) norm() Options {
	if o.NBufs < 1 {
		o.NBufs = 1
	}
	if o.ExtentBlocks < 1 {
		o.ExtentBlocks = 1
	}
	if o.IOProcs < 0 {
		o.IOProcs = 0
	}
	if o.CacheBlocks < 1 {
		o.CacheBlocks = 1
	}
	return o
}

// blockSeq enumerates the paper-blocks of a stream view: n blocks, the
// j-th being pb(j) in file coordinates.
type blockSeq struct {
	n  int64
	pb func(j int64) int64
}

// wholeFileSeq is the S (and global sequential) view.
func wholeFileSeq(f *pfs.File) blockSeq {
	return blockSeq{n: f.Mapper().NumBlocks(), pb: func(j int64) int64 { return j }}
}

// partSeq is the PS view of partition p.
func partSeq(f *pfs.File, p int) (blockSeq, error) {
	if p < 0 || p >= f.Parts() {
		return blockSeq{}, fmt.Errorf("core: partition %d of %d", p, f.Parts())
	}
	first, end := f.PartBlockRange(p)
	return blockSeq{n: end - first, pb: func(j int64) int64 { return first + j }}, nil
}

// extentSpanAt reports the extent-aligned stream fs window [lo, hi)
// containing block k, clamped to the stream length — the one place the
// extent-window invariants live for all stream handles.
func extentSpanAt(k, ext, total int64) (lo, hi int64) {
	lo = (k / ext) * ext
	hi = lo + ext
	if hi > total {
		hi = total
	}
	return lo, hi
}

// extentSpanOf is extentSpanAt addressed by extent index.
func extentSpanOf(e, ext, total int64) (lo, hi int64) {
	return extentSpanAt(e*ext, ext, total)
}

// extentSlice returns fs block k's bytes within an extent buffer whose
// window starts at stream fs block lo.
func extentSlice(buf []byte, k, lo int64, bs int) []byte {
	off := (k - lo) * int64(bs)
	return buf[off : off+int64(bs)]
}

// contigRuns decomposes the stream fs blocks [first, first+n) into
// maximal logically contiguous runs, calling fn(logical, off, run) with
// each run's first logical fs block, its fs-block offset from first, and
// its length. Adjacent paper-blocks extend a run whenever the view's
// block sequence is contiguous (always for S and PS views; one
// paper-block at a time for strided IS views).
func (s blockSeq) contigRuns(fsPer, first, n int64, fn func(logical, off, run int64) error) error {
	k, rem := first, n
	for rem > 0 {
		j := k / fsPer
		off := k % fsPer
		logical := s.pb(j)*fsPer + off
		run := fsPer - off
		if run > rem {
			run = rem
		}
		for run < rem && s.pb(j+1) == s.pb(j)+1 {
			j++
			add := fsPer
			if run+add > rem {
				add = rem - run
			}
			run += add
		}
		if err := fn(logical, k-first, run); err != nil {
			return err
		}
		k += run
		rem -= run
	}
	return nil
}

// streamVec assembles the scatter/gather descriptor of the stream fs
// blocks [first, first+n): one segment per logically contiguous span.
// Every stream transfer goes through this one descriptor form, so the
// vec merge coalesces physically adjacent spans even when they are
// logically strided (IS views, unit-1 declustering).
func (s blockSeq) streamVec(dst blockio.Vec, fsPer, bs, first, n int64) blockio.Vec {
	_ = s.contigRuns(fsPer, first, n, func(logical, off, run int64) error {
		dst = append(dst, blockio.VecSeg{Block: logical, N: run, BufOff: off * bs})
		return nil
	})
	return dst
}

// vecs recycles the descriptors of stream transfers. A descriptor is held
// only while its transfer runs, so the streams open at once share what
// their batches need instead of each keeping its own: an IS view's batch
// has a segment per block.
var vecs = sync.Pool{New: func() any { return new(blockio.Vec) }}

// rangedRun returns the hook a stream's I/O processes move its fs blocks
// through: it reads them, or with write writes them. It issues each run —
// a batch of extents, whose frames are the space's pieces — as one
// vectored descriptor (Set.Transfer: the extent path, gather-capable
// since vectored I/O) or, under Options.Strategy, through the
// sieved/auto-selected path. The descriptor comes from pooled
// scratch, so I/O processes of one stream never share one.
func rangedRun(f *pfs.File, seq blockSeq, strat blockio.Strategy, write bool) func(sim.Context, int64, int, blockio.Space) error {
	set := f.Set()
	fsPer := f.Mapper().FSPerBlock()
	bs := int64(f.Mapper().FSBlockSize())
	return func(ctx sim.Context, first int64, n int, sp blockio.Space) error {
		vp := vecs.Get().(*blockio.Vec)
		*vp = seq.streamVec((*vp)[:0], fsPer, bs, first, int64(n))
		err := set.Transfer(ctx, write, strat, *vp, sp)
		vecs.Put(vp)
		return err
	}
}

// interleavedSeq is the IS view: blocks ≡ part (mod stride).
func interleavedSeq(f *pfs.File, part, stride int) (blockSeq, error) {
	if stride <= 0 {
		return blockSeq{}, fmt.Errorf("core: interleave stride %d", stride)
	}
	if part < 0 || part >= stride {
		return blockSeq{}, fmt.Errorf("core: interleave part %d of stride %d", part, stride)
	}
	total := f.Mapper().NumBlocks()
	var n int64
	if int64(part) < total {
		n = (total-int64(part)-1)/int64(stride) + 1
	}
	return blockSeq{n: n, pb: func(j int64) int64 { return int64(part) + j*int64(stride) }}, nil
}
