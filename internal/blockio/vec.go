// Describe: the first stage of the transfer pipeline (describe → map →
// transform → issue). A Vec is the request descriptor every Set transfer
// is stated in: a list of (logical block range, buffer offset) segments.
// A contiguous range — one block included — is its one-segment case,
// which is why there is no ranged or one-block entry point.
//
// Describing the whole transfer up front is what lets the map stage
// coalesce it. Declustered layouts break logical contiguity: with a
// stripe unit smaller than the transfer, logically consecutive blocks
// alternate devices, and the blocks that ARE physically adjacent on one
// device are logically strided — issued range by range they go out one
// request per unit. MapVec decomposes every segment, sorts the pieces by
// physical address and merges the adjacent ones into gather runs, each of
// which transfers as one device request scattering into (gathering from)
// the caller's buffer. Unit-1 declustering then coalesces exactly like
// unit-8 striping.

package blockio

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Seg maps one consecutive slice of a gather run onto the caller's
// buffer: the run's next Blocks blocks transfer at buffer byte offset
// BufOff.
type Seg struct {
	BufOff int64 // byte offset into the caller's buffer (block aligned)
	Blocks int64 // number of consecutive run blocks at that offset
}

// hole is the BufOff of a segment nobody asked for: blocks a sieved
// covering run moves through scratch only to stay one request (sieve.go).
const hole int64 = -1

// VecSeg is one segment of a vectored request: the n logical blocks
// [Block, Block+N) correspond to the caller-buffer bytes
// [BufOff, BufOff+N×blocksize).
type VecSeg struct {
	Block  int64 // first logical block
	N      int64 // length in blocks
	BufOff int64 // byte offset into the request buffer (block aligned)
}

// Vec is a scatter/gather request descriptor: a list of (logical block
// range, buffer offset) segments, in any order. Segments must be
// pairwise disjoint both in logical blocks and in buffer bytes —
// overlapping segments make the transfer order ambiguous and are
// rejected. Zero-length segments are permitted and ignored.
type Vec []VecSeg

// Blocks reports the total block count of the descriptor.
func (v Vec) Blocks() int64 {
	var n int64
	for _, sg := range v {
		n += sg.N
	}
	return n
}

// checkVec validates descriptor shape: block ranges inside the file's
// [0, blocks), block-aligned in-bounds buffer ranges, and pairwise
// disjointness in both coordinate systems. It runs before anything maps,
// so a segment past the file's end never reaches the layout, which would
// place it in whatever lies beyond the file's extent. bufLen < 0 skips
// the buffer bound check (MapVec, which has no buffer). Segments that arrive ascending in both blocks and
// buffer — one range, a stream's extent, most request lists — are proven
// disjoint by the first walk alone; only a shuffled descriptor pays for
// the two sorts.
func (s *Set) checkVec(op string, vec Vec, bufLen int64) error {
	bs := int64(s.store.BlockSize())
	ordered, last := true, -1 // last: the previous non-empty segment
	for i, sg := range vec {
		if sg.N < 0 || sg.Block < 0 || sg.N > s.blocks-sg.Block {
			return fmt.Errorf("blockio: %s segment %d: blocks [%d,%d) outside the file's %d blocks", op, i, sg.Block, sg.Block+sg.N, s.blocks)
		}
		if sg.N == 0 {
			continue
		}
		if sg.BufOff < 0 || sg.BufOff%bs != 0 {
			return fmt.Errorf("blockio: %s segment %d: buffer offset %d not aligned to %d-byte blocks", op, i, sg.BufOff, bs)
		}
		if bufLen >= 0 && sg.BufOff+sg.N*bs > bufLen {
			return fmt.Errorf("blockio: %s segment %d: buffer bytes [%d,%d) exceed %d-byte buffer",
				op, i, sg.BufOff, sg.BufOff+sg.N*bs, bufLen)
		}
		if last >= 0 && (vec[last].Block+vec[last].N > sg.Block || vec[last].BufOff+vec[last].N*bs > sg.BufOff) {
			ordered = false
		}
		last = i
	}
	if ordered {
		return nil
	}
	var act []int // indices of non-empty segments
	for i, sg := range vec {
		if sg.N > 0 {
			act = append(act, i)
		}
	}
	for pass := 0; pass < 2; pass++ {
		byBlock := pass == 0
		idx := append([]int(nil), act...)
		sort.Slice(idx, func(a, b int) bool {
			if byBlock {
				return vec[idx[a]].Block < vec[idx[b]].Block
			}
			return vec[idx[a]].BufOff < vec[idx[b]].BufOff
		})
		for k := 1; k < len(idx); k++ {
			p, c := vec[idx[k-1]], vec[idx[k]]
			if byBlock && p.Block+p.N > c.Block {
				return fmt.Errorf("blockio: %s segments %d and %d overlap in logical blocks", op, idx[k-1], idx[k])
			}
			if !byBlock && p.BufOff+p.N*bs > c.BufOff {
				return fmt.Errorf("blockio: %s segments %d and %d overlap in the buffer", op, idx[k-1], idx[k])
			}
		}
	}
	return nil
}

// MapVec validates vec and decomposes it into gather runs: every segment
// is mapped through the layout, the resulting pieces are sorted by
// physical address, and pieces that are physically adjacent on one
// device merge into a single run even when they come from different
// segments or are logically strided (listio-style coalescing). Physical
// blocks are file-extent relative, like Layout.MapRun. The runs are
// returned in (device, physical block) order.
func (s *Set) MapVec(vec Vec) ([]Run, error) {
	m, err := s.Map(vec)
	for i := range m.runs {
		m.runs[i].PBlock -= s.base[m.runs[i].Dev]
	}
	return m.runs, err
}

// ReadVec reads the blocks described by vec into buf, scattering each
// segment's blocks at its buffer offset. Physically adjacent pieces —
// across segments, regardless of logical adjacency — coalesce into
// single gather requests, issued in parallel across devices under a
// simulation engine. It is ReadVecStrategy with the vectored strategy.
func (s *Set) ReadVec(ctx sim.Context, vec Vec, buf []byte) error {
	return s.ReadVecStrategy(ctx, StrategyVectored, vec, buf)
}

// WriteVec writes the blocks described by vec from buf, gathering each
// segment's bytes from its buffer offset — the write counterpart of
// ReadVec.
func (s *Set) WriteVec(ctx sim.Context, vec Vec, buf []byte) error {
	return s.WriteVecStrategy(ctx, StrategyVectored, vec, buf)
}
