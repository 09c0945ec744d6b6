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
	"cmp"
	"fmt"
	"math"
	"slices"

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

// checkVec validates descriptor shape: block ranges inside the file's
// [0, blocks), block-aligned in-bounds buffer ranges, and pairwise
// disjointness in both coordinate systems. It runs before anything maps,
// so a segment past the file's end never reaches the layout, which would
// place it in whatever lies beyond the file's extent. Both bounds are
// checked by subtraction, so no segment's end can overflow past them.
// bufLen < 0 means no buffer is bound yet (Map, a batch plan): the
// segments must then only fit in an int64 byte space. Segments that
// arrive ascending in both blocks and buffer — one range, a stream's
// extent, most request lists — are proven disjoint by the first walk
// alone; only a shuffled descriptor pays for the two sorts, of indexes
// kept on the stack up to stackSegs segments.
func (s *Set) checkVec(op string, vec Vec, bufLen int64) error {
	bs := int64(s.store.BlockSize())
	limit := bufLen
	if limit < 0 {
		limit = math.MaxInt64
	}
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
		if sg.BufOff > limit || sg.N > (limit-sg.BufOff)/bs {
			if bufLen < 0 {
				return fmt.Errorf("blockio: %s segment %d: %d blocks at buffer offset %d overflow an int64 byte offset", op, i, sg.N, sg.BufOff)
			}
			return fmt.Errorf("blockio: %s segment %d: %d blocks at buffer offset %d exceed %d-byte buffer", op, i, sg.N, sg.BufOff, bufLen)
		}
		if last >= 0 && (vec[last].Block+vec[last].N > sg.Block || vec[last].BufOff+vec[last].N*bs > sg.BufOff) {
			ordered = false
		}
		last = i
	}
	if ordered {
		return nil
	}
	var stack [stackSegs]int32
	idx := stack[:0] // indices of non-empty segments
	for i, sg := range vec {
		if sg.N > 0 {
			idx = append(idx, int32(i))
		}
	}
	// Ties go to the lower index, so which pair an error names does not
	// depend on the sort.
	slices.SortFunc(idx, func(a, b int32) int { return cmp.Or(cmp.Compare(vec[a].Block, vec[b].Block), cmp.Compare(a, b)) })
	for k := 1; k < len(idx); k++ {
		if p, c := vec[idx[k-1]], vec[idx[k]]; p.Block+p.N > c.Block {
			return fmt.Errorf("blockio: %s segments %d and %d overlap in logical blocks", op, idx[k-1], idx[k])
		}
	}
	slices.SortFunc(idx, func(a, b int32) int { return cmp.Or(cmp.Compare(vec[a].BufOff, vec[b].BufOff), cmp.Compare(a, b)) })
	for k := 1; k < len(idx); k++ {
		if p, c := vec[idx[k-1]], vec[idx[k]]; p.BufOff+p.N*bs > c.BufOff {
			return fmt.Errorf("blockio: %s segments %d and %d overlap in the buffer", op, idx[k-1], idx[k])
		}
	}
	return nil
}

// stackSegs is how many segments of a shuffled descriptor checkVec sorts
// without a heap allocation.
const stackSegs = 64

// MapVec validates vec and decomposes it into gather runs: every segment
// is mapped through the layout, the resulting pieces are sorted by
// physical address, and pieces that are physically adjacent on one
// device merge into a single run even when they come from different
// segments or are logically strided (listio-style coalescing). Physical
// blocks are file-extent relative, like Layout.MapRun. The runs are
// returned in (device, physical block) order.
func (s *Set) MapVec(vec Vec) ([]Run, error) {
	m, _, _, err := s.Map(vec, nil, nil)
	for i := range m.runs {
		m.runs[i].PBlock -= s.base[m.runs[i].Dev]
	}
	return m.runs, err
}

// ReadVec reads the blocks described by vec into buf, scattering each
// segment's blocks at its buffer offset. Physically adjacent pieces —
// across segments, regardless of logical adjacency — coalesce into
// single gather requests, issued in parallel across devices under a
// simulation engine. It is Transfer with the vectored strategy and the
// one-piece space of buf.
func (s *Set) ReadVec(ctx sim.Context, vec Vec, buf []byte) error {
	return s.Transfer(ctx, false, StrategyVectored, vec, Space{{Buf: buf}})
}

// WriteVec writes the blocks described by vec from buf, gathering each
// segment's bytes from its buffer offset — the write counterpart of
// ReadVec.
func (s *Set) WriteVec(ctx sim.Context, vec Vec, buf []byte) error {
	return s.Transfer(ctx, true, StrategyVectored, vec, Space{{Buf: buf}})
}
