// Map: the second stage of the transfer pipeline (describe → map →
// transform → issue), and the cross-file request list it is general
// enough for.
//
// A Vec coalesces pieces that land physically adjacent on one device, but
// only within a single file: each Set adds its own extent base, so two
// files whose extents abut — a checkpoint set written file-per-process,
// or the file domains of a two-phase collective — still issue separate
// requests even when their blocks are neighbors on the platter. A
// BatchVec lifts the merge above the file boundary: every item's segments
// are mapped through its own Set into absolute physical addresses, the
// pieces are sorted device-major and merged across items, and each merged
// run transfers as ONE device request gathering from (scattering into)
// the items' shared buffer space. One file's descriptor is the one-item
// case (Set.MapVec), the whole batch the one-window case of a BatchPlan
// (batchplan.go): there is one mapper, mapRuns, and it serves them all.

package blockio

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// BatchItem is one file's contribution to a cross-file batch: a
// scatter/gather descriptor against Set. The segment offsets of all
// items of a batch address one shared buffer space, supplied when a
// window of the batch's plan is issued.
type BatchItem struct {
	Set *Set
	Vec Vec
}

// BatchVec is a cross-file scatter/gather request list. All items' Sets
// must share one Store (the same device array — Sets of one Volume
// qualify); pieces that are physically adjacent on a device merge into
// single gather requests even across items. Prepare it with Plan, issue
// it with BatchPlan.Transfer.
type BatchVec []BatchItem

// piece is one physical fragment of a descriptor before merging: n blocks
// at absolute physical block pb of device dev, holding the logical blocks
// [b, b+n) of their Set and moving the buffer-space bytes
// [bufOff, bufOff+n×bs), all inside window win.
type piece struct {
	dev    int
	pb     int64
	b      int64
	n      int64
	bufOff int64
	win    int
}

// mapScratch is the mapper's pooled working state: the unsorted piece
// list, the per-segment MapRun scratch, the window bounds of a cut batch,
// and the runs and segments of a transfer that is issued before the
// scratch goes back (Set.Transfer).
type mapScratch struct {
	pieces, sorted []piece
	tmp            []Run
	bounds, at     []int
	runs           []Run
	segs           []Seg
}

// byDevBlock orders pieces by device, then physical block.
func byDevBlock(x, y piece) int {
	if x.dev != y.dev {
		return cmp.Compare(x.dev, y.dev)
	}
	return cmp.Compare(x.pb, y.pb)
}

// sort orders the pieces by device, then physical block. Most lists
// come in that order already (one rank's ascending request) and are
// left as they are. A layout that maps ascending segments — a stripe,
// the covered footprint of a collective — hands them interleaved across
// the devices but ascending on each: a stable counting pass on the
// device leaves every device's pieces in order, and a typed sort is
// left to the devices where they are not.
func (s *mapScratch) sort() {
	ps := s.pieces
	nd, sorted := 0, true
	for i, pc := range ps {
		nd = max(nd, pc.dev+1)
		sorted = sorted && (i == 0 || byDevBlock(ps[i-1], pc) <= 0)
	}
	if sorted {
		return
	}
	s.at = slices.Grow(s.at[:0], nd+1)[:nd+1]
	clear(s.at)
	for _, pc := range ps {
		s.at[pc.dev+1]++
	}
	for d := 1; d <= nd; d++ {
		s.at[d] += s.at[d-1]
	}
	out := slices.Grow(s.sorted[:0], len(ps))[:len(ps)]
	for _, pc := range ps {
		out[s.at[pc.dev]] = pc
		s.at[pc.dev]++
	}
	// s.at[d] is now where device d's pieces end.
	lo := 0
	for _, hi := range s.at[:nd] {
		for i := lo + 1; i < hi; i++ {
			if out[i].pb < out[i-1].pb {
				slices.SortFunc(out[lo:hi], byDevBlock)
				break
			}
		}
		lo = hi
	}
	s.pieces, s.sorted = out, ps
}

var mapPool = sync.Pool{New: func() any { return new(mapScratch) }}

// mapRuns is the package's one map → split → sort → merge. Every
// segment of every item goes through its Set's layout into absolute
// physical pieces; a piece straddling one of the buffer-space cuts is
// split there, so each lies in one window (window w covers the bytes
// [cuts[w-1], cuts[w])); the pieces are sorted by (device, physical
// block); and pieces that are physically adjacent on one device and in
// one window merge into a single gather run even when they come from
// different segments or items or are logically strided (listio-style
// coalescing). Without cuts the runs come back in (device, physical block)
// order; with cuts they come back window by window, each window's in that
// order — window w is runs[bounds[w]:bounds[w+1]]. Items must have been
// validated (checkVec); what only the sorted walk can see — two pieces
// naming one physical block, which makes the transfer order ambiguous
// whatever their windows — is rejected here. It runs on pooled scratch
// s, which holds the window bounds it returns until s goes back. It
// appends the runs to runs and their segments to segs, growing each once
// at most, and returns both: the new runs are runs[len(runs):] of what
// was passed. Passing nil allocates them exactly for the caller to keep;
// passing s's own recycles them from the last such call (Set.Transfer),
// a plan's its own (BatchVec.PlanInto), and a caller's arena with room
// left fills it (Set.Map).
func (s *mapScratch) mapRuns(op string, items BatchVec, cuts []int64, bs int64, runs []Run, segs []Seg) ([]Run, []Seg, []int, error) {
	var bounds []int
	s.pieces = s.pieces[:0]
	for _, it := range items {
		for _, sg := range it.Vec {
			if sg.N == 0 {
				continue
			}
			s.tmp = it.Set.layout.MapRun(s.tmp[:0], sg.Block, sg.N)
			for _, r := range s.tmp {
				s.pieces = append(s.pieces, piece{
					dev: r.Dev, pb: it.Set.base[r.Dev] + r.PBlock, b: r.B, n: r.N,
					bufOff: sg.BufOff + (r.B-sg.Block)*bs,
				})
			}
		}
	}
	if len(cuts) > 0 {
		// A split piece's tail goes to the end of the list and is looked
		// at in its turn, so a piece spanning several cuts splits at each.
		w := 0 // the last piece's window: pieces mostly come in buffer order
		for i := 0; i < len(s.pieces); i++ {
			pc := &s.pieces[i]
			if w > 0 && cuts[w-1] > pc.bufOff || w < len(cuts) && cuts[w] <= pc.bufOff {
				w = sort.Search(len(cuts), func(k int) bool { return cuts[k] > pc.bufOff })
			}
			pc.win = w
			if pc.win < len(cuts) && cuts[pc.win] < pc.bufOff+pc.n*bs {
				head := (cuts[pc.win] - pc.bufOff) / bs
				tail := *pc
				tail.pb, tail.b, tail.n, tail.bufOff = pc.pb+head, pc.b+head, pc.n-head, pc.bufOff+head*bs
				pc.n = head
				s.pieces = append(s.pieces, tail)
			}
		}
		s.bounds = slices.Grow(s.bounds[:0], len(cuts)+3)[:len(cuts)+3]
		clear(s.bounds)
		bounds = s.bounds
	}
	s.sort()
	// Two walks of the sorted pieces: the first sizes the result exactly
	// (and finds overlap), the second fills it. The runs' Segs are slices
	// of one array: a piece can only join the piece sorted right before
	// it, so a run's segments are always the array's tail while it grows.
	nr, nsg := 0, 0
	for i := range s.pieces {
		pc := &s.pieces[i]
		if i > 0 && s.pieces[i-1].dev == pc.dev && s.pieces[i-1].pb+s.pieces[i-1].n > pc.pb {
			return runs, segs, nil, fmt.Errorf("blockio: %s items overlap on device %d at block %d", op, pc.dev, pc.pb)
		}
		run, seg := s.joins(i, bs)
		if !run {
			nr++
			if bounds != nil {
				bounds[pc.win+2]++
			}
		}
		if !seg {
			nsg++
		}
	}
	// bounds[w+2] counts window w's runs; summed from the front,
	// bounds[w+1] is where window w starts — and, bumped for every run
	// the fill places there, ends up where it ends, so that afterwards
	// window w is runs[bounds[w]:bounds[w+1]].
	for w := 2; w < len(bounds); w++ {
		bounds[w] += bounds[w-1]
	}
	r0 := len(runs)
	runs, segs = slices.Grow(runs, nr)[:r0+nr], slices.Grow(segs, nsg)
	mine := runs[r0:]
	var last *Run
	first, placed := 0, 0 // the growing run's first segment in segs; runs placed so far
	for i, pc := range s.pieces {
		run, seg := s.joins(i, bs)
		if seg {
			segs[len(segs)-1].Blocks += pc.n
		} else {
			segs = append(segs, Seg{BufOff: pc.bufOff, Blocks: pc.n})
		}
		if !run {
			first = len(segs) - 1
			at := placed
			if bounds != nil {
				at = bounds[pc.win+1]
				bounds[pc.win+1]++
			}
			placed++
			last = &mine[at]
			*last = Run{Dev: pc.dev, PBlock: pc.pb, B: pc.b}
		}
		last.N += pc.n
		last.Segs = segs[first:len(segs):len(segs)]
	}
	if bounds != nil {
		bounds = bounds[:len(cuts)+2]
	}
	return runs, segs, bounds, nil
}

// joins reports whether sorted piece i extends the run of piece i-1
// (same device and window, physically adjacent) and, if so, whether it
// also extends that run's last segment (adjacent in the buffer too).
func (s *mapScratch) joins(i int, bs int64) (run, seg bool) {
	if i == 0 {
		return false, false
	}
	prev, pc := &s.pieces[i-1], &s.pieces[i]
	run = prev.dev == pc.dev && prev.pb+prev.n == pc.pb && prev.win == pc.win
	return run, run && prev.bufOff+prev.n*bs == pc.bufOff
}
