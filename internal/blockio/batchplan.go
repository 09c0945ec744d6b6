// Windowed batch plans: a cross-file batch mapped, validated, sorted
// and merged ONCE, then issuable over sub-ranges ("windows") of its
// buffer space without re-planning.
//
// A pipelined collective cuts each aggregator's file domain into chunks
// and accesses one chunk while exchanging the next. Re-running the full
// BatchVec machinery per chunk would re-map, re-sort and re-merge the
// same pieces every round; a BatchPlan instead does that work once, with
// the chunk boundaries known up front: pieces are split at the cut
// offsets, merged only within their window, and bucketed per window, so
// issuing chunk k is a plain walk of its precomputed gather runs. The
// plan is buffer-less: a window is issued against a buffer space
// (issue.go) bound at issue time — one buffer, or the pieces of the
// ranks' own buffers a collective's chunk is made of, so the drives
// gather from and scatter into them with no staging copy. Planning is the map
// stage of the package's one pipeline (mapRuns, batch.go) run with cuts,
// and a window leaves through its one issue loop (issue.go).

package blockio

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/sim"
)

// BatchPlan is a prepared cross-file batch split into issue windows.
// Build one with BatchVec.Plan, or from descriptors already mapped with
// MappedPlan; issue a window, or a range of them as if it had not been
// cut, with Transfer. A plan's runs are immutable and it may be issued
// any number of times, in any window order, concurrently under an engine.
type BatchPlan struct {
	store Store
	bs    int64
	// wins holds each window's gather runs (absolute physical blocks):
	// merged in (device, block) order, or on a plan of mapped descriptors
	// (apart) their runs as mapped, consecutive stretches of runs. Their
	// Segs hold buffer-space offsets, bound to the caller's space at issue
	// time. runs and segs are the arrays they are slices of, which
	// PlanInto reuses.
	wins  [][]Run
	runs  []Run
	segs  []Seg
	apart bool
}

// Plan validates and maps the batch once, splitting its physical pieces
// at the given buffer-space offsets so sub-ranges of the plan can be
// issued independently without re-sorting or re-merging. cuts must be
// ascending, block-aligned byte offsets into the items' shared buffer
// space; window w covers the bytes [cuts[w-1], cuts[w]) (window 0 starts
// at 0, the final window is unbounded), and pieces merge only within
// their window. All items' segment offsets address one shared buffer
// space, supplied per window at issue time. An empty cuts list yields a
// single window: the whole batch.
func (b BatchVec) Plan(cuts []int64) (*BatchPlan, error) {
	pl := new(BatchPlan)
	if err := b.PlanInto(pl, cuts); err != nil {
		return nil, err
	}
	return pl, nil
}

// PlanInto is Plan into dst, whose storage it reuses: a plan made only
// to be looked at — priced, then dropped — is made call after call in
// one memory. What dst held before is gone, so nothing may still issue
// it; after an error dst holds nothing to issue.
func (b BatchVec) PlanInto(dst *BatchPlan, cuts []int64) error {
	dst.wins = slices.Grow(dst.wins[:0], len(cuts)+1)[:len(cuts)+1]
	clear(dst.wins)
	dst.apart = false
	if len(b) == 0 {
		return nil
	}
	if b[0].Set == nil {
		return fmt.Errorf("blockio: Plan item 0 has no Set")
	}
	store := b[0].Set.store
	bs := int64(store.BlockSize())
	for i, c := range cuts {
		if c <= 0 || c%bs != 0 {
			return fmt.Errorf("blockio: Plan cut %d at %d not a positive multiple of the %d-byte block size", i, c, bs)
		}
		if i > 0 && c <= cuts[i-1] {
			return fmt.Errorf("blockio: Plan cuts not ascending at %d", i)
		}
	}
	for i, it := range b {
		if it.Set == nil {
			return fmt.Errorf("blockio: Plan item %d has no Set", i)
		}
		if it.Set.store != store {
			return fmt.Errorf("blockio: Plan item %d is on a different store", i)
		}
		if it.Set.checkVec("Plan", it.Vec, -1) != nil {
			// Checked again to name the item: only a refused plan formats it.
			return it.Set.checkVec(fmt.Sprintf("Plan item %d", i), it.Vec, -1)
		}
	}
	s := mapPool.Get().(*mapScratch)
	defer mapPool.Put(s)
	runs, segs, bounds, err := s.mapRuns("Plan", b, cuts, bs, dst.runs[:0], dst.segs[:0])
	if err != nil {
		return err
	}
	dst.store, dst.bs, dst.runs, dst.segs = store, bs, runs, segs
	if bounds == nil {
		dst.wins[0] = runs
	}
	for w := range bounds[:max(len(bounds)-1, 0)] {
		dst.wins[w] = runs[bounds[w]:bounds[w+1]:bounds[w+1]]
	}
	return nil
}

// MappedPlan prepares mapped descriptors as one plan that issues exactly
// their runs: nothing is sorted or merged, so no run of one descriptor
// joins a run of another — joining them is work a caller may have to pay
// for elsewhere (a collective's exchange), not something the issue gives
// away. Descriptor i's segments address the plan's buffer space at
// offset at[i]. The runs go out in the order the drives would receive
// them were every descriptor issued at one instant by a process of its
// own (Direct.Transfer): every descriptor's first run, then the others,
// descriptor by descriptor — the order Dry.Vectored queues them in, so a
// dry issue of the descriptors one by one prices the plan issued whole.
// window > 0 cuts the plan between runs, each window as many whole runs
// as fit in window bytes (at least one); windows issued together are
// their runs back to back, one transfer. 0: one window.
func MappedPlan(ms []Mapped, at []int64, window int64) (*BatchPlan, error) {
	pl := &BatchPlan{apart: true}
	nrun, nseg := 0, 0
	for i, m := range ms {
		if m.set == nil {
			continue
		}
		switch {
		case pl.store == nil:
			pl.store, pl.bs = m.set.store, int64(m.set.store.BlockSize())
		case m.set.store != pl.store:
			return nil, fmt.Errorf("blockio: MappedPlan descriptor %d is on a different store", i)
		}
		nrun += len(m.runs)
		for _, r := range m.runs {
			nseg += len(r.Segs)
		}
	}
	pl.runs, pl.segs = make([]Run, 0, nrun), make([]Seg, 0, nseg)
	add := func(r Run, off int64) {
		s0 := len(pl.segs)
		for _, sg := range r.Segs {
			pl.segs = append(pl.segs, Seg{BufOff: sg.BufOff + off, Blocks: sg.Blocks})
		}
		r.Segs = pl.segs[s0:len(pl.segs):len(pl.segs)]
		pl.runs = append(pl.runs, r)
	}
	for i, m := range ms {
		if len(m.runs) > 0 {
			add(m.runs[0], at[i])
		}
	}
	for i, m := range ms {
		for j := 1; j < len(m.runs); j++ {
			add(m.runs[j], at[i])
		}
	}
	lo, bytes := 0, int64(0)
	for i, r := range pl.runs {
		if n := r.N * pl.bs; window > 0 && i > lo && bytes+n > window {
			pl.wins = append(pl.wins, pl.runs[lo:i:i])
			lo, bytes = i, 0
		}
		bytes += r.N * pl.bs
	}
	pl.wins = append(pl.wins, pl.runs[lo:len(pl.runs):len(pl.runs)])
	return pl, nil
}

// Footprint is where the whole batch lies on the store's devices: the
// plan's runs as if it had no cuts, without their segments, into dst —
// device i's are dst[at[i]:at[i+1]], ascending, neighbours joined. at
// has one entry per device and one more; both tables are reused where
// they have the room. The runs are bucketed by device in one counting
// pass; a device whose runs come out of the windows in block order —
// windows that follow one another on it — needs no sort.
func (pl *BatchPlan) Footprint(dst []Run, at []int) ([]Run, []int) {
	nd := 0
	if pl.store != nil {
		nd = pl.store.Devices()
	}
	at = slices.Grow(at[:0], nd+1)[:nd+1]
	clear(at)
	for _, w := range pl.wins {
		for _, r := range w {
			at[r.Dev+1]++
		}
	}
	for i := 1; i <= nd; i++ {
		at[i] += at[i-1]
	}
	dst = slices.Grow(dst[:0], at[nd])[:at[nd]]
	for _, w := range pl.wins { // at[i] ends up where device i+1's start
		for _, r := range w {
			dst[at[r.Dev]] = Run{Dev: r.Dev, PBlock: r.PBlock, N: r.N}
			at[r.Dev]++
		}
	}
	copy(at[1:], at[:nd])
	at[0] = 0
	out := 0
	for i := range nd {
		runs := dst[at[i]:at[i+1]]
		if !slices.IsSortedFunc(runs, byPBlock) {
			slices.SortFunc(runs, byPBlock)
		}
		at[i] = out
		for _, r := range runs {
			if k := out - 1; out > at[i] && dst[k].PBlock+dst[k].N == r.PBlock {
				dst[k].N += r.N
			} else {
				dst[out] = r
				out++
			}
		}
	}
	at[nd] = out
	return dst[:out], at
}

func byPBlock(a, b Run) int { return cmp.Compare(a.PBlock, b.PBlock) }

// Windows reports the number of issue windows.
func (pl *BatchPlan) Windows() int { return len(pl.wins) }

// WindowBlocks reports the total blocks window w transfers.
func (pl *BatchPlan) WindowBlocks(w int) int64 {
	var n int64
	for _, r := range pl.wins[w] {
		n += r.N
	}
	return n
}

// WindowBytes reports the bytes window w transfers.
func (pl *BatchPlan) WindowBytes(w int) int64 { return pl.WindowBlocks(w) * pl.bs }

// Bytes reports the bytes the whole plan transfers.
func (pl *BatchPlan) Bytes() int64 {
	var n int64
	for w := range pl.wins {
		n += pl.WindowBytes(w)
	}
	return n
}

// Transfer moves the windows [w0, w1) between the drives and the buffer
// space sp — into sp, or with write out of it: a segment at plan offset
// o lies at space offset o, and sp must cover every segment of those
// windows in whole blocks. Every merged run is one device request; runs
// proceed in parallel across devices under a simulation engine. Windows
// issued together go out as if the cuts between them had not been made:
// runs of different windows that are neighbours on a drive are one
// device request (joined in pooled scratch that lives until the issue
// returns), so every window of a plan issued together is exactly the
// uncut plan's transfer. This is how a server that cuts a call into
// windows only to be able to stop between them (ioserver) pays nothing
// for the cuts it does not use. A plan of mapped descriptors
// (MappedPlan) joins nothing: its windows issued together are their runs
// back to back.
func (pl *BatchPlan) Transfer(ctx sim.Context, write bool, w0, w1 int, sp Space) error {
	op := "ReadWindow"
	if write {
		op = "WriteWindow"
	}
	if w0 < 0 || w0 >= w1 || w1 > len(pl.wins) {
		return fmt.Errorf("blockio: %s windows [%d,%d) of %d", op, w0, w1, len(pl.wins))
	}
	for w := w0; w < w1; w++ {
		for _, r := range pl.wins[w] {
			for _, sg := range r.Segs {
				if !sp.bind(sg.BufOff, sg.Blocks*pl.bs, pl.bs, nil) {
					return fmt.Errorf("blockio: %s window %d: plan bytes [%d,%d) not covered by whole blocks of the buffer space",
						op, w, sg.BufOff, sg.BufOff+sg.Blocks*pl.bs)
				}
			}
		}
	}
	if w1-w0 == 1 {
		return issue(ctx, pl.store, op, write, pl.wins[w0], sp, nil)
	}
	if pl.apart {
		lo := 0
		for _, w := range pl.wins[:w0] {
			lo += len(w)
		}
		hi := lo
		for _, w := range pl.wins[w0:w1] {
			hi += len(w)
		}
		return issue(ctx, pl.store, op, write, pl.runs[lo:hi], sp, nil)
	}
	m := mergePool.Get().(*mergeScratch)
	err := issue(ctx, pl.store, op, write, m.merge(pl.wins[w0:w1], pl.bs), sp, nil)
	mergePool.Put(m)
	return err
}

// mergeScratch holds the runs of several windows joined for one issue.
type mergeScratch struct {
	runs []Run
	segs []Seg
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

// merge undoes the cuts between wins: their runs in (device, physical
// block) order, runs that are neighbours on a drive joined, and where
// the join is also one in the buffer — a piece Plan split at a cut — the
// two segments joined too. What comes back is what mapRuns would have
// returned had those cuts not been given; it aliases the scratch.
func (m *mergeScratch) merge(wins [][]Run, bs int64) []Run {
	m.runs = m.runs[:0]
	nsg := 0
	for _, runs := range wins {
		m.runs = append(m.runs, runs...)
		for _, r := range runs {
			nsg += len(r.Segs)
		}
	}
	// Each window's runs are sorted already and a cut call is a handful
	// of windows: the sort sees a few ascending stretches.
	slices.SortFunc(m.runs, func(a, b Run) int {
		if a.Dev != b.Dev {
			return cmp.Compare(a.Dev, b.Dev)
		}
		return cmp.Compare(a.PBlock, b.PBlock)
	})
	// The joined runs' Segs are slices of one array that never moves
	// while they are built: it is sized for every segment up front.
	m.segs = slices.Grow(m.segs[:0], nsg)
	out := m.runs[:0]
	first := 0 // index in m.segs of the growing run's first segment
	for _, r := range m.runs {
		segs := r.Segs
		if k := len(out) - 1; k >= 0 && out[k].Dev == r.Dev && out[k].PBlock+out[k].N == r.PBlock {
			if last := &m.segs[len(m.segs)-1]; last.BufOff+last.Blocks*bs == segs[0].BufOff {
				last.Blocks += segs[0].Blocks
				segs = segs[1:]
			}
			out[k].N += r.N
		} else {
			first = len(m.segs)
			out = append(out, r)
		}
		m.segs = append(m.segs, segs...)
		out[len(out)-1].Segs = m.segs[first:len(m.segs):len(m.segs)]
	}
	m.runs = out
	return out
}
