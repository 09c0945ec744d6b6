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
// plan is buffer-less because the windows are staged through bounded
// buffers that exist only while their chunk is in flight; the staging
// buffer and its base offset are bound at issue time. Planning is the map
// stage of the package's one pipeline (mapRuns, batch.go) run with cuts,
// and a window leaves through its one issue loop (issue.go).

package blockio

import (
	"fmt"

	"repro/internal/sim"
)

// BatchPlan is a prepared cross-file batch split into issue windows.
// Build one with BatchVec.Plan; issue windows with ReadWindow and
// WriteWindow. A plan's runs are immutable and it may be issued any
// number of times, in any window order, concurrently under an engine.
type BatchPlan struct {
	store Store
	bs    int64
	// wins holds each window's merged gather runs (absolute physical
	// blocks). Their Segs hold buffer-space offsets; they are rebased onto
	// the caller's staging buffer at issue time.
	wins [][]Run
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
	if len(b) == 0 {
		return &BatchPlan{wins: make([][]Run, len(cuts)+1)}, nil
	}
	if b[0].Set == nil {
		return nil, fmt.Errorf("blockio: Plan item 0 has no Set")
	}
	store := b[0].Set.store
	bs := int64(store.BlockSize())
	for i, c := range cuts {
		if c <= 0 || c%bs != 0 {
			return nil, fmt.Errorf("blockio: Plan cut %d at %d not a positive multiple of the %d-byte block size", i, c, bs)
		}
		if i > 0 && c <= cuts[i-1] {
			return nil, fmt.Errorf("blockio: Plan cuts not ascending at %d", i)
		}
	}
	for i, it := range b {
		if it.Set == nil {
			return nil, fmt.Errorf("blockio: Plan item %d has no Set", i)
		}
		if it.Set.store != store {
			return nil, fmt.Errorf("blockio: Plan item %d is on a different store", i)
		}
		if err := it.Set.checkVec(fmt.Sprintf("Plan item %d", i), it.Vec, -1); err != nil {
			return nil, err
		}
	}
	runs, win, err := mapRuns("Plan", b, cuts, bs)
	if err != nil {
		return nil, err
	}
	pl := &BatchPlan{store: store, bs: bs, wins: make([][]Run, len(cuts)+1)}
	if win == nil {
		pl.wins[0] = runs
	}
	for i, w := range win {
		pl.wins[w] = append(pl.wins[w], runs[i])
	}
	return pl, nil
}

// Windows reports the number of issue windows (len(cuts)+1).
func (pl *BatchPlan) Windows() int { return len(pl.wins) }

// WindowRuns reports how many device requests window w issues
// (diagnostics and tests).
func (pl *BatchPlan) WindowRuns(w int) int { return len(pl.wins[w]) }

// WindowBlocks reports the total blocks window w transfers.
func (pl *BatchPlan) WindowBlocks(w int) int64 {
	var n int64
	for _, r := range pl.wins[w] {
		n += r.N
	}
	return n
}

// ReadWindow reads window w into buf, which stands in for the buffer
// space bytes starting at base: a segment at plan offset o lands at
// buf[o-base:]. Every merged run is one scatter device request; runs
// proceed in parallel across devices under a simulation engine.
func (pl *BatchPlan) ReadWindow(ctx sim.Context, w int, buf []byte, base int64) error {
	return pl.window(ctx, "ReadWindow", false, w, buf, base)
}

// WriteWindow writes window w from buf (offset like ReadWindow) — the
// write counterpart.
func (pl *BatchPlan) WriteWindow(ctx sim.Context, w int, buf []byte, base int64) error {
	return pl.window(ctx, "WriteWindow", true, w, buf, base)
}

// window checks that buf holds every segment of window w, then issues
// the window's runs.
func (pl *BatchPlan) window(ctx sim.Context, op string, write bool, w int, buf []byte, base int64) error {
	if w < 0 || w >= len(pl.wins) {
		return fmt.Errorf("blockio: %s window %d of %d", op, w, len(pl.wins))
	}
	for _, r := range pl.wins[w] {
		for _, sg := range r.Segs {
			if off := sg.BufOff - base; off < 0 || off+sg.Blocks*pl.bs > int64(len(buf)) {
				return fmt.Errorf("blockio: %s window %d: plan bytes [%d,%d) outside the %d-byte buffer at base %d",
					op, w, sg.BufOff, sg.BufOff+sg.Blocks*pl.bs, len(buf), base)
			}
		}
	}
	return issue(ctx, pl.store, op, write, pl.wins[w], buf, base, nil)
}
