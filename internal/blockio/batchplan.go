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
// plan is buffer-less — items' Buf fields are ignored — because the
// windows are staged through bounded buffers that exist only while their
// chunk is in flight; the staging buffer and its base offset are bound
// at issue time.

package blockio

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// BatchPlan is a prepared cross-file batch split into issue windows.
// Build one with BatchVec.Plan; issue windows with ReadWindow and
// WriteWindow. A plan's runs are immutable and it may be issued any
// number of times, in any window order, concurrently under an engine.
type BatchPlan struct {
	store Store
	bs    int64
	wins  [][]planRun
	// iovFree recycles the scatter/gather lists of single-run windows
	// (one per issue in flight), so issuing such a window — a chunk of a
	// drive-aligned domain, every round of a pipelined collective —
	// allocates nothing in steady state.
	iovFree [][][]byte
}

// planRun is one merged physically contiguous gather run of a window.
// Segs hold absolute buffer-space offsets; they are rebased onto the
// caller's staging buffer at issue time.
type planRun struct {
	dev  int
	pb   int64
	n    int64
	segs []Seg
}

// Plan validates and maps the batch once, splitting its physical pieces
// at the given buffer-space offsets so sub-ranges of the plan can be
// issued independently without re-sorting or re-merging. cuts must be
// ascending, block-aligned byte offsets into the items' shared buffer
// space; window w covers the bytes [cuts[w-1], cuts[w]) (window 0 starts
// at 0, the final window is unbounded), and pieces merge only within
// their window. Item Buf fields are ignored: all items' segment offsets
// must address one shared buffer space, supplied per window at issue
// time. An empty cuts list yields a single window equivalent to the
// plain batch.
func (b BatchVec) Plan(cuts []int64) (*BatchPlan, error) {
	if len(b) == 0 {
		return &BatchPlan{wins: make([][]planRun, len(cuts)+1)}, nil
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
	var pieces []bpiece
	var tmp []Run
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
		for _, sg := range it.Vec {
			if sg.N == 0 {
				continue
			}
			tmp = it.Set.layout.MapRun(tmp[:0], sg.Block, sg.N)
			for _, r := range tmp {
				pieces = append(pieces, bpiece{
					dev: r.Dev, pb: it.Set.base[r.Dev] + r.PBlock, n: r.N,
					bufOff: sg.BufOff + (r.B-sg.Block)*bs,
				})
			}
		}
	}
	// Split every piece at the cut offsets it straddles, so each piece
	// lies in exactly one window.
	if len(cuts) > 0 {
		split := make([]bpiece, 0, len(pieces))
		for _, pc := range pieces {
			for {
				i := sort.Search(len(cuts), func(i int) bool { return cuts[i] > pc.bufOff })
				if i == len(cuts) || cuts[i] >= pc.bufOff+pc.n*bs {
					break
				}
				head := (cuts[i] - pc.bufOff) / bs
				split = append(split, bpiece{dev: pc.dev, pb: pc.pb, n: head, bufOff: pc.bufOff})
				pc.pb += head
				pc.n -= head
				pc.bufOff += head * bs
			}
			split = append(split, pc)
		}
		pieces = split
	}
	sort.Slice(pieces, func(i, j int) bool {
		if pieces[i].dev != pieces[j].dev {
			return pieces[i].dev < pieces[j].dev
		}
		return pieces[i].pb < pieces[j].pb
	})
	pl := &BatchPlan{store: store, bs: bs, wins: make([][]planRun, len(cuts)+1)}
	// One sorted walk merges pieces into per-window runs and detects
	// physical overlap globally (two pieces naming one block make the
	// transfer order ambiguous regardless of their windows).
	lastDev, lastEnd := -1, int64(0)
	for _, pc := range pieces {
		if pc.dev == lastDev && pc.pb < lastEnd {
			return nil, fmt.Errorf("blockio: Plan items overlap on device %d at block %d", pc.dev, pc.pb)
		}
		lastDev, lastEnd = pc.dev, pc.pb+pc.n
		w := sort.Search(len(cuts), func(i int) bool { return cuts[i] > pc.bufOff })
		runs := pl.wins[w]
		if k := len(runs) - 1; k >= 0 && runs[k].dev == pc.dev && runs[k].pb+runs[k].n == pc.pb {
			last := &runs[k]
			last.n += pc.n
			if j := len(last.segs) - 1; last.segs[j].BufOff+last.segs[j].Blocks*bs == pc.bufOff {
				last.segs[j].Blocks += pc.n
			} else {
				last.segs = append(last.segs, Seg{BufOff: pc.bufOff, Blocks: pc.n})
			}
			continue
		}
		pl.wins[w] = append(runs, planRun{
			dev: pc.dev, pb: pc.pb, n: pc.n,
			segs: []Seg{{BufOff: pc.bufOff, Blocks: pc.n}},
		})
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
		n += r.n
	}
	return n
}

// ReadWindow reads window w into buf, which stands in for the buffer
// space bytes starting at base: a segment at plan offset o lands at
// buf[o-base:]. Every merged run is one scatter device request; runs
// proceed in parallel across devices under a simulation engine.
func (pl *BatchPlan) ReadWindow(ctx sim.Context, w int, buf []byte, base int64) error {
	return pl.do(ctx, "ReadWindow", w, buf, base, Store.ReadBlocksVec)
}

// WriteWindow writes window w from buf (offset like ReadWindow) — the
// write counterpart.
func (pl *BatchPlan) WriteWindow(ctx sim.Context, w int, buf []byte, base int64) error {
	return pl.do(ctx, "WriteWindow", w, buf, base, Store.WriteBlocksVec)
}

// do issues window w's runs against buf.
func (pl *BatchPlan) do(ctx sim.Context, op string, w int, buf []byte, base int64,
	xfer func(Store, sim.Context, int, int64, int, [][]byte) error) error {
	if w < 0 || w >= len(pl.wins) {
		return fmt.Errorf("blockio: %s window %d of %d", op, w, len(pl.wins))
	}
	runs := pl.wins[w]
	if len(runs) == 0 {
		return nil
	}
	// iov binds run r's segments to buf, appending to out.
	iov := func(r planRun, out [][]byte) ([][]byte, error) {
		for _, sg := range r.segs {
			off := sg.BufOff - base
			if off < 0 || off+sg.Blocks*pl.bs > int64(len(buf)) {
				return nil, fmt.Errorf("blockio: %s window %d: plan bytes [%d,%d) outside the %d-byte buffer at base %d",
					op, w, sg.BufOff, sg.BufOff+sg.Blocks*pl.bs, len(buf), base)
			}
			out = append(out, buf[off:off+sg.Blocks*pl.bs])
		}
		return out, nil
	}
	bp := probeOf(pl.store)
	var t0 time.Duration
	if bp != nil {
		t0 = ctx.Now()
	}
	var err error
	if len(runs) == 1 {
		r := runs[0]
		var scratch [][]byte
		if n := len(pl.iovFree); n > 0 {
			scratch, pl.iovFree[n-1] = pl.iovFree[n-1], nil
			pl.iovFree = pl.iovFree[:n-1]
		}
		io, ierr := iov(r, scratch[:0])
		if ierr != nil {
			return ierr
		}
		err = xfer(pl.store, ctx, r.dev, r.pb, int(r.n), io)
		clear(io)
		pl.iovFree = append(pl.iovFree, io)
	} else {
		fns := make([]func(sim.Context) error, len(runs))
		for i, r := range runs {
			r := r
			io, ierr := iov(r, make([][]byte, 0, len(r.segs)))
			if ierr != nil {
				return ierr
			}
			fns[i] = func(c sim.Context) error {
				return xfer(pl.store, c, r.dev, r.pb, int(r.n), io)
			}
		}
		err = sim.Par(ctx, fns...)
	}
	if bp != nil {
		var blocks int64
		for _, r := range runs {
			blocks += r.n
		}
		nb := blocks * int64(pl.bs)
		bp.batches.Add(1)
		bp.runs.Add(int64(len(runs)))
		bp.bytes.Add(nb)
		bp.rec.Span(bp.trk, "blockio", op, t0, ctx.Now(), nb, 0)
	}
	return err
}
