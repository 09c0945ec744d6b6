package blockio

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// TestBatchPlanWindowedEquivalence: writing a batch window by window
// through a plan (with windows issued out of order and staged through
// per-window buffers) must land exactly the bytes the whole batch written
// as one window lands, across stripe units, and reading the windows back
// must reproduce them.
func TestBatchPlanWindowedEquivalence(t *testing.T) {
	for _, unit := range []int64{1, 2, 8} {
		const devs, perDev = 2, 32
		const blocks = 48 // across 2 files of 24
		sets, _ := newBatchStore(t, devs, unit, perDev, 2)
		bs := int64(sets[0].BlockSize())
		ctx := sim.NewWall()
		rng := rand.New(rand.NewSource(unit))
		whole := make([]byte, blocks*bs)
		rng.Read(whole)
		// Both files fully covered, with buffer offsets permuted
		// relative to block order (7 and 5 are coprime to 24) so plan
		// windows cut across scrambled piece order.
		mkBatch := func() BatchVec {
			var v0, v1 Vec
			for b := int64(0); b < 24; b++ {
				v0 = append(v0, VecSeg{Block: b, N: 1, BufOff: (b * 7 % 24) * bs})
				v1 = append(v1, VecSeg{Block: b, N: 1, BufOff: (24 + b*5%24) * bs})
			}
			return BatchVec{
				{Set: sets[0], Vec: v0},
				{Set: sets[1], Vec: v1},
			}
		}
		// Reference: whole-batch write on a twin store.
		refSets, _ := newBatchStore(t, devs, unit, perDev, 2)
		refBatch := mkBatch()
		for i := range refBatch {
			refBatch[i].Set = refSets[i]
		}
		if err := writeBatch(ctx, refBatch, whole); err != nil {
			t.Fatal(err)
		}

		// Plan with 3 uneven windows, issued out of order through
		// staging copies.
		cuts := []int64{10 * bs, 31 * bs}
		plan, err := mkBatch().Plan(cuts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Windows() != 3 {
			t.Fatalf("Windows = %d, want 3", plan.Windows())
		}
		bounds := [][2]int64{{0, 10 * bs}, {10 * bs, 31 * bs}, {31 * bs, blocks * bs}}
		var totalBlocks int64
		for w := range bounds {
			totalBlocks += plan.WindowBlocks(w)
		}
		if totalBlocks != blocks {
			t.Fatalf("windows cover %d blocks, want %d", totalBlocks, blocks)
		}
		for _, w := range []int{2, 0, 1} {
			lo, hi := bounds[w][0], bounds[w][1]
			stage := make([]byte, hi-lo)
			copy(stage, whole[lo:hi])
			if err := plan.WriteWindows(ctx, w, w+1, Space{{Off: lo, Buf: stage}}); err != nil {
				t.Fatal(err)
			}
		}
		read := func(ss []*Set) []byte {
			out := make([]byte, blocks*bs)
			for f, s := range ss {
				if err := s.ReadVec(ctx, Vec{{Block: 0, N: 24}}, out[int64(f)*24*bs:(int64(f)+1)*24*bs]); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		if got, want := read(sets), read(refSets); !bytes.Equal(got, want) {
			t.Fatalf("unit %d: windowed writes diverge from whole-batch write", unit)
		}

		// Read the windows back through the plan, again out of order.
		for _, w := range []int{1, 2, 0} {
			lo, hi := bounds[w][0], bounds[w][1]
			stage := make([]byte, hi-lo)
			if err := plan.ReadWindows(ctx, w, w+1, Space{{Off: lo, Buf: stage}}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stage, whole[lo:hi]) {
				t.Fatalf("unit %d: window %d read back wrong bytes", unit, w)
			}
		}
	}
}

// TestBatchPlanNoReMerge: a contiguous 2-file batch plans to one run per
// device per window — the merge happens once at Plan time, and cutting
// only splits runs at the window edges.
func TestBatchPlanNoReMerge(t *testing.T) {
	// perDev 8 = exactly the blocks each 16-block file puts on each of
	// the 2 devices, so the two files' extents abut physically.
	const devs, perDev = 2, 8
	sets, disks := newBatchStore(t, devs, 1, perDev, 2)
	bs := int64(sets[0].BlockSize())
	batch := BatchVec{
		{Set: sets[0], Vec: Vec{{Block: 0, N: 16}}},
		{Set: sets[1], Vec: Vec{{Block: 0, N: 16, BufOff: 16 * bs}}},
	}
	// Whole batch: one merged cross-file run per device.
	plan, err := batch.Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.WindowRuns(0); got != devs {
		t.Fatalf("unwindowed plan has %d runs, want %d", got, devs)
	}
	// Four windows: one run per device per window, no other inflation.
	plan4, err := batch.Plan([]int64{8 * bs, 16 * bs, 24 * bs})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < plan4.Windows(); w++ {
		if got := plan4.WindowRuns(w); got != devs {
			t.Fatalf("window %d has %d runs, want %d", w, got, devs)
		}
	}
	ctx := sim.NewWall()
	buf := make([]byte, 8*bs)
	for w := 0; w < plan4.Windows(); w++ {
		if err := plan4.WriteWindows(ctx, w, w+1, Space{{Off: int64(w) * 8 * bs, Buf: buf}}); err != nil {
			t.Fatal(err)
		}
	}
	var reqs int64
	for _, d := range disks {
		reqs += d.Stats().Requests()
	}
	if want := int64(4 * devs); reqs != want {
		t.Fatalf("windowed writes issued %d requests, want %d", reqs, want)
	}
}

// TestBatchPlanErrors covers the validation surface: misaligned and
// unordered cuts, cross-store items, physical overlap across windows,
// and out-of-range staging buffers at issue time.
func TestBatchPlanErrors(t *testing.T) {
	sets, _ := newBatchStore(t, 2, 1, 16, 2)
	bs := int64(sets[0].BlockSize())
	batch := BatchVec{{Set: sets[0], Vec: Vec{{Block: 0, N: 8}}}}
	if _, err := batch.Plan([]int64{bs + 1}); err == nil || !strings.Contains(err.Error(), "block size") {
		t.Errorf("misaligned cut: err = %v", err)
	}
	if _, err := batch.Plan([]int64{4 * bs, 2 * bs}); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Errorf("descending cuts: err = %v", err)
	}
	overlap := BatchVec{
		{Set: sets[0], Vec: Vec{{Block: 0, N: 8}}},
		{Set: sets[0], Vec: Vec{{Block: 4, N: 4, BufOff: 8 * bs}}},
	}
	if _, err := overlap.Plan([]int64{8 * bs}); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("physical overlap across windows: err = %v", err)
	}
	plan, err := batch.Plan([]int64{4 * bs})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	if err := plan.WriteWindows(ctx, 2, 3, nil); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("out-of-range window: err = %v", err)
	}
	// Window 1 covers plan bytes [4bs, 8bs): a 2-block buffer at base
	// 4bs cannot hold it, nor two pieces with a block-sized gap between
	// them, nor a piece that ends part-way into a block, nor pieces out of
	// order.
	for _, sp := range []Space{
		{{Off: 4 * bs, Buf: make([]byte, 2*bs)}},
		{{Off: 4 * bs, Buf: make([]byte, bs)}, {Off: 6 * bs, Buf: make([]byte, 2*bs)}},
		{{Off: 4 * bs, Buf: make([]byte, bs+1)}, {Off: 5*bs + 1, Buf: make([]byte, 3*bs-1)}},
		{{Off: 6 * bs, Buf: make([]byte, 2*bs)}, {Off: 4 * bs, Buf: make([]byte, 2*bs)}},
	} {
		if err := plan.WriteWindows(ctx, 1, 2, sp); err == nil || !strings.Contains(err.Error(), "window 1: plan bytes") {
			t.Errorf("space not covering window 1: err = %v", err)
		}
	}
	// Empty batches plan and issue as no-ops.
	empty, err := BatchVec{}.Plan([]int64{bs})
	if err != nil || empty.Windows() != 2 {
		t.Fatalf("empty batch: %v, windows %d", err, empty.Windows())
	}
	if err := empty.ReadWindows(ctx, 1, 2, nil); err != nil {
		t.Errorf("empty window read: %v", err)
	}
}

// TestBatchPlanWindowRangesUncut: windows issued together are the
// transfer the plan would have been without the cuts between them. For
// every range [w0, w1) of a five-window plan over scrambled buffer
// offsets, the merged runs equal the runs of a plan built from the same
// batch with only the cuts outside the range — device requests, segment
// lists and all — and the range written in one issue costs the drives
// that many requests and lands the same bytes.
func TestBatchPlanWindowRangesUncut(t *testing.T) {
	for _, unit := range []int64{1, 2, 8} {
		const devs, perDev, blocks = 2, 32, 48
		sets, disks := newBatchStore(t, devs, unit, perDev, 2)
		bs := int64(sets[0].BlockSize())
		var v0, v1 Vec
		for b := int64(0); b < 24; b++ {
			v0 = append(v0, VecSeg{Block: b, N: 1, BufOff: (b * 7 % 24) * bs})
			v1 = append(v1, VecSeg{Block: b, N: 1, BufOff: (24 + b*5%24) * bs})
		}
		batch := BatchVec{{Set: sets[0], Vec: v0}, {Set: sets[1], Vec: v1}}
		cuts := []int64{5 * bs, 12 * bs, 30 * bs, 41 * bs}
		plan, err := batch.Plan(cuts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := sim.NewWall()
		buf := make([]byte, blocks*bs)
		rand.New(rand.NewSource(unit)).Read(buf)
		requests := func() (n int64) {
			for _, d := range disks {
				n += d.Stats().Requests()
			}
			return n
		}
		for w0 := 0; w0 < plan.Windows(); w0++ {
			for w1 := w0 + 1; w1 <= plan.Windows(); w1++ {
				// The same batch with the cuts inside [w0, w1) left out:
				// the range is its window w0.
				outer := append(append([]int64(nil), cuts[:w0]...), cuts[w1-1:]...)
				ref, err := batch.Plan(outer)
				if err != nil {
					t.Fatal(err)
				}
				var m mergeScratch
				got, want := m.merge(plan.wins[w0:w1], bs), ref.wins[w0]
				if w1-w0 == 1 {
					got = plan.wins[w0]
				}
				if len(got) != len(want) {
					t.Fatalf("unit %d windows [%d,%d): %d runs merged, %d uncut", unit, w0, w1, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.Dev != w.Dev || g.PBlock != w.PBlock || g.N != w.N || g.B != w.B || !slices.Equal(g.Segs, w.Segs) {
						t.Errorf("unit %d windows [%d,%d) run %d: merged %+v, uncut %+v", unit, w0, w1, i, g, w)
					}
				}
				before := requests()
				if err := plan.WriteWindows(ctx, w0, w1, Space{{Buf: buf}}); err != nil {
					t.Fatal(err)
				}
				if n := requests() - before; n != int64(len(want)) {
					t.Errorf("unit %d windows [%d,%d): %d device requests, the uncut plan has %d runs", unit, w0, w1, n, len(want))
				}
			}
		}
		back := make([]byte, len(buf))
		if err := plan.ReadWindows(ctx, 0, plan.Windows(), Space{{Buf: back}}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, buf) {
			t.Errorf("unit %d: the windows read back together differ from what was written", unit)
		}
		if err := plan.ReadWindows(ctx, 2, 2, Space{{Buf: back}}); err == nil || !strings.Contains(err.Error(), "windows [2,2)") {
			t.Errorf("empty range: %v", err)
		}
	}
}

// FuzzWindowSpace holds a window issued through a buffer space cut into
// pieces — each in its own allocation, so nothing is contiguous — to the
// same window issued through one contiguous buffer: for a seeded layout,
// descriptor, cut and window range, a write through the pieces leaves the
// drives byte for byte as a write through the buffer does on a twin
// machine, and a read through the pieces fills them with the bytes the
// buffer reads. Drop a piece and the window is refused with the coverage
// error, naming the window.
func FuzzWindowSpace(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		devs := 1 + rng.Intn(4)
		twin := func() *dryWorld {
			return newDryWorld(t, rand.New(rand.NewSource(int64(seed))), devs, device.FCFS, false)
		}
		a, b := twin(), twin()
		bs := a.bs
		vec, size := a.vec(rng, 0, a.total)
		if size == 0 {
			return
		}
		var cuts []int64
		for off := bs * (1 + rng.Int63n(8)); off < size; off += bs * (1 + rng.Int63n(8)) {
			cuts = append(cuts, off)
		}
		plans := make([]*BatchPlan, 2)
		for i, w := range []*dryWorld{a, b} {
			var err error
			if plans[i], err = (BatchVec{{Set: w.set, Vec: vec}}).Plan(cuts); err != nil {
				t.Fatal(err)
			}
		}
		w0 := rng.Intn(len(cuts) + 1)
		w1 := w0 + 1 + rng.Intn(len(cuts)+1-w0)
		bounds := append(append([]int64{0}, cuts...), size)
		lo, hi := bounds[w0], bounds[w1]
		data := make([]byte, size)
		rng.Read(data)
		// pieces cuts data[lo:hi] at seeded whole blocks into fresh copies.
		pieces := func(fill bool) Space {
			var sp Space
			for off := lo; off < hi; {
				n := min(bs*(1+rng.Int63n(6)), hi-off)
				buf := make([]byte, n)
				if fill {
					copy(buf, data[off:off+n])
				}
				sp = append(sp, Piece{Off: off, Buf: buf})
				off += n
			}
			return sp
		}
		// Each twin runs its engine once: a writes through the pieces, then
		// reads back through the buffer, through fresh pieces and through
		// pieces with one dropped; b writes through the buffer.
		image := func(p *sim.Proc, w *dryWorld) []byte {
			var img []byte
			for _, d := range w.disks {
				blk := make([]byte, d.Geometry().Blocks()*bs)
				if err := d.ReadBlocksVec(p, 0, int(d.Geometry().Blocks()), [][]byte{blk}); err != nil {
					t.Fatal(err)
				}
				img = append(img, blk...)
			}
			return img
		}
		var imgA, imgB []byte
		whole, sp, wsp := make([]byte, size), pieces(false), pieces(true)
		gap := rng.Intn(len(sp))
		a.e.Go("pieces", func(p *sim.Proc) {
			if err := plans[0].WriteWindows(p, w0, w1, wsp); err != nil {
				t.Fatal(err)
			}
			imgA = image(p, a)
			if err := plans[0].ReadWindows(p, w0, w1, Space{{Buf: whole}}); err != nil {
				t.Fatal(err)
			}
			if err := plans[0].ReadWindows(p, w0, w1, sp); err != nil {
				t.Fatal(err)
			}
			err := plans[0].ReadWindows(p, w0, w1, append(sp[:gap:gap], sp[gap+1:]...))
			named := false
			for w := w0; w < w1 && err != nil; w++ {
				named = named || strings.Contains(err.Error(), fmt.Sprintf("window %d: plan bytes", w))
			}
			if !named || !strings.Contains(err.Error(), "not covered") {
				t.Errorf("seed %d: a space with a gap read windows [%d,%d): %v", seed, w0, w1, err)
			}
		})
		b.e.Go("buffer", func(p *sim.Proc) {
			if err := plans[1].WriteWindows(p, w0, w1, Space{{Buf: data}}); err != nil {
				t.Fatal(err)
			}
			imgB = image(p, b)
		})
		for _, w := range []*dryWorld{a, b} {
			if err := w.e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(imgA, imgB) {
			t.Fatalf("seed %d: windows [%d,%d) written through pieces leave other drive bytes than through one buffer", seed, w0, w1)
		}
		if !bytes.Equal(whole[lo:hi], data[lo:hi]) {
			t.Fatalf("seed %d: windows [%d,%d) read back other bytes than were written", seed, w0, w1)
		}
		for _, pc := range sp {
			if !bytes.Equal(pc.Buf, whole[pc.Off:pc.Off+int64(len(pc.Buf))]) {
				t.Fatalf("seed %d: the piece at %d read other bytes than the buffer", seed, pc.Off)
			}
		}
	})
}

// TestMappedPlanIssuesTheDescriptors: a plan of mapped descriptors
// (MappedPlan) issued whole by one process is the descriptors issued at
// one instant by a process each — the same device requests, to the
// nanosecond the same modeled time, which is the dry price of the
// descriptors walked one by one — on a seeded layout and discipline,
// merging or not, reads over overlapping slices of the file as well as
// disjoint ones. Its windows are whole runs, as many as fit in the
// window bytes (at least one), and the plan moves the bytes between
// each descriptor's blocks and its own buffer.
func TestMappedPlanIssuesTheDescriptors(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		// draw builds the seed's machine and descriptors afresh: the two
		// executions below each get their own identical copy.
		draw := func() (w *dryWorld, maps []Mapped, bufs [][]byte, write bool) {
			rng := rand.New(rand.NewSource(seed))
			sched, merge := device.Sched(rng.Intn(2)), rng.Intn(2) == 1
			w = newDryWorld(t, rng, 1+rng.Intn(3), sched, merge)
			k := 2 + rng.Intn(4)
			write = rng.Intn(2) == 1
			overlap := !write && rng.Intn(2) == 1
			for i := 0; i < k; i++ {
				lo, hi := w.total*int64(i)/int64(k), w.total*int64(i+1)/int64(k)
				if overlap {
					lo, hi = 0, w.total
				}
				vec, size := w.vec(rng, lo, hi)
				m, _, _, err := w.set.Map(vec, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				maps, bufs = append(maps, m), append(bufs, make([]byte, size))
				rng.Read(bufs[i])
			}
			return w, maps, bufs, write
		}
		requests := func(w *dryWorld) (n int64) {
			for _, d := range w.disks {
				n += d.Stats().Requests()
			}
			return n
		}

		each, maps, bufs, write := draw()
		var dry Dry
		dry.Bind(each.store)
		dry.Sync()
		for i := range maps {
			dry.Vectored(maps[i].Runs())
			each.e.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				var err error
				if write {
					err = maps[i].Write(p, StrategyVectored, bufs[i])
				} else {
					err = maps[i].Read(p, StrategyVectored, bufs[i])
				}
				if err != nil {
					t.Error(err)
				}
			})
		}
		price := dry.Flush()
		if err := each.e.Run(); err != nil {
			t.Fatal(err)
		}

		whole, maps, bufs, _ := draw()
		at := make([]int64, len(maps))
		var sp Space
		var off, runs int64
		for i, b := range bufs {
			at[i] = off
			if len(b) > 0 {
				sp = append(sp, Piece{Off: off, Buf: b})
			}
			off += int64(len(b))
			runs += int64(len(maps[i].Runs()))
		}
		window := (1 + seed%4) * whole.bs
		pl, err := MappedPlan(maps, at, window)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		var bytes int64
		for w := 0; w < pl.Windows(); w++ {
			n += pl.WindowRuns(w)
			if wb := pl.WindowBytes(w); wb > window && pl.WindowRuns(w) > 1 {
				t.Errorf("seed %d: window %d moves %d bytes in %d runs, over the %d-byte window", seed, w, wb, pl.WindowRuns(w), window)
			}
			bytes += pl.WindowBytes(w)
		}
		if int64(n) != runs || bytes != pl.Bytes() {
			t.Errorf("seed %d: the plan's windows hold %d runs and %d bytes, the descriptors %d runs, the plan %d bytes", seed, n, bytes, runs, pl.Bytes())
		}
		whole.e.Go("server", func(p *sim.Proc) {
			if write {
				err = pl.WriteWindows(p, 0, pl.Windows(), sp)
			} else {
				err = pl.ReadWindows(p, 0, pl.Windows(), sp)
			}
		})
		if err := whole.e.Run(); err != nil {
			t.Fatal(err)
		}
		if err != nil {
			t.Fatal(err)
		}
		if each.e.Now() != price || whole.e.Now() != price || requests(whole) != requests(each) {
			t.Errorf("seed %d (write %v): a process a descriptor took %v in %d requests, one plan %v in %d, the dry price %v",
				seed, write, each.e.Now(), requests(each), whole.e.Now(), requests(whole), price)
		}
		// Every descriptor's bytes went to or came from its own buffer: what
		// it reads now is what its buffer holds (the bytes written, or the
		// drives' zeros over the seeded fill).
		for i, m := range maps {
			got := make([]byte, len(bufs[i]))
			if err := m.Read(sim.NewWall(), StrategyVectored, got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(bufs[i], got) {
				t.Errorf("seed %d (write %v): descriptor %d's buffer and its blocks differ after the plan", seed, write, i)
			}
		}
	}
}
