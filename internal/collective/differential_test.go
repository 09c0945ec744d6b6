// Randomized differential test harness: seeded workload generators
// drive collective, vectored and extent writes and reads across the
// full store-kind × layout matrix, and every scenario's final byte
// image — plus every mid-run read buffer — is checked against a simple
// serial reference model (a flat byte array updated phase by phase).
//
// The reference model is deliberately dumb: it knows nothing about
// domains, aggregators, exchange payloads, coalescing or redundancy, so
// any divergence localizes a bug in the optimized data path. Failures
// print the scenario seed; replay with
//
//	go test -run 'TestDifferential/seed=N' ./internal/collective
package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// diffContent is the deterministic byte written at offset i of global
// block gb by rank in phase — the generator fills buffers with it and
// the reference model records it, so matching is exact.
func diffContent(seed int64, phase, rank int, gb, i int64) byte {
	return byte(seed*131 + int64(phase)*31 + int64(rank)*17 + gb*7 + i*3 + 1)
}

// Phase kinds. Collective phases go through the two-phase engine — in
// one round, or pipelined through a chunked handle (the scenario's
// randomized ChunkBytes, including single-block chunks and chunks
// larger than any domain) — while vectored and extent phases go through
// the independent per-rank paths, so the harness cross-checks every
// generation of the data path against one reference.
const (
	diffCollectiveWrite = iota
	diffCollectiveRead
	diffPipelinedWrite
	diffPipelinedRead
	diffVectoredWrite
	diffExtentWrite
	diffExtentRead
	// Sieved phases hit the data-sieving paths directly (independent
	// per-rank transfers under StrategySieved — the read-modify-write and
	// covering-span scatter against the same reference as everything
	// else); auto phases go through a collective handle with
	// Strategy: Auto — unbounded (ChunkBytes 0) or bounded by the
	// scenario's ChunkBytes, by seed — so whichever route and pipeline
	// depth its prices pick for the scenario's machine must produce
	// reference-identical bytes.
	diffSievedWrite
	diffSievedRead
	diffAutoWrite
	diffAutoRead
	// Replay phases exercise the schedule cache (PR 10): the same
	// request lists issued several consecutive iterations with mutated
	// buffer contents through a cache-enabled handle — iterations 2+
	// replay the captured schedule — then cross-checked by re-issuing
	// through a fresh-plan handle, whose schedules are dropped before
	// every call, against the same reference.
	diffReplayWrite
	diffReplayRead
	// Aligned phases run the two-phase engine on the drive-aligned
	// partition (plan.aligned), which only StrategyAuto's pricing would
	// otherwise select: handles with the in-package forcePart hook set,
	// unbounded on even phases (ChunkBytes 0: one round, or every domain
	// cut in 2 or 4 by the seed) and chunked (the scenario's ChunkBytes,
	// every chunk cut in 2, 4, 8 or 16 by the seed, so the ranks that own
	// no domain post up to sixteen rounds at once) on odd ones, every other
	// pair of them on a ramped round table (rounds growing, or shrinking)
	// instead of the equal one. The phases
	// around them run on the logical partition, so an aligned write is
	// read back by logical reads and the reverse, and every image is
	// diffed against the same serial reference — across the store kinds,
	// layouts, multi-file groups, aggregator counts below, at and above
	// the drive count, ragged domains and rejected overlaps the
	// scenarios already sweep.
	diffAlignedWrite
	diffAlignedRead
	diffKinds
)

var diffKindNames = [...]string{"cwrite", "cread", "pwrite", "pread", "vwrite", "ewrite", "eread",
	"swrite", "sread", "awrite", "aread", "rwrite", "rread", "lwrite", "lread"}

// diffReplayReps is how many consecutive iterations a replay phase
// issues its request lists (first plans, the rest replay).
const diffReplayReps = 3

// diffReplayKey spreads a replay iteration's content key away from the
// plain phase indexes (< nPhases ≤ 6), so no two writes collide.
func diffReplayKey(ph, it int) int { return 100 + ph*diffReplayReps + it }

// diffPhase is one precomputed phase: per-rank request lists and
// buffers (pre-filled for writes, pre-sized with expected images for
// reads). Everything is generated up front from the seed; execution
// only moves bytes.
type diffPhase struct {
	kind   int
	reqs   [][]VecReq
	bufs   [][]byte
	expect [][]byte   // read kinds: wanted buffer contents after the phase
	iters  [][][]byte // replay write: per-iteration per-rank buffers
	// overlap and overlapBufs, for a collective write, are the phase's
	// writes with a second rank on some blocks: a call every route must
	// refuse, leaving the files as image, what the phase finds there.
	overlap     [][]VecReq
	overlapBufs [][]byte
	image       []byte
}

// diffScenario is one generated workload plus its reference image.
type diffScenario struct {
	seed       int64
	kind       storeKind
	place      int
	nRanks     int
	opts       Options
	overlaps   bool  // collective write phases first try a cross-rank overlap
	chunkBytes int64 // pipelined phases' ChunkBytes
	linkMode   int   // 0 free, 1 per-process, 2 per-process + bisection
	geom       *fileGroupInfo
	phases     []diffPhase
	ref        []byte // expected final image of the whole group
}

// rankSegments converts a per-block writer assignment into each rank's
// VecReqs: consecutive blocks owned by the same rank coalesce into
// segments, segments split at file boundaries, and buffer offsets are
// assigned in shuffled segment order so logical order and buffer order
// differ. Returns the reqs and each rank's (unfilled) buffer.
func rankSegments(rng *rand.Rand, g *fileGroupInfo, owners [][]int, nRanks int) ([][]VecReq, [][]byte) {
	type seg struct{ gb, n int64 }
	perRank := make([][]seg, nRanks)
	for r := 0; r < nRanks; r++ {
		var cur *seg
		for gb := int64(0); gb < g.total; gb++ {
			mine := false
			for _, w := range owners[gb] {
				if w == r {
					mine = true
				}
			}
			// Segments must not straddle file boundaries (VecReqs are
			// per-file), so force a break on each file's first block.
			if mine && cur != nil && cur.gb+cur.n == gb && !g.isFileStart(gb) {
				cur.n++
				continue
			}
			cur = nil
			if mine {
				perRank[r] = append(perRank[r], seg{gb: gb, n: 1})
				cur = &perRank[r][len(perRank[r])-1]
			}
		}
	}
	reqs := make([][]VecReq, nRanks)
	bufs := make([][]byte, nRanks)
	for r := 0; r < nRanks; r++ {
		segs := perRank[r]
		order := rng.Perm(len(segs))
		offs := make([]int64, len(segs))
		var off int64
		for _, si := range order {
			offs[si] = off
			off += segs[si].n * testBS
		}
		bufs[r] = make([]byte, off)
		byFile := make(map[int]blockio.Vec)
		for si, sg := range segs {
			file, blk := g.locate(sg.gb)
			byFile[file] = append(byFile[file], blockio.VecSeg{Block: blk, N: sg.n, BufOff: offs[si]})
		}
		for f := 0; f < g.nFiles; f++ {
			if v := byFile[f]; len(v) > 0 {
				reqs[r] = append(reqs[r], VecReq{File: f, Vec: v})
			}
		}
	}
	return reqs, bufs
}

// fileGroupInfo carries just the geometry the generator needs, so
// generation never touches simulator state.
type fileGroupInfo struct {
	nFiles int
	sizes  []int64
	offs   []int64
	total  int64
}

func (g *fileGroupInfo) locate(gb int64) (file int, block int64) {
	for f := g.nFiles - 1; f >= 0; f-- {
		if gb >= g.offs[f] {
			return f, gb - g.offs[f]
		}
	}
	return 0, gb
}

func (g *fileGroupInfo) isFileStart(gb int64) bool {
	for _, off := range g.offs {
		if gb == off {
			return true
		}
	}
	return false
}

// genScenario derives a full scenario from its seed: machine shape,
// collective options, and a phase list whose effects are folded into
// the serial reference image as they are generated.
func genScenario(seed int64) *diffScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &diffScenario{
		seed:   seed,
		kind:   storeKind(seed % 3), // seeds 0..8 sweep the 3×3 matrix
		place:  int(seed/3) % 3,
		nRanks: 2 + rng.Intn(7),
	}
	sc.opts = Options{
		Aggregators: rng.Intn(7), // 0 = default (device count)
		Locality:    rng.Intn(2) == 1,
	}
	sc.overlaps = rng.Intn(2) == 1
	// Chunk sizes for the pipelined phases: sub-block (degenerates to
	// single-block chunks), tiny, odd multi-block, and far larger than
	// any domain (degenerates to one round).
	sc.chunkBytes = []int64{1, testBS, 2*testBS + 7, 5 * testBS, 1 << 20}[rng.Intn(5)]
	sc.linkMode = rng.Intn(3)
	g := &fileGroupInfo{nFiles: 1 + rng.Intn(3)}
	for f := 0; f < g.nFiles; f++ {
		g.offs = append(g.offs, g.total)
		size := int64(8 + rng.Intn(40))
		g.sizes = append(g.sizes, size)
		g.total += size
	}
	sc.geom = g
	sc.ref = make([]byte, g.total*testBS)

	nPhases := 3 + rng.Intn(3)
	for ph := 0; ph < nPhases; ph++ {
		kind := rng.Intn(diffKinds)
		switch ph {
		case 0:
			kind = diffPipelinedWrite // every scenario exercises the pipelined path
		case 1:
			kind = diffAlignedWrite // and the aligned partition, chunked (odd phase)
		}
		switch kind {
		case diffCollectiveWrite, diffPipelinedWrite, diffVectoredWrite, diffSievedWrite, diffAutoWrite, diffAlignedWrite:
			sc.genAssignedWrite(rng, g, ph, kind)
		case diffCollectiveRead, diffPipelinedRead, diffSievedRead, diffAutoRead, diffAlignedRead:
			sc.genCollectiveRead(rng, g, ph, kind)
		case diffExtentWrite:
			sc.genExtentWrite(rng, g, ph)
		case diffExtentRead:
			sc.genExtentRead(rng, g, ph)
		case diffReplayWrite:
			sc.genReplayWrite(rng, g, ph)
		case diffReplayRead:
			sc.genCollectiveRead(rng, g, ph, kind)
		}
	}
	return sc
}

// drawWriters draws a per-block writer assignment: a block is written
// with a random density, by one random rank. With overlaps set a quarter
// of the written blocks draw a second writer too, and where one differs
// from the first the assignment with both is returned as overlap, and
// owners keeps the first writer alone.
func (sc *diffScenario) drawWriters(rng *rand.Rand, g *fileGroupInfo, overlaps bool) (owners, overlap [][]int) {
	density := 0.2 + 0.6*rng.Float64()
	owners = make([][]int, g.total)
	twice := false
	for gb := range owners {
		if rng.Float64() >= density {
			continue
		}
		r := rng.Intn(sc.nRanks)
		owners[gb] = []int{r}
		if overlaps && rng.Float64() < 0.25 {
			if r2 := rng.Intn(sc.nRanks); r2 != r {
				owners[gb], twice = append(owners[gb], r2), true
			}
		}
	}
	if !twice {
		return owners, nil
	}
	overlap, owners = owners, make([][]int, g.total)
	for gb, w := range overlap {
		if len(w) > 0 {
			owners[gb] = w[:1]
		}
	}
	return owners, overlap
}

// fill makes bufs the contents each rank's requests write under key.
func (sc *diffScenario) fill(g *fileGroupInfo, reqs [][]VecReq, bufs [][]byte, key int) {
	for r := range reqs {
		for _, q := range reqs[r] {
			for _, sg := range q.Vec {
				gb0 := g.offs[q.File] + sg.Block
				for b := int64(0); b < sg.N; b++ {
					for i := int64(0); i < testBS; i++ {
						bufs[r][sg.BufOff+b*testBS+i] = diffContent(sc.seed, key, r, gb0+b, i)
					}
				}
			}
		}
	}
}

// writePhase adds a write phase of the assignment owners, one writer a
// block, whose ranks write their blocks' contents under key, and folds
// them into the reference image. An overlap assignment becomes the
// phase's overlapping lists, filled under a key no other write uses, and
// the image before the phase is what they must leave.
func (sc *diffScenario) writePhase(rng *rand.Rand, g *fileGroupInfo, kind, ph, key int, owners, overlap [][]int) *diffPhase {
	reqs, bufs := rankSegments(rng, g, owners, sc.nRanks)
	sc.fill(g, reqs, bufs, key)
	phase := diffPhase{kind: kind, reqs: reqs, bufs: bufs}
	if overlap != nil {
		phase.overlap, phase.overlapBufs = rankSegments(rng, g, overlap, sc.nRanks)
		sc.fill(g, phase.overlap, phase.overlapBufs, 200+ph)
		phase.image = bytes.Clone(sc.ref)
	}
	for gb, w := range owners {
		if len(w) > 0 {
			for i := int64(0); i < testBS; i++ {
				sc.ref[int64(gb)*testBS+i] = diffContent(sc.seed, key, w[0], int64(gb), i)
			}
		}
	}
	sc.phases = append(sc.phases, phase)
	return &sc.phases[len(sc.phases)-1]
}

// genAssignedWrite generates a per-block writer assignment, fills the
// buffers, and applies it to the reference image. Under the scenario's
// overlaps the collective kinds first try a cross-rank overlap; raw
// vectored/sieved Set writes are not collective and never do.
func (sc *diffScenario) genAssignedWrite(rng *rand.Rand, g *fileGroupInfo, ph, kind int) {
	overlaps := (kind == diffCollectiveWrite || kind == diffPipelinedWrite || kind == diffAutoWrite ||
		kind == diffAlignedWrite) && sc.overlaps
	owners, overlap := sc.drawWriters(rng, g, overlaps)
	sc.writePhase(rng, g, kind, ph, ph, owners, overlap)
}

// genReplayWrite generates one assigned-write footprint that is issued
// diffReplayReps consecutive iterations with different contents — the
// schedule-cache shape. Cross-rank overlaps are tried exactly as for the
// plain collective write. The reference holds the final iteration's
// bytes.
func (sc *diffScenario) genReplayWrite(rng *rand.Rand, g *fileGroupInfo, ph int) {
	owners, overlap := sc.drawWriters(rng, g, sc.overlaps)
	phase := sc.writePhase(rng, g, diffReplayWrite, ph, diffReplayKey(ph, diffReplayReps-1), owners, overlap)
	phase.iters = make([][][]byte, diffReplayReps)
	for it := range phase.iters {
		phase.iters[it] = make([][]byte, sc.nRanks)
		for r, buf := range phase.bufs {
			phase.iters[it][r] = make([]byte, len(buf))
		}
		sc.fill(g, phase.reqs, phase.iters[it], diffReplayKey(ph, it))
	}
}

// genCollectiveRead generates per-rank read requests — cross-rank and
// even same-rank block overlaps are legal for reads — and snapshots the
// expected buffers from the current reference image. kind selects the
// handle.
func (sc *diffScenario) genCollectiveRead(rng *rand.Rand, g *fileGroupInfo, ph, kind int) {
	reqs := make([][]VecReq, sc.nRanks)
	bufs := make([][]byte, sc.nRanks)
	expect := make([][]byte, sc.nRanks)
	for r := 0; r < sc.nRanks; r++ {
		nSegs := rng.Intn(4)
		var off int64
		for s := 0; s < nSegs; s++ {
			f := rng.Intn(g.nFiles)
			blk := rng.Int63n(g.sizes[f])
			n := 1 + rng.Int63n(4)
			if blk+n > g.sizes[f] {
				n = g.sizes[f] - blk
			}
			reqs[r] = append(reqs[r], VecReq{File: f, Vec: blockio.Vec{{Block: blk, N: n, BufOff: off}}})
			off += n * testBS
		}
		bufs[r] = make([]byte, off)
		expect[r] = make([]byte, off)
		for _, q := range reqs[r] {
			for _, sg := range q.Vec {
				gb0 := (g.offs[q.File] + sg.Block) * testBS
				copy(expect[r][sg.BufOff:sg.BufOff+sg.N*testBS], sc.ref[gb0:gb0+sg.N*testBS])
			}
		}
	}
	sc.phases = append(sc.phases, diffPhase{kind: kind, reqs: reqs, bufs: bufs, expect: expect})
}

// genExtentWrite gives each rank one contiguous, cross-rank-disjoint
// range inside one file (a one-segment descriptor), with per-file cursors
// guaranteeing disjointness.
func (sc *diffScenario) genExtentWrite(rng *rand.Rand, g *fileGroupInfo, ph int) {
	reqs := make([][]VecReq, sc.nRanks)
	bufs := make([][]byte, sc.nRanks)
	cursor := make([]int64, g.nFiles)
	for r := 0; r < sc.nRanks; r++ {
		f := rng.Intn(g.nFiles)
		n := 1 + rng.Int63n(6)
		if cursor[f]+n > g.sizes[f] {
			continue // file exhausted; rank sits this phase out
		}
		blk := cursor[f]
		cursor[f] += n + rng.Int63n(3) // gap keeps ranges disjoint
		reqs[r] = []VecReq{{File: f, Vec: blockio.Vec{{Block: blk, N: n, BufOff: 0}}}}
		bufs[r] = make([]byte, n*testBS)
		gb0 := g.offs[f] + blk
		for b := int64(0); b < n; b++ {
			for i := int64(0); i < testBS; i++ {
				v := diffContent(sc.seed, ph, r, gb0+b, i)
				bufs[r][b*testBS+i] = v
				sc.ref[(gb0+b)*testBS+i] = v
			}
		}
	}
	sc.phases = append(sc.phases, diffPhase{kind: diffExtentWrite, reqs: reqs, bufs: bufs})
}

// genExtentRead gives each rank one contiguous in-file range to read
// back as a one-segment descriptor, expected from the current reference
// image.
func (sc *diffScenario) genExtentRead(rng *rand.Rand, g *fileGroupInfo, ph int) {
	reqs := make([][]VecReq, sc.nRanks)
	bufs := make([][]byte, sc.nRanks)
	expect := make([][]byte, sc.nRanks)
	for r := 0; r < sc.nRanks; r++ {
		f := rng.Intn(g.nFiles)
		blk := rng.Int63n(g.sizes[f])
		n := 1 + rng.Int63n(6)
		if blk+n > g.sizes[f] {
			n = g.sizes[f] - blk
		}
		reqs[r] = []VecReq{{File: f, Vec: blockio.Vec{{Block: blk, N: n, BufOff: 0}}}}
		bufs[r] = make([]byte, n*testBS)
		gb0 := (g.offs[f] + blk) * testBS
		expect[r] = append([]byte(nil), sc.ref[gb0:gb0+n*testBS]...)
	}
	sc.phases = append(sc.phases, diffPhase{kind: diffExtentRead, reqs: reqs, bufs: bufs, expect: expect})
}

// run executes the scenario on a fresh simulated machine and diffs
// every read buffer and the final image against the reference model.
func (sc *diffScenario) run(t *testing.T) {
	e := sim.NewEngine()
	store, _ := newTestStore(t, e, sc.kind)
	vol := pfs.NewVolume(store)
	names := make([]string, sc.geom.nFiles)
	for f := 0; f < sc.geom.nFiles; f++ {
		names[f] = fmt.Sprintf("f%d", f)
		if _, err := vol.Create(testPlacements[sc.place].spec(names[f], sc.geom.sizes[f])); err != nil {
			t.Fatalf("seed %d: %v", sc.seed, err)
		}
	}
	g, err := vol.OpenGroup(names...)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.seed, err)
	}
	col, err := Open(g, sc.nRanks, sc.opts)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.seed, err)
	}
	popts := sc.opts
	popts.ChunkBytes = sc.chunkBytes
	piped, err := Open(g, sc.nRanks, popts)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.seed, err)
	}
	// Auto prices its pipeline depth under any bound: none (ChunkBytes 0)
	// on even seeds, the scenario's on odd ones.
	aopts := sc.opts
	aopts.Strategy = blockio.StrategyAuto
	if sc.seed%2 == 1 {
		aopts.ChunkBytes = sc.chunkBytes
	}
	auto, err := Open(g, sc.nRanks, aopts)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.seed, err)
	}
	// fresh drops its schedules before every call (freshly): each plans
	// afresh.
	fresh, err := Open(g, sc.nRanks, sc.opts)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.seed, err)
	}
	// aligned[i]: unbounded for even i, chunked for odd; equal rounds below
	// 2, growing rounds at 2 and shrinking ones at 3, for reads and writes
	// alike (where the ramp fits under the bound); phase pi uses
	// aligned[pi%4]. The
	// unbounded ones run one round, or their whole domains cut in 2 or 4
	// (what Auto does to them where it prices depth); the chunked ones cut
	// every chunk in 2 to 16.
	var aligned [4]*Collective
	for i := range aligned {
		o := sc.opts
		split := 1 << (sc.seed % 3)
		if i%2 == 1 {
			o, split = popts, 2<<(sc.seed%4)
		}
		if aligned[i], err = Open(g, sc.nRanks, o); err != nil {
			t.Fatalf("seed %d: %v", sc.seed, err)
		}
		aligned[i].forcePart = &choice{route: routeTwoPhase, aligned: true, split: split, ramp: []ramp{0, 0, rampUp, rampDown}[i]}
	}
	freshly := func(p *mpp.Proc) *Collective {
		if p.Rank() == 0 {
			fresh.InvalidateSchedules()
		}
		return fresh
	}
	// The fixed independent routes, which only an overlap check uses.
	var indep []*Collective
	for _, s := range []blockio.Strategy{blockio.StrategyVectored, blockio.StrategySieved} {
		o := sc.opts
		o.Strategy = s
		h, err := Open(g, sc.nRanks, o)
		if err != nil {
			t.Fatalf("seed %d: %v", sc.seed, err)
		}
		indep = append(indep, h)
	}
	// rejectOverlap issues a phase's overlapping lists through every
	// handle: each must refuse them on every rank with the one error,
	// cache no schedule, and leave the files as the phase found them.
	var refused []string
	rejectOverlap := func(p *mpp.Proc, pi int, ph diffPhase) {
		r := p.Rank()
		hs := append([]*Collective{col, piped, auto, aligned[pi%4], freshly(p)}, indep...)
		cached := make([]int, len(hs))
		for i, h := range hs {
			cached[i] = len(h.cached)
		}
		if r == 0 {
			refused = refused[:0]
		}
		p.Barrier()
		for _, h := range hs {
			refused = append(refused, fmt.Sprint(h.WriteAll(p, ph.overlap[r], ph.overlapBufs[r])))
		}
		p.Barrier()
		if r != 0 {
			return
		}
		for _, err := range refused {
			if err == "<nil>" || err != refused[0] {
				t.Errorf("seed %d phase %d (%s): an overlapping write returned %q, another %q",
					sc.seed, pi, diffKindNames[ph.kind], err, refused[0])
				break
			}
		}
		for i, h := range hs {
			if len(h.cached) != cached[i] {
				t.Errorf("seed %d phase %d (%s): a refused write left a schedule in handle %d's cache",
					sc.seed, pi, diffKindNames[ph.kind], i)
			}
		}
		if img, err := groupImage(p.Proc, g); err != nil || !bytes.Equal(img, ph.image) {
			t.Errorf("seed %d phase %d (%s): a refused write changed the files (read error %v)",
				sc.seed, pi, diffKindNames[ph.kind], err)
		}
	}
	mg, join := mpp.Run(e, sc.nRanks, "diff", func(p *mpp.Proc) {
		r := p.Rank()
		for pi, ph := range sc.phases {
			if ph.overlap != nil {
				rejectOverlap(p, pi, ph)
				p.Barrier()
			}
			switch ph.kind {
			case diffCollectiveWrite, diffPipelinedWrite, diffAutoWrite, diffAlignedWrite:
				h := col
				switch ph.kind {
				case diffPipelinedWrite:
					h = piped
				case diffAutoWrite:
					h = auto
				case diffAlignedWrite:
					h = aligned[pi%4]
				}
				if err := h.WriteAll(p, ph.reqs[r], ph.bufs[r]); err != nil {
					t.Errorf("seed %d phase %d (%s) rank %d: %v", sc.seed, pi, diffKindNames[ph.kind], r, err)
				}
			case diffCollectiveRead, diffPipelinedRead, diffAutoRead, diffAlignedRead:
				h := col
				switch ph.kind {
				case diffPipelinedRead:
					h = piped
				case diffAutoRead:
					h = auto
				case diffAlignedRead:
					h = aligned[pi%4]
				}
				if err := h.ReadAll(p, ph.reqs[r], ph.bufs[r]); err != nil {
					t.Errorf("seed %d phase %d (%s) rank %d: %v", sc.seed, pi, diffKindNames[ph.kind], r, err)
				} else if !bytes.Equal(ph.bufs[r], ph.expect[r]) {
					t.Errorf("seed %d phase %d (%s) rank %d: read diverged from reference model",
						sc.seed, pi, diffKindNames[ph.kind], r)
				}
			case diffVectoredWrite, diffSievedWrite:
				for _, q := range ph.reqs[r] {
					set := g.File(q.File).Set()
					var err error
					if ph.kind == diffSievedWrite {
						err = set.Transfer(p.Proc, true, blockio.StrategySieved, q.Vec, blockio.Space{{Buf: ph.bufs[r]}})
					} else {
						err = set.WriteVec(p.Proc, q.Vec, ph.bufs[r])
					}
					if err != nil {
						t.Errorf("seed %d phase %d (%s) rank %d: %v", sc.seed, pi, diffKindNames[ph.kind], r, err)
					}
				}
			case diffSievedRead:
				for _, q := range ph.reqs[r] {
					if err := g.File(q.File).Set().Transfer(p.Proc, false, blockio.StrategySieved, q.Vec, blockio.Space{{Buf: ph.bufs[r]}}); err != nil {
						t.Errorf("seed %d phase %d (%s) rank %d: %v", sc.seed, pi, diffKindNames[ph.kind], r, err)
					}
				}
				if !bytes.Equal(ph.bufs[r], ph.expect[r]) {
					t.Errorf("seed %d phase %d (%s) rank %d: sieved read diverged from reference model",
						sc.seed, pi, diffKindNames[ph.kind], r)
				}
			case diffReplayWrite:
				// Iteration 1 plans, 2..N replay the captured schedule
				// with mutated payloads; then the last iteration is
				// re-issued through the fresh-plan handle, which must
				// land the identical final bytes.
				for it, ibufs := range ph.iters {
					if err := col.WriteAll(p, ph.reqs[r], ibufs[r]); err != nil {
						t.Errorf("seed %d phase %d (%s) rank %d iter %d: %v", sc.seed, pi, diffKindNames[ph.kind], r, it, err)
					}
				}
				if err := freshly(p).WriteAll(p, ph.reqs[r], ph.iters[diffReplayReps-1][r]); err != nil {
					t.Errorf("seed %d phase %d (%s) rank %d fresh-plan: %v", sc.seed, pi, diffKindNames[ph.kind], r, err)
				}
			case diffReplayRead:
				// The same reads issued repeatedly through the cached
				// handle — buffers scribbled between iterations so a
				// replay that failed to deliver would be caught — then
				// once through the fresh-plan handle.
				for it := 0; it <= diffReplayReps; it++ {
					for i := range ph.bufs[r] {
						ph.bufs[r][i] ^= 0xA5
					}
					h, tag := col, "replay"
					if it == diffReplayReps {
						h, tag = freshly(p), "fresh-plan"
					}
					if err := h.ReadAll(p, ph.reqs[r], ph.bufs[r]); err != nil {
						t.Errorf("seed %d phase %d (%s) rank %d iter %d (%s): %v", sc.seed, pi, diffKindNames[ph.kind], r, it, tag, err)
					} else if !bytes.Equal(ph.bufs[r], ph.expect[r]) {
						t.Errorf("seed %d phase %d (%s) rank %d iter %d (%s): read diverged from reference model",
							sc.seed, pi, diffKindNames[ph.kind], r, it, tag)
					}
				}
			case diffExtentWrite:
				for _, q := range ph.reqs[r] {
					sg := q.Vec[0]
					if err := g.File(q.File).Set().WriteVec(p.Proc, blockio.Vec{{Block: sg.Block, N: sg.N}}, ph.bufs[r]); err != nil {
						t.Errorf("seed %d phase %d (%s) rank %d: %v", sc.seed, pi, diffKindNames[ph.kind], r, err)
					}
				}
			case diffExtentRead:
				for _, q := range ph.reqs[r] {
					sg := q.Vec[0]
					if err := g.File(q.File).Set().ReadVec(p.Proc, blockio.Vec{{Block: sg.Block, N: sg.N}}, ph.bufs[r]); err != nil {
						t.Errorf("seed %d phase %d (%s) rank %d: %v", sc.seed, pi, diffKindNames[ph.kind], r, err)
					} else if !bytes.Equal(ph.bufs[r], ph.expect[r]) {
						t.Errorf("seed %d phase %d (%s) rank %d: extent read diverged from reference model",
							sc.seed, pi, diffKindNames[ph.kind], r)
					}
				}
			}
			// Serialize phases so the reference model's sequential
			// semantics hold across independent-path phases too.
			p.Barrier()
		}
	})
	switch sc.linkMode {
	case 1:
		mg.SetLink(10*time.Microsecond, 50e6)
	case 2:
		mg.SetLink(10*time.Microsecond, 50e6)
		mg.SetBisection(100e6)
	}
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d: %v", sc.seed, err)
	}
	// Phase 1 always writes through aligned[1]: the hook must have put it
	// on the re-keyed plan, or the aligned phases tested nothing.
	if sd := aligned[1].sched; sd == nil || sd.pl.phys == nil || sd.route != routeTwoPhase {
		t.Errorf("seed %d: the aligned phases did not run on the aligned partition", sc.seed)
	}
	if got := readAllBlocks(t, g); !bytes.Equal(got, sc.ref) {
		for gb := int64(0); gb < int64(len(got))/testBS; gb++ {
			if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], sc.ref[gb*testBS:(gb+1)*testBS]) {
				t.Errorf("seed %d: final image diverges from reference model at global block %d (first of possibly many)",
					sc.seed, gb)
				break
			}
		}
	}
}

// TestDifferential runs the fixed seed matrix: 60 scenarios covering
// every store kind × layout at least 6 times each (seed mod 9 walks the
// 3×3 matrix), with randomized rank counts, aggregator counts, locality
// and overlap policies, link models, chunk sizes for the pipelined
// phases, and phase mixes — every scenario with at least one write on
// the drive-aligned partition.
// Set PARIO_DIFF_SEED=N to replay a single scenario — including seeds
// outside the fixed matrix — e.g.
//
//	PARIO_DIFF_SEED=1234 go test -run TestDifferential ./internal/collective
func TestDifferential(t *testing.T) {
	if s := os.Getenv("PARIO_DIFF_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PARIO_DIFF_SEED=%q: %v", s, err)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			genScenario(seed).run(t)
		})
		return
	}
	for seed := int64(0); seed < 60; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			genScenario(seed).run(t)
		})
	}
}
