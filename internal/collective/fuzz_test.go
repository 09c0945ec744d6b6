// Fuzz target for the planner's domain splitting. The fuzzer decodes
// arbitrary bytes into request lists over the planFixture group and, on
// every accepted plan, checks the invariants the two-phase engine
// relies on:
//
//   - domains are contiguous, disjoint, and cover the covered-index
//     space [0, total) exactly, with only the final nonempty domain
//     ragged;
//   - every requested block lands in exactly one domain (each rank's
//     clips across all domains sum to its requested blocks);
//   - forEachSpanWin tiles each domain exactly, ascending, with
//     contiguous domain-buffer offsets;
//   - the locality assignment always picks a participating rank — the
//     one with the largest byte share; on ties the one given the fewest
//     domains so far, lowest rank among those — and round-robin
//     assignment is untouched when Locality is off.
//
// Every accepted plan is checked twice: as built (the logical partition)
// and re-keyed by physical address (plan.aligned), where the same
// invariants must hold in the re-keyed space and every domain must
// additionally lie on its own whole drives.
//
// Run as `go test -fuzz=FuzzPlanDomains ./internal/collective` for
// coverage-guided exploration; the seed corpus keeps it exercised as a
// plain test (CI runs a -fuzztime=10s smoke on top).
package collective

import (
	"slices"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/stripe"
)

// fuzzPlanInput decodes data into (nRanks, naggs, locality, write,
// reqs, bufs): data[2] bit 0 is Locality, bit 2 a write (bit 1 is
// unused). Segment triples are (rank, start, n) bytes over the
// 12-block planFixture group; buffer offsets are assigned sequentially
// per rank so buffer validation never rejects what block validation
// would accept.
func fuzzPlanInput(data []byte) (nRanks, naggs int, opts Options, write bool, reqs [][]VecReq, bufs [][]byte) {
	if len(data) < 3 {
		return 0, 0, Options{}, false, nil, nil
	}
	nRanks = int(data[0])%8 + 1
	naggs = int(data[1])%8 + 1
	if naggs > nRanks {
		naggs = nRanks
	}
	opts = Options{Locality: data[2]&1 != 0}
	write = data[2]&4 != 0
	reqs = make([][]VecReq, nRanks)
	bufs = make([][]byte, nRanks)
	offs := make([]int64, nRanks)
	const bs = 64
	for p := 3; p+3 <= len(data); p += 3 {
		r := int(data[p]) % nRanks
		gb := int64(data[p+1]) % 12
		n := int64(data[p+2])%4 + 1
		if gb+n > 12 {
			n = 12 - gb
		}
		// Global [0,12) = file 0 [0,8) ++ file 1 [0,4); split at the
		// boundary like real request builders do.
		for n > 0 {
			file, blk, lim := 0, gb, int64(8)
			if gb >= 8 {
				file, blk, lim = 1, gb-8, 4
			}
			take := n
			if blk+take > lim {
				take = lim - blk
			}
			reqs[r] = append(reqs[r], VecReq{File: file, Vec: blockio.Vec{{Block: blk, N: take, BufOff: offs[r]}}})
			offs[r] += take * bs
			gb += take
			n -= take
		}
	}
	for r := range bufs {
		bufs[r] = make([]byte, offs[r])
	}
	return nRanks, naggs, opts, write, reqs, bufs
}

func FuzzPlanDomains(f *testing.F) {
	g := planFixture(f)
	// Seed corpus: empty, single-rank dense, strided multi-rank, ragged
	// tails, overlapping writers, locality flag mixes.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 4, 1, 0, 0, 3, 1, 4, 3, 2, 9, 1})
	f.Add([]byte{8, 3, 5, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0})
	f.Add([]byte{4, 8, 7, 0, 0, 3, 1, 2, 3, 2, 4, 3, 3, 6, 3})
	f.Add([]byte{2, 2, 3, 0, 0, 3, 1, 1, 3}) // cross-rank overlap, read
	f.Fuzz(func(t *testing.T, data []byte) {
		nRanks, naggs, opts, write, reqs, bufs := fuzzPlanInput(data)
		if nRanks == 0 {
			return
		}
		sc := new(planScratch)
		pl, err := buildPlanIn(sc, g, reqs, bufs, naggs, write, opts)
		if err != nil {
			return // rejected input: the validator at work, not a plan
		}
		checkPlanInvariants(t, pl, sc.shares, reqs, opts)
		al := pl.aligned(opts, 1, 0, sc)
		checkPlanInvariants(t, al, sc.shares, reqs, opts)
	})
}

// checkPlanInvariants checks the domain, share, clip, span and owner
// invariants of one plan, in whichever key space it is in; shares is the
// share table its partition left in the scratch.
func checkPlanInvariants(t *testing.T, pl *plan, shares [][]int64, reqs [][]VecReq, opts Options) {
	t.Helper()
	nRanks, naggs := len(reqs), pl.naggs
	// Domains: contiguous, disjoint, exact cover, none larger than
	// domBlocks. Logical domains are equal, ragged only at the tail of
	// the nonempty prefix; aligned domains are whatever their drives hold.
	var covered, largest int64
	prevHi := int64(0)
	for a := 0; a < naggs; a++ {
		lo, hi := pl.domain(a)
		if lo != prevHi {
			t.Fatalf("domain %d starts at %d, want %d (gap or overlap)", a, lo, prevHi)
		}
		if hi < lo {
			t.Fatalf("domain %d inverted: [%d,%d)", a, lo, hi)
		}
		if hi-lo > pl.domBlocks {
			t.Fatalf("domain %d has %d blocks > domBlocks %d", a, hi-lo, pl.domBlocks)
		}
		if pl.phys == nil && hi-lo < pl.domBlocks && hi != pl.total {
			t.Fatalf("domain %d short (%d blocks) but not the ragged tail", a, hi-lo)
		}
		largest = max(largest, hi-lo)
		covered += hi - lo
		prevHi = hi
	}
	if covered != pl.total || prevHi != pl.total {
		t.Fatalf("domains cover %d of %d covered blocks", covered, pl.total)
	}
	if largest != pl.domBlocks {
		t.Fatalf("domBlocks = %d, largest domain has %d blocks", pl.domBlocks, largest)
	}

	// The one-pass share table agrees with clip enumeration.
	for r := 0; r < nRanks; r++ {
		for a := 0; a < naggs; a++ {
			if shares[r][a] != pl.clipBytes(r, a) {
				t.Fatalf("shares[%d][%d] = %d, clip enumeration says %d",
					r, a, shares[r][a], pl.clipBytes(r, a))
			}
		}
	}

	// Every requested block lands in exactly one domain.
	for r := 0; r < nRanks; r++ {
		var want int64
		for _, q := range reqs[r] {
			for _, sg := range q.Vec {
				want += sg.N
			}
		}
		var got int64
		for a := 0; a < naggs; a++ {
			pl.forEachClip(r, a, func(c clip) { got += c.n })
		}
		if got != want {
			t.Fatalf("rank %d: clips cover %d blocks, requested %d", r, got, want)
		}
	}

	// Domain spans tile each domain exactly with contiguous buffer
	// offsets, inside the covered footprint — and, re-keyed, inside the
	// domain's own drives: firstDrive(a) up to the next domain's.
	store := pl.group.Store()
	nd, per := store.Devices(), store.Blocks()
	for a := 0; a < naggs; a++ {
		lo, hi := pl.domain(a)
		var n, nextOff int64
		lastEnd := int64(-1)
		pl.forEachSpanWin(lo, hi, func(gb, cnt, domOff int64) {
			if cnt <= 0 {
				t.Fatalf("domain %d: empty span at %d", a, gb)
			}
			if gb <= lastEnd {
				t.Fatalf("domain %d: spans not ascending/disjoint at %d", a, gb)
			}
			if domOff != nextOff {
				t.Fatalf("domain %d: span at %d has domOff %d, want %d", a, gb, domOff, nextOff)
			}
			lastEnd = gb + cnt - 1
			n += cnt
			nextOff += cnt * pl.bs
			if pl.phys != nil {
				first, next := int64(firstDrive(a, nd, naggs)), int64(firstDrive(a+1, nd, naggs))
				if gb < first*per || lastEnd >= next*per {
					t.Fatalf("aligned domain %d: span [%d,%d] leaves drives [%d,%d)", a, gb, lastEnd, first, next)
				}
			}
		})
		if n != hi-lo {
			t.Fatalf("domain %d spans %d blocks, want %d", a, n, hi-lo)
		}
	}

	// Ownership: always a valid rank; locality picks a largest-share
	// participant for nonempty domains — among the tied, the one given
	// the fewest domains so far, lowest rank among those; round-robin
	// stays identity.
	if len(pl.owner) != naggs {
		t.Fatalf("owner table has %d entries, want %d", len(pl.owner), naggs)
	}
	load := make([]int, nRanks)
	for a := 0; a < naggs; a++ {
		own := pl.owner[a]
		if own < 0 || own >= nRanks {
			t.Fatalf("domain %d owned by rank %d of %d", a, own, nRanks)
		}
		if !opts.Locality {
			if own != a {
				t.Fatalf("round-robin domain %d owned by %d", a, own)
			}
			continue
		}
		lo, hi := pl.domain(a)
		if lo >= hi {
			continue // empty domains keep their round-robin rank
		}
		ownBytes := pl.clipBytes(own, a)
		if ownBytes <= 0 {
			t.Fatalf("locality domain %d owner %d holds no bytes of it", a, own)
		}
		for r := 0; r < nRanks; r++ {
			b := pl.clipBytes(r, a)
			if b > ownBytes || (b == ownBytes && (load[r] < load[own] || (load[r] == load[own] && r < own))) {
				t.Fatalf("locality domain %d owned by %d (%d bytes, %d domains so far) but rank %d holds %d with %d domains",
					a, own, ownBytes, load[own], r, b, load[r])
			}
		}
		load[own]++
	}
}

// FuzzChunkDomains fuzzes the round table layered on the domain split:
// decoded like FuzzPlanDomains plus a chunk-size byte, it checks that
// the table's chunk windows preserve the exact cover/disjointness
// invariants of the domains they tile, on the logical partition and on
// the drive-aligned one at every pipeline split from 1 to 16, each cut
// equal, ramped up (a write's) and ramped down (a read's):
//
//   - rounds is the table's length, the table ascends strictly and ends
//     at the largest domain;
//   - every domain's chunks are contiguous, disjoint and cover the domain
//     exactly, and no chunk is empty before its domain ends;
//   - the largest chunk stays within the ChunkBytes ceiling, except for
//     the single-oversized-segment degenerations (sub-block ChunkBytes →
//     one block; chunk larger than a domain → clamped to the domain;
//     ChunkBytes 0, no bound → the domain, one round at split 1); the
//     equal cut's chunks are that ceiling cut in split, the last ragged,
//     and a ramp has as many rounds, its first chunk no larger (up) or no
//     smaller (down) than its last;
//   - per (rank, domain), the clips of the domain's chunk windows sum
//     to the domain's clips, with chunk-relative offsets tiling each
//     window in canonical order — the invariant the pipelined payload
//     cursors rely on;
//   - span windows tile each chunk exactly, like domain spans.
func FuzzChunkDomains(f *testing.F) {
	g := planFixture(f)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{7, 1, 4, 1, 0, 0, 3, 1, 4, 3, 2, 9, 1})   // 1-block chunks
	f.Add([]byte{1, 8, 3, 5, 0, 0, 0, 1, 1, 0, 2, 2, 0})   // sub-block ChunkBytes
	f.Add([]byte{255, 4, 8, 7, 0, 0, 3, 1, 2, 3, 2, 4, 3}) // chunk > domain
	f.Add([]byte{130, 2, 2, 3, 0, 0, 3, 1, 1, 3})          // odd chunk, overlapping read
	f.Add([]byte{9, 4, 8, 7, 0, 0, 3, 1, 2, 3, 2, 4, 3})   // ChunkBytes 0: no bound
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		// Chunk sizes sweep sub-block, exact-block, odd multiples,
		// larger-than-footprint and none (bs = 64 in the fixture).
		chunkBytes := []int64{1, 7, 63, 64, 65, 128, 130, 3 * 64, 1 << 20, 0}[int(data[0])%10]
		nRanks, naggs, opts, write, reqs, bufs := fuzzPlanInput(data[1:])
		if nRanks == 0 {
			return
		}
		opts.ChunkBytes = chunkBytes
		pl, err := buildPlan(g, reqs, bufs, naggs, write, opts)
		if err != nil {
			return // rejected input: the validator at work, not a plan
		}
		checkChunkInvariants(t, pl, chunkBytes, 1, 0)
		for split := 1; split <= 16; split++ {
			for _, r := range []ramp{0, rampUp, rampDown} {
				checkChunkInvariants(t, pl.aligned(opts, split, r, new(planScratch)), chunkBytes, split, r)
			}
		}
	})
}

// checkChunkInvariants checks one plan's round table and chunk windows, in
// whichever key space it is in; split and r are the pipeline split and
// ramp the plan was built with.
func checkChunkInvariants(t *testing.T, pl *plan, chunkBytes int64, split int, r ramp) {
	t.Helper()
	nRanks, naggs := len(pl.segs), pl.naggs
	if pl.total == 0 {
		if pl.rounds != 0 || len(pl.ends) != 0 {
			t.Fatalf("empty footprint planned %d rounds (table %v)", pl.rounds, pl.ends)
		}
		return
	}
	if pl.rounds != len(pl.ends) || pl.ends[pl.rounds-1] != pl.domBlocks {
		t.Fatalf("%d rounds, table %v, largest domain %d", pl.rounds, pl.ends, pl.domBlocks)
	}
	// ChunkBytes is an upper bound on the chunk (a sub-block ChunkBytes
	// rounds up to one block, a chunk larger than a domain is the domain,
	// and so is the chunk under no bound).
	maxBytes := chunkBytes
	switch {
	case maxBytes == 0:
		maxBytes = pl.domBlocks * pl.bs // no bound: a whole domain
		if split == 1 && pl.rounds != 1 {
			t.Fatalf("ChunkBytes 0 at split 1 planned %d rounds, want 1", pl.rounds)
		}
	case maxBytes < pl.bs:
		maxBytes = pl.bs // sub-block chunks round up to one block
	}
	ceil := min(maxBytes/pl.bs, pl.domBlocks)
	cb := (ceil + int64(split) - 1) / int64(split)
	chunks := make([]int64, pl.rounds)
	var lo int64
	for k, end := range pl.ends {
		chunks[k], lo = end-lo, end
		if chunks[k] < 1 || chunks[k] > ceil {
			t.Fatalf("table %v: chunk %d of %d blocks, ceiling %d (ChunkBytes %d)", pl.ends, k, chunks[k], ceil, chunkBytes)
		}
	}
	if wantRounds := int((pl.domBlocks + cb - 1) / cb); pl.rounds != wantRounds {
		t.Fatalf("%d rounds, want %d (domain %d, chunk %d cut in %d)", pl.rounds, wantRounds, pl.domBlocks, ceil, split)
	}
	if pl.ramped && r == 0 {
		t.Fatalf("an equal cut planned a ramp: %v", pl.ends)
	}
	switch {
	case !pl.ramped:
		for k, n := range chunks {
			if n != cb && (k < pl.rounds-1 || n > cb) {
				t.Fatalf("equal table %v: chunk %d of %d blocks, want %d (the last no more)", pl.ends, k, n, cb)
			}
		}
	case r == rampUp && chunks[0] > chunks[pl.rounds-1], r == rampDown && chunks[0] < chunks[pl.rounds-1]:
		t.Fatalf("ramp %d table %v runs the wrong way", r, pl.ends)
	}
	for a := 0; a < naggs; a++ {
		dLo, dHi := pl.domain(a)
		prevHi := dLo
		for c := 0; c < pl.rounds; c++ {
			lo, hi := pl.chunkWindow(a, c)
			if lo != prevHi {
				t.Fatalf("domain %d chunk %d starts at %d, want %d (gap or overlap)", a, c, lo, prevHi)
			}
			if hi < lo || hi-lo > chunks[c] {
				t.Fatalf("domain %d chunk %d spans [%d,%d), table chunk %d", a, c, lo, hi, chunks[c])
			}
			if hi == lo && hi < dHi {
				t.Fatalf("domain %d chunk %d empty before the domain ends at %d", a, c, dHi)
			}
			prevHi = hi

			// Span windows tile the chunk with contiguous offsets.
			var n, nextOff int64
			pl.forEachSpanWin(lo, hi, func(gb, cnt, off int64) {
				if cnt <= 0 {
					t.Fatalf("domain %d chunk %d: empty span", a, c)
				}
				if off != nextOff {
					t.Fatalf("domain %d chunk %d: span offset %d, want %d", a, c, off, nextOff)
				}
				n += cnt
				nextOff += cnt * pl.bs
			})
			if n != hi-lo {
				t.Fatalf("domain %d chunk %d spans %d blocks, want %d", a, c, n, hi-lo)
			}
		}
		if prevHi != dHi {
			t.Fatalf("domain %d chunks end at %d, domain ends at %d", a, prevHi, dHi)
		}

		// Chunk clips refine domain clips exactly, per rank.
		for r := 0; r < nRanks; r++ {
			var domBlocksClipped, chunkBlocksClipped int64
			pl.forEachClip(r, a, func(cl clip) { domBlocksClipped += cl.n })
			for c := 0; c < pl.rounds; c++ {
				lo, hi := pl.chunkWindow(a, c)
				var prevOff int64 = -1
				pl.forEachClipWin(r, lo, hi, func(cl clip) {
					chunkBlocksClipped += cl.n
					if cl.domOff < 0 || cl.domOff+cl.n*pl.bs > (hi-lo)*pl.bs {
						t.Fatalf("domain %d chunk %d rank %d: clip outside the window", a, c, r)
					}
					// Nondecreasing, not strictly increasing: a read
					// may name one block in several segments.
					if cl.domOff < prevOff {
						t.Fatalf("domain %d chunk %d rank %d: clips out of order", a, c, r)
					}
					prevOff = cl.domOff
				})
			}
			if domBlocksClipped != chunkBlocksClipped {
				t.Fatalf("domain %d rank %d: chunk clips cover %d blocks, domain clips %d",
					a, r, chunkBlocksClipped, domBlocksClipped)
			}
		}
	}
}

// FuzzAlignedPrice holds the aligned candidate's price at the drives to
// a replay of its rounds through the dry issue, round by round and to
// the nanosecond, at every pipeline depth and on both cuts: a random
// footprint — segments of one file striped over 2–5 devices at a random
// unit and extent bases, planned with random cuts — read or written on a
// plain array, a mirror or a parity store (rotated or dedicated), over
// FCFS and SCAN drives of two geometries, in as many aligned domains as
// devices or fewer, ChunkBytes from none to a few blocks. A walk that is
// serial (blockio.Dry.Serial: every plain array's, a mirror's reads, a
// dedicated parity store's reads) is priced from its drives' prefix sums
// (serialAccess), which must equal the replay (replayAccess); the others
// are replayed. Run as `go test -run '^$' -fuzz FuzzAlignedPrice
// ./internal/collective`.
func FuzzAlignedPrice(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 1, 0, 0, 1, 3, 2, 1, 0, 4, 1, 2})
	f.Add([]byte{0, 3, 1, 1, 3, 2, 5, 4, 9, 2, 1, 3, 4, 5, 2, 6, 1, 7})
	f.Add([]byte{1, 2, 2, 0, 2, 1, 0, 3, 1, 2, 3, 1, 2, 8, 1, 1})
	f.Add([]byte{2, 3, 3, 1, 1, 0, 2, 2, 4, 4, 2, 1, 1, 2, 3, 5})
	f.Add([]byte{3, 2, 4, 0, 5, 3, 1, 1, 7, 2, 2, 2, 9, 9, 1, 1})
	f.Add([]byte{0, 1, 5, 1, 0, 2, 3, 6, 2, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		const bs = 64
		kind, nd, flags := next()%4, 2+next()%4, next()
		write := flags&1 != 0
		geoms := []device.Geometry{{BlockSize: bs, BlocksPerCyl: 4, Cylinders: 64}, {BlockSize: bs, BlocksPerCyl: 16, Cylinders: 32}}
		mk := func(n int) []*device.Disk {
			out := make([]*device.Disk, n)
			for i := range out {
				sched := device.FCFS
				if flags>>(1+i%6)&1 != 0 {
					sched = device.SCAN
				}
				tm := device.DefaultTiming1989() // a store's drives share a geometry, not their timing
				if flags>>7+i%2 == 1 {
					tm.SeekMin, tm.TransferRate = tm.SeekMin/2, 4e6
				}
				out[i] = device.New(device.Config{Geometry: geoms[flags>>7], Timing: tm, Sched: sched, MergeQueued: i%2 == 0})
			}
			return out
		}
		var store blockio.Store
		var err error
		switch kind {
		case 0:
			store, err = blockio.NewDirect(mk(nd))
		case 1:
			store, err = stripe.NewMirror(mk(nd), mk(nd))
		default:
			store, err = stripe.NewParity(mk(nd+1), kind == 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		naggs := nd
		if n := next() % (nd + 1); n > 0 {
			naggs = n
		}
		opts := Options{ChunkBytes: []int64{0, 1, bs / 2, bs, 2 * bs, 5 * bs}[next()%6]}
		unit := int64(1 + next()%8)
		per := store.Blocks()
		base := make([]int64, nd)
		for i := range base {
			base[i] = int64(next() % 64)
		}
		blocks := int64(nd) * (per - 64)
		set, err := blockio.NewSet(store, blockio.NewStriped(nd, unit), base, blocks)
		if err != nil {
			t.Fatal(err)
		}
		var vec blockio.Vec
		var at, off int64
		for len(data) >= 2 && len(vec) < 64 {
			at += int64(next() % 24)
			n := int64(1 + next()%6)
			if at+n > blocks {
				break
			}
			vec = append(vec, blockio.VecSeg{Block: at, N: n, BufOff: off * bs})
			at, off = at+n, off+n
		}
		if len(vec) == 0 {
			return
		}
		var cuts []int64
		for c := int64(1 + flags%5); c < off; c += int64(1 + flags%7) {
			cuts = append(cuts, c*bs)
		}
		plan, err := blockio.BatchVec{{Set: set, Vec: vec}}.Plan(cuts)
		if err != nil {
			t.Fatal(err)
		}
		sc := new(priceScratch)
		dom := sc.footprint(store, write, plan, naggs)
		// A rotated parity store's run may still fall on its own drive whole.
		if want := kind == 0 || kind < 3 && !write; kind < 3 && sc.serial != want {
			t.Fatalf("%s store, write=%v: serial walk %v, want %v", [...]string{"plain", "mirror", "dedicated parity", "rotated parity"}[kind], write, sc.serial, want)
		}
		whole := opts.chunkCeiling(bs, dom)
		up := rampDown
		if write {
			up = rampUp
		}
		for n := 1; ; n *= 2 {
			for _, r := range []ramp{0, up} {
				if sc.ends = roundEnds(sc.ends[:0], dom, whole, n, r); len(sc.ends) == 0 {
					continue
				}
				var got []time.Duration
				if sc.serial {
					sc.serialAccess(naggs)
					got = slices.Clone(sc.access)
				}
				sc.replayAccess(store, write, naggs)
				if sc.serial && !slices.Equal(got, sc.access) {
					t.Fatalf("split %d ramp %d, rounds %v: one pass %v, replayed %v", n, r, sc.ends, got, sc.access)
				}
			}
			if sc.ends = roundEnds(sc.ends[:0], dom, whole, n, 0); sc.ends[0] == 1 {
				return
			}
		}
	})
}
