// The collective plan: the deterministic description of one two-phase
// operation that every rank derives identically from the gathered
// request lists.
//
// A plan is a set of per-rank segment lists in ONE key space plus
// everything derived from them. newPlan validates the requests and
// keys them by global fs block — the pfs.FileGroup concatenation of the
// member files' block spaces; plan.aligned re-keys a validated plan by
// physical address, key = device × store.Blocks() + physical block, each
// segment split where the layout's MapRun says physical contiguity
// ends. Below the segment lists nothing knows which key space it is in
// (plan.partition): the plan holds
//
//   - the per-rank segment lists, sorted by key,
//
//   - the union access footprint (the merged covered spans, with prefix
//     sums assigning every covered key a dense "covered index"),
//
//   - the file-domain table: the covered-index space cut into naggs
//     contiguous domains. The logical partition cuts it into equal
//     domains of ⌈total/naggs⌉ blocks (the final one ragged), so a
//     domain is a contiguous piece of the files. The aligned partition
//     cuts it at drive boundaries, so domain a is the footprint on
//     drive(s) a — unequal when the drives hold unequal shares, whole
//     drives when there are fewer domains than drives — and
//
//   - the domain→aggregator assignment (owner): by default domain a
//     belongs to rank a (round-robin rank order, the historical PR 3
//     behavior); with Options.Locality the domain is instead assigned to
//     the participating rank owning the largest share of its footprint,
//     so nearly-aligned access patterns keep most bytes local and only
//     the stragglers cross the interconnect. Ties go to the tied rank
//     that has been given the fewest domains so far (lowest rank among
//     those): a footprint every rank shares equally spreads over the
//     ranks instead of electing rank 0 for every domain.
//
// A plan is built afresh on every call whose request lists the schedule
// cache has not seen, so building one costs a fixed number of tables,
// not a few per rank: every rank-indexed table — the segment lists, their
// covered ranges and the participation indexes — is one array counted
// before it is filled, and what only the build reads lives in the
// handle's scratch (planScratch): the ordered union and the rank × domain
// share table, and the whole logical partition while a price decides
// whether it runs. A plan is filled where it is handed, every table
// resized in place: a one-shot call's plan is the handle's, whose tables
// are rewritten call after call and allocate nothing once grown; an
// admitted schedule's is new, every table made exactly (schedule.go). A
// plan keeps exactly what its route runs. The union is ordered without
// a comparison sort — the rank-major list as it is where it is in key
// order, else one stable radix pass on the key — and its order is
// total: segments tie on key by buffer offset, then by rank, so no plan
// depends on the sort algorithm.
//
// Domains are contiguous in covered-index space and holes nobody asked
// for are never touched. What "contiguous" buys depends on the key: a
// logical domain is sequential in the file, which on a declustered
// (unit-1 striped) file means a short piece on every drive; an aligned
// domain is one sequential run on its own drive, and a chunk of it
// (Options.ChunkBytes) a contiguous slice of that run — the paper's §5
// strategy of one process driving each device with long transfers.
// Only Options.Strategy = StrategyAuto ever builds the aligned
// partition, and only when it prices cheaper (strategy.go); every other
// setting, and every nonblocking call, keeps the logical one.

package collective

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/blockio"
	"repro/internal/pfs"
)

// rseg is one rank segment in the plan's key space: n blocks starting at
// key gb (a global block, or a physical address in an aligned plan),
// moving the rank-buffer bytes [bufOff, bufOff+n×bs).
type rseg struct {
	gb     int64
	n      int64
	bufOff int64
}

// owned is a rank segment tagged with its rank and its place in the
// rank-major list of every rank's segments, for the union merge.
type owned struct {
	rseg
	rank, idx int32
}

// span is a covered interval of the union footprint.
type span struct{ gb, n int64 }

// clip is the intersection of one rank segment with one window of the
// covered footprint: n blocks of rank-buffer bytes at bufOff, domOff bytes
// into the window — one piece of the window's buffer space (plan.space).
type clip struct {
	n      int64
	bufOff int64
	domOff int64
}

// plan is the shared description of one collective operation.
type plan struct {
	bs    int64
	naggs int
	group *pfs.FileGroup
	// phys is set on an aligned plan: the identity Set whose logical
	// block IS the key (striped over every device with a stripe unit of
	// one whole device, extent bases zero), through which domain batches
	// address the store. nil on a logical plan, whose keys resolve
	// through the group's files (locate).
	phys *blockio.Set
	segs [][]rseg // per rank, sorted by key (byKey)
	flat []rseg   // the array every rank's segs are a slice of
	// Everything below is the partition (plan.partition): an independent
	// route's plan holds none of it.
	covered   []span  // merged union footprint, sorted by key
	cbase     []int64 // covered-index of covered[i].gb
	total     int64   // total covered blocks
	domLo     []int64 // domain a is covered indexes [domLo[a], domLo[a+1])
	domBlocks int64   // blocks in the largest domain
	owner     []int   // domain index → aggregator rank
	// Chunking: the collective runs as `rounds` pipelined exchange/access
	// rounds, round k moving chunk k of every domain at once — its covered
	// indexes [ends[k-1], ends[k]) counted from the domain's start
	// (ends[-1] = 0). One table serves every domain, cut for the largest
	// (ends[rounds-1] = domBlocks), so a smaller domain runs out early
	// (roundEnds: equal chunks, or ramped ones). A plan with a footprint
	// has at least one round (a chunk as large as the largest domain);
	// rounds is zero only when no rank asked for anything.
	ends   []int64
	rounds int
	ramped bool // ends is a ramped cut, not the equal one
	// Sparse participation indexes, derived from the share table:
	// domsOf(r) lists the domains rank r's footprint touches and
	// ranksIn(a) the ranks touching domain a (both ascending), rank r's
	// doms[domAt[r]:domAt[r+1]] and domain a's ranks[rankAt[a]:rankAt[a+1]].
	// The exchange and piece-table loops iterate these instead of scanning
	// all ranks × all domains, so a round's cost follows the communication
	// pattern, not the group size.
	doms, ranks   []int32
	domAt, rankAt []int32
	// Per-segment covered-index ranges: rng[at[r]+i] is segs[r][i]'s
	// covered start and end, and the running maximum of the ends over
	// rank r's segments up to i — precomputed once so window clipping can
	// binary-search its first candidate segment instead of rescanning the
	// whole list per chunk. maxEnd is monotone by construction even when a
	// rank's read segments overlap (end alone need not be).
	rng []crange
	at  []int
}

// crange is one segment's covered-index range and the running maximum of
// its rank's range ends (plan.rng).
type crange struct{ start, end, maxEnd int64 }

// planScratch is the handle-held memory of a schedule's build that no
// admitted schedule keeps: the union of the ranks' segments in key order
// (and the radix pass's second buffer), the last partition's rank ×
// domain share table (read by the owner election, the exchange stats
// and the route pricer, all during the build), the logical partition
// and its cut plan while StrategyAuto prices them, the inputs of a cut,
// every rank's mapped descriptors while the independent routes are priced
// (which a one-shot schedule then runs, newSchedule), the aligned plan's
// segments as they are mapped and its domain cuts, a rank's segments in
// buffer order while newPlan checks them, and the owned-domain counts of
// a two-phase schedule. An admitted schedule that runs any of it builds
// its own.
type planScratch struct {
	union, radix []owned
	byBuf        []rseg
	cells        []int64
	shares       [][]int64 // [rank][domain] rows of cells
	load         []int     // electOwners' domains given per rank
	logical      plan
	cut          cutPlan
	cuts         []int64
	batch        blockio.BatchVec
	vec          blockio.Vec
	mapped       mappedReqs
	keyed        []rseg        // plan.aligned's pieces, rank after rank
	keyedAt      []int         // rank r's are keyed[keyedAt[r]:keyedAt[r+1]]
	runs         []blockio.Run // one segment's runs, as MapRun places them
	domCuts      []int64       // plan.aligned's domain boundaries, by key
	ownAt        []int         // newSchedule's owned domains per rank, summed
}

// resize returns s with length n, zeroed: s's own array where it has the
// room (a scratch table, rewritten call after call), else a new one of
// exactly n (a fresh one, or scratch that has grown).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newPlan validates every rank's requests into pl, a logical plan of
// segments, and orders their union into sc.union, the input of the
// partition (which newPlan does not make: a route decides which one it
// needs). write additionally rejects cross-rank overlaps, whose store
// order would be ambiguous. Every bound is checked by subtraction, so a
// segment whose end would overflow an int64 is refused like any other
// out-of-bounds one. The segment tables are pl's, resized; a refused
// call leaves them half rewritten, for nothing to run.
func newPlan(pl *plan, group *pfs.FileGroup, reqs [][]VecReq, bufs [][]byte, naggs int, write bool, sc *planScratch) error {
	bs := int64(group.Store().BlockSize())
	pl.bs, pl.naggs, pl.group, pl.phys = bs, naggs, group, nil
	pl.segs = resize(pl.segs, len(reqs))
	// Every rank's segments are a capped slice of one array, counted
	// before it is filled (zero-length segments counted too, and left out).
	n := 0
	for _, rr := range reqs {
		for _, q := range rr {
			n += len(q.Vec)
		}
	}
	pl.flat = resize(pl.flat, n)
	flat := pl.flat[:0]
	for r, rr := range reqs {
		bufLen := int64(len(bufs[r]))
		lo := len(flat)
		for qi, q := range rr {
			if q.File < 0 || q.File >= group.Len() {
				return fmt.Errorf("collective: rank %d request %d: file %d of %d", r, qi, q.File, group.Len())
			}
			fileBlocks := group.File(q.File).Mapper().TotalFSBlocks()
			off := group.Offset(q.File)
			for si, sg := range q.Vec {
				if sg.N < 0 || sg.Block < 0 || sg.N > fileBlocks-sg.Block {
					return fmt.Errorf("collective: rank %d request %d segment %d: blocks [%d,%d) of %d-block file",
						r, qi, si, sg.Block, sg.Block+sg.N, fileBlocks)
				}
				if sg.N == 0 {
					continue
				}
				if sg.BufOff < 0 || sg.BufOff%bs != 0 {
					return fmt.Errorf("collective: rank %d request %d segment %d: buffer offset %d not aligned to %d-byte blocks",
						r, qi, si, sg.BufOff, bs)
				}
				if sg.BufOff > bufLen || sg.N > (bufLen-sg.BufOff)/bs {
					return fmt.Errorf("collective: rank %d request %d segment %d: %d blocks at buffer offset %d exceed %d-byte buffer",
						r, qi, si, sg.N, sg.BufOff, bufLen)
				}
				flat = append(flat, rseg{gb: off + sg.Block, n: sg.N, bufOff: sg.BufOff})
			}
		}
		segs := flat[lo:len(flat):len(flat)]
		slices.SortFunc(segs, byKey)
		if write {
			// A rank naming a block twice in one write is ambiguous; a
			// read may fetch one block into several buffer slots.
			for i := 1; i < len(segs); i++ {
				if segs[i-1].gb+segs[i-1].n > segs[i].gb {
					return fmt.Errorf("collective: rank %d requests overlap at global block %d", r, segs[i].gb)
				}
			}
		}
		inBuf := segs
		if !slices.IsSortedFunc(segs, byBufOff) {
			// The rank's segments in buffer order, where key order is not.
			sc.byBuf = append(sc.byBuf[:0], segs...)
			slices.SortFunc(sc.byBuf, byBufOff)
			inBuf = sc.byBuf
		}
		for i := 1; i < len(inBuf); i++ {
			if inBuf[i-1].bufOff+inBuf[i-1].n*bs > inBuf[i].bufOff {
				return fmt.Errorf("collective: rank %d requests overlap in the buffer at offset %d", r, inBuf[i].bufOff)
			}
		}
		pl.segs[r] = segs
	}

	all := sc.sortedSegs(pl.segs)
	if write {
		// Reads may share blocks; the union merge absorbs that.
		for i := 1; i < len(all); i++ {
			if all[i-1].gb+all[i-1].n > all[i].gb {
				return fmt.Errorf("collective: ranks %d and %d write overlapping blocks at global block %d",
					all[i-1].rank, all[i].rank, all[i].gb)
			}
		}
	}
	return nil
}

// byKey orders segments by key, ties by buffer offset: a total order on
// any rank's list that newPlan accepts (two of its segments at one
// offset overlap in the buffer), so no plan depends on the sort.
func byKey(x, y rseg) int {
	if x.gb != y.gb {
		return cmp.Compare(x.gb, y.gb)
	}
	return cmp.Compare(x.bufOff, y.bufOff)
}

// byBufOff orders segments by buffer offset, ties by key.
func byBufOff(x, y rseg) int {
	if x.bufOff != y.bufOff {
		return cmp.Compare(x.bufOff, y.bufOff)
	}
	return cmp.Compare(x.gb, y.gb)
}

// sortedSegs flattens the per-rank segment lists into one list sorted
// by key, ties by buffer offset and then rank — the input of the union
// merge — in the scratch's union, and returns it. The rank-major list is
// that order already wherever ranks' footprints ascend with the rank
// (each rank's list is in key order); otherwise a stable radix pass on
// the key orders it, leaving every run of equal keys in rank-major order,
// which a run then trades for buffer offset, then rank.
func (sc *planScratch) sortedSegs(segs [][]rseg) []owned {
	n := 0
	for _, ss := range segs {
		n += len(ss)
	}
	all := resize(sc.union, n)[:0]
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	sorted := true
	for r, ss := range segs {
		for _, sg := range ss {
			if k := len(all); k > 0 && sorted {
				sorted = byKey(all[k-1].rseg, sg) <= 0
			}
			all = append(all, owned{rseg: sg, rank: int32(r), idx: int32(len(all))})
			lo, hi = min(lo, sg.gb), max(hi, sg.gb)
		}
	}
	sc.union = all
	if sorted {
		return all
	}
	// Least significant byte first: each pass is stable, so the last
	// leaves equal keys in the order the first found them.
	src, dst := all, resize(sc.radix, n)
	var count [256]int
	for shift := uint(0); shift < uint(bits.Len64(uint64(hi-lo))); shift += 8 {
		clear(count[:])
		for _, sg := range src {
			count[uint64(sg.gb-lo)>>shift&0xff]++
		}
		at := 0
		for d, c := range count {
			count[d], at = at, at+c
		}
		for _, sg := range src {
			d := uint64(sg.gb-lo) >> shift & 0xff
			dst[count[d]] = sg
			count[d]++
		}
		src, dst = dst, src
	}
	sc.union, sc.radix = src, dst
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j].gb == src[i].gb {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], func(x, y owned) int {
				return cmp.Or(cmp.Compare(x.bufOff, y.bufOff), cmp.Compare(x.rank, y.rank))
			})
		}
		i = j
	}
	return src
}

// aligned re-keys a validated logical plan by physical address: every
// rank segment goes through its file's layout (MapRun splits it where
// physical contiguity ends) and is keyed device × store.Blocks() +
// absolute physical block, and the domains are cut at drive boundaries —
// domain a is the footprint on drive a, or on a's whole drives when
// there are fewer domains than drives. Everything below the segment
// lists (partition), the executor and the nonblocking path then run
// unchanged: a domain buffer is laid out in drive order, a chunk is a
// contiguous slice of a drive, and locate resolves keys through the
// identity Set, phys (physSet). split deepens the pipeline and rmp sizes
// its rounds (partition). The aligned plan is filled into al, its tables
// resized like newPlan's, and its re-keyed lists are slices of one array:
// the pieces are mapped into sc, then copied out. Its union and share
// table are sc's.
func (pl *plan) aligned(al *plan, phys *blockio.Set, opts Options, split int, rmp ramp, sc *planScratch) {
	per := pl.group.Store().Blocks()
	nd := phys.Layout().Devices()
	al.bs, al.naggs, al.group, al.phys = pl.bs, pl.naggs, pl.group, phys
	al.segs = resize(al.segs, len(pl.segs))
	// Every segment is mapped once (a validated segment lies inside one
	// file), into the scratch, and the pieces copied out exactly sized.
	keyed, runs := sc.keyed[:0], sc.runs
	sc.keyedAt = append(sc.keyedAt[:0], 0)
	for _, segs := range pl.segs {
		for _, sg := range segs {
			set, blk, _ := pl.locate(sg.gb)
			runs = set.Layout().MapRun(runs[:0], blk, sg.n)
			for _, run := range runs {
				pb := set.Base(run.Dev) + run.PBlock
				keyed = append(keyed, rseg{gb: int64(run.Dev)*per + pb, n: run.N, bufOff: sg.bufOff + (run.B-blk)*pl.bs})
			}
		}
		sc.keyedAt = append(sc.keyedAt, len(keyed))
	}
	sc.keyed, sc.runs = keyed, runs
	al.flat = resize(al.flat, len(keyed))
	copy(al.flat, keyed)
	for r := range al.segs {
		lo, hi := sc.keyedAt[r], sc.keyedAt[r+1]
		out := al.flat[lo:hi:hi]
		slices.SortFunc(out, byKey)
		al.segs[r] = out
	}
	cuts := resize(sc.domCuts, al.naggs+1)
	for a := range cuts {
		cuts[a] = int64(firstDrive(a, nd, al.naggs)) * per
	}
	sc.domCuts = cuts
	al.partition(sc.sortedSegs(al.segs), opts, cuts, split, rmp, sc)
}

// firstDrive is the first drive of aligned domain a: ⌈a·nd/naggs⌉, so
// domain a holds the whole drives up to firstDrive(a+1), spread as evenly
// as the counts allow (with more domains than drives the surplus domains
// are empty).
func firstDrive(a, nd, naggs int) int { return (a*nd + naggs - 1) / naggs }

// locate resolves a key to the Set that addresses it, the Set's logical
// block there, and how many blocks follow before the addressing changes
// (the end of the file on a logical plan; never, on an aligned one).
func (pl *plan) locate(key int64) (set *blockio.Set, block, left int64) {
	if pl.phys != nil {
		return pl.phys, key, math.MaxInt64
	}
	file, block, err := pl.group.Locate(key)
	if err != nil {
		panic(err) // unreachable: validated segments lie inside the group
	}
	return pl.group.File(file).Set(), block, pl.group.Offset(file+1) - key
}

// partition derives everything below the segment lists from pl.segs, in
// whatever key space they are in: the union footprint (all is every
// rank's segments sorted by key), the domain table, the per-segment
// covered ranges, the participation indexes, the round table and the
// domain owners — into pl's own tables, which it reuses where they have
// the room (the scratch plan a price is put on) and allocates exactly
// where they are nil (a plan that runs) — and the share table, into sc.
// cuts == nil cuts the covered-index space into naggs equal domains;
// otherwise domain a starts at key cuts[a] (naggs+1 ascending keys).
// split > 1 cuts every chunk into that many, deepening the pipeline below
// what ChunkBytes asks for (or, with no bound, below one round); rmp
// ramps the rounds where the ramp fits.
func (pl *plan) partition(all []owned, opts Options, cuts []int64, split int, rmp ramp, sc *planScratch) {
	naggs, nranks := pl.naggs, len(pl.segs)
	pl.total, pl.domBlocks, pl.rounds, pl.ramped = 0, 0, 0, false
	// Every table below is counted, then filled.
	nspans, end := 0, int64(math.MinInt64)
	for _, sg := range all {
		if sg.gb > end {
			nspans++
		}
		end = max(end, sg.gb+sg.n)
	}
	// The merge also places every segment in the covered-index space: its
	// start is its span's covered index plus its offset into the span.
	pl.covered, pl.cbase = resize(pl.covered, nspans)[:0], resize(pl.cbase, nspans)[:0]
	pl.rng, pl.at = resize(pl.rng, len(all)), resize(pl.at, nranks+1)
	for _, sg := range all {
		k := len(pl.covered) - 1
		if k >= 0 && pl.covered[k].gb+pl.covered[k].n >= sg.gb {
			if end := sg.gb + sg.n; end > pl.covered[k].gb+pl.covered[k].n {
				pl.covered[k].n = end - pl.covered[k].gb
			}
		} else {
			if k >= 0 {
				pl.total += pl.covered[k].n
			}
			pl.covered, pl.cbase = append(pl.covered, span{gb: sg.gb, n: sg.n}), append(pl.cbase, pl.total)
			k++
		}
		pl.rng[sg.idx].start = pl.cbase[k] + sg.gb - pl.covered[k].gb
	}
	if k := len(pl.covered) - 1; k >= 0 {
		pl.total += pl.covered[k].n
	}
	pl.domLo = resize(pl.domLo, naggs+1)
	if cuts == nil {
		if pl.total > 0 {
			pl.domBlocks = (pl.total + int64(naggs) - 1) / int64(naggs)
		}
		for a := 1; a <= naggs; a++ {
			pl.domLo[a] = min(int64(a)*pl.domBlocks, pl.total)
		}
	} else {
		for a := 1; a <= naggs; a++ {
			// Covered index of the first covered key at or after the cut.
			i := sort.Search(len(pl.covered), func(i int) bool { return pl.covered[i].gb+pl.covered[i].n > cuts[a] })
			pl.domLo[a] = pl.total
			if i < len(pl.covered) {
				pl.domLo[a] = pl.cbase[i] + max(cuts[a]-pl.covered[i].gb, 0)
			}
			pl.domBlocks = max(pl.domBlocks, pl.domLo[a]-pl.domLo[a-1])
		}
	}
	// One pass over all segments fills the covered ranges and the
	// rank×domain share table (the clips' bytes at every cell) — it
	// drives the locality election, the exchange stats, and the
	// participation indexes without rescanning segment lists per domain.
	sc.cells, sc.shares = resize(sc.cells, nranks*naggs), resize(sc.shares, nranks)
	dom := 0 // the domain of the segment before: a rank's segments mostly ascend
	for r, segs := range pl.segs {
		pl.at[r+1] = pl.at[r] + len(segs)
		sc.shares[r] = sc.cells[r*naggs : (r+1)*naggs : (r+1)*naggs]
		var maxEnd int64
		for i, sg := range segs {
			rg := &pl.rng[pl.at[r]+i]
			ci := rg.start
			end := ci + sg.n
			maxEnd = max(maxEnd, end)
			rg.end, rg.maxEnd = end, maxEnd
			if pl.domLo[dom] > ci || pl.domLo[dom+1] <= ci {
				dom = sort.Search(naggs, func(a int) bool { return pl.domLo[a+1] > ci })
			}
			for d := dom; ci < end; d++ {
				if hi := min(pl.domLo[d+1], end); hi > ci {
					sc.shares[r][d] += (hi - ci) * pl.bs
					ci = hi
				}
			}
		}
	}
	// The participation indexes, counted in one pass over the share table
	// and filled in another, row by row.
	pl.domAt, pl.rankAt = resize(pl.domAt, nranks+1), resize(pl.rankAt, naggs+1)
	for r, row := range sc.shares {
		n := pl.domAt[r]
		for a, b := range row {
			if b > 0 {
				n++
				pl.rankAt[a+1]++
			}
		}
		pl.domAt[r+1] = n
	}
	for a := range naggs {
		pl.rankAt[a+1] += pl.rankAt[a]
	}
	nz := int(pl.domAt[nranks])
	pl.doms, pl.ranks = resize(pl.doms, nz)[:0], resize(pl.ranks, nz)
	for r, row := range sc.shares {
		for a, b := range row {
			if b > 0 {
				pl.doms = append(pl.doms, int32(a))
				pl.ranks[pl.rankAt[a]] = int32(r)
				pl.rankAt[a]++
			}
		}
	}
	copy(pl.rankAt[1:], pl.rankAt[:naggs]) // rankAt[a] ended where domain a+1's ranks start
	pl.rankAt[0] = 0
	pl.ends = pl.ends[:0]
	if pl.total > 0 {
		// ChunkBytes bounds a round; how deep the pipeline runs
		// below that bound, and how its rounds share a domain, is the
		// caller's to price (alignedCost).
		ceil := opts.chunkCeiling(pl.bs, pl.domBlocks)
		if rmp != 0 {
			pl.ends = roundEnds(pl.ends, pl.domBlocks, ceil, split, rmp)
		}
		if pl.ramped = len(pl.ends) > 0; !pl.ramped {
			pl.ends = roundEnds(pl.ends, pl.domBlocks, ceil, split, 0)
		}
		pl.rounds = len(pl.ends)
	}
	pl.owner = resize(pl.owner, naggs)
	for a := range pl.owner {
		pl.owner[a] = a // round-robin rank order, the bit-identical default
	}
	if opts.Locality {
		sc.load = electOwners(pl.owner, sc.shares, sc.load)
	}
}

// domsOf lists the domains rank r's footprint touches, ascending.
func (pl *plan) domsOf(r int) []int32 { return pl.doms[pl.domAt[r]:pl.domAt[r+1]] }

// ranksIn lists the ranks whose footprint touches domain a, ascending.
func (pl *plan) ranksIn(a int) []int32 { return pl.ranks[pl.rankAt[a]:pl.rankAt[a+1]] }

// electOwners assigns every nonempty domain to the rank holding the
// largest byte share of it. Among tied ranks the one given the fewest
// domains so far wins, the lowest rank among those: a domain every rank
// shares equally goes to a rank with nothing to aggregate yet rather
// than to rank 0 again, whose domains would then queue behind one
// another. A nonempty domain always has a participating rank (domains
// tile the covered footprint, and every covered block was requested by
// someone), so owner keeps its incoming (round-robin) rank only for
// empty domains. load is scratch for the count of domains given each
// rank; it is returned, grown to the ranks.
func electOwners(owner []int, shares [][]int64, load []int) []int {
	load = resize(load, len(shares))
	for a := range owner {
		best, bestBytes := -1, int64(0)
		for r := range shares {
			if b := shares[r][a]; b > bestBytes || (b == bestBytes && b > 0 && load[r] < load[best]) {
				best, bestBytes = r, b
			}
		}
		if best >= 0 {
			owner[a] = best
			load[best]++
		}
	}
	return load
}

// exchangeStats totals the exchange-phase payload bytes by destination,
// from the share table of pl's partition: a rank's pieces for a domain
// it aggregates itself are a local copy (self-message, free under both
// link models); everything else crosses the interconnect.
func (pl *plan) exchangeStats(shares [][]int64) (st ExchangeStats) {
	for r, row := range shares {
		for a, b := range row {
			if r == pl.owner[a] {
				st.BytesLocal += b
			} else {
				st.BytesMoved += b
			}
		}
	}
	return st
}

// domain reports aggregator a's covered-index range [lo, hi); empty when
// the footprint holds nothing for domain a.
func (pl *plan) domain(a int) (lo, hi int64) {
	return pl.domLo[a], pl.domLo[a+1]
}

// forEachClipWin enumerates rank's segments clipped to the covered-index
// window [lo, hi) — one chunk of a domain (chunkWindow), a whole domain
// when the plan has one round — in ascending key order, the canonical
// payload order of the exchange phase. domOff is relative to the window
// start. A segment is always contained in one covered span, so its
// covered indexes are consecutive and each segment yields at most one
// clip per window. The precomputed covered ranges bound the scan to the
// intersecting segments (O(log S + clips)), which is what keeps the
// executor affordable when tiny chunks make the window count large.
func (pl *plan) forEachClipWin(rank int, lo, hi int64, fn func(c clip)) {
	if lo >= hi {
		return
	}
	segs, rng := pl.segs[rank], pl.rng[pl.at[rank]:pl.at[rank+1]]
	// First segment that can reach the window: maxEnd is monotone, so
	// everything before this index ends at or before lo.
	i := sort.Search(len(segs), func(i int) bool { return rng[i].maxEnd > lo })
	for ; i < len(segs); i++ {
		cLo, cHi := rng[i].start, rng[i].end
		if cLo >= hi {
			break // cstart ascends: nothing later intersects either
		}
		ci := cLo
		if cLo < lo {
			cLo = lo
		}
		if cHi > hi {
			cHi = hi
		}
		if cLo >= cHi {
			continue
		}
		fn(clip{
			n:      cHi - cLo,
			bufOff: segs[i].bufOff + (cLo-ci)*pl.bs,
			domOff: (cLo - lo) * pl.bs,
		})
	}
}

// winBytes is the bytes of rank's clips in the covered-index window
// [lo, hi).
func (pl *plan) winBytes(rank int, lo, hi int64) (n int64) {
	pl.forEachClipWin(rank, lo, hi, func(cl clip) { n += cl.n })
	return n * pl.bs
}

// chunkWindow reports chunk k of aggregator a's domain as a
// covered-index range; empty once the domain runs out (smaller domains
// have fewer nonempty chunks than plan.rounds).
func (pl *plan) chunkWindow(a, k int) (lo, hi int64) {
	dlo, dhi := pl.domain(a)
	if k > 0 {
		lo = pl.ends[k-1]
	}
	return min(dlo+lo, dhi), min(dlo+pl.ends[k], dhi)
}

// ramp is how a pipeline's rounds share a domain (roundEnds): equally
// (0), or in proportion to the round — growing for a write (rampUp), so
// its first exchange, which nothing hides, is small and the exchange of
// round k+1 fits under the access of round k; shrinking for a read
// (rampDown), so its last delivery is.
type ramp int8

const (
	rampUp   ramp = 1
	rampDown ramp = -1
)

// roundEnds appends to dst the round table of a dom-block domain whose
// chunks ChunkBytes bounds at ceil blocks, cut in split (plan.ends). The
// equal cut (r == 0) is chunks of ⌈ceil/split⌉ blocks, the last ragged.
// A ramped cut has as many rounds, round k's chunk in proportion to k+1
// (rampUp) or to rounds-k (rampDown), at least one block each; it is
// empty where a chunk would exceed the ceiling or there is one round.
func roundEnds(dst []int64, dom, ceil int64, split int, r ramp) []int64 {
	n := int64(max(split, 1))
	cb := (ceil + n - 1) / n
	rounds := (dom + cb - 1) / cb
	dst = slices.Grow(dst, int(rounds))
	if r == 0 {
		for end := cb; ; end += cb {
			if dst = append(dst, min(end, dom)); end >= dom {
				return dst
			}
		}
	}
	if rounds < 2 {
		return dst[:0]
	}
	w, prev := uint64(rounds*(rounds+1)/2), int64(0)
	var cum uint64
	for k := int64(0); k < rounds; k++ {
		if r == rampUp {
			cum += uint64(k + 1)
		} else {
			cum += uint64(rounds - k)
		}
		hi, lo := bits.Mul64(uint64(dom), cum)
		q, _ := bits.Div64(hi, lo, w) // dom·cum/w ≤ dom: no overflow
		end := min(max(int64(q), prev+1), dom-(rounds-1-k))
		if end-prev > ceil {
			return dst[:0]
		}
		dst, prev = append(dst, end), end
	}
	return dst
}

// forEachSpanWin enumerates the covered-index window [lo, hi) — a
// domain, a chunk of one, or the whole call — as (key, length, offset)
// pieces: the covered spans clipped to the window, ascending, offsets
// relative to the window start.
func (pl *plan) forEachSpanWin(lo, hi int64, fn func(gb, n, domOff int64)) {
	if lo >= hi {
		return
	}
	i := sort.Search(len(pl.covered), func(i int) bool { return pl.cbase[i]+pl.covered[i].n > lo })
	for ; i < len(pl.covered) && pl.cbase[i] < hi; i++ {
		sp, cb := pl.covered[i], pl.cbase[i]
		cLo, cHi := cb, cb+sp.n
		if cLo < lo {
			cLo = lo
		}
		if cHi > hi {
			cHi = hi
		}
		if cLo >= cHi {
			continue
		}
		fn(sp.gb+(cLo-cb), cHi-cLo, (cLo-lo)*pl.bs)
	}
}
