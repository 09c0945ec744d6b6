// Schedule capture & replay: amortizing the collective's scheduling
// work across iterative workloads.
//
// The paper's headline workload — and every checkpoint-every-iteration
// loop — issues the *same* request lists over and over with fresh data
// in the buffers. Rebuilding the whole schedule per call (newPlan's
// validation, sort and union merge, chooseRoute's pricing, the call's
// BatchVec map→sort→merge) throws that repetition away;
// Thakur/Gropp/Lusk note that collective optimization cost must be
// amortized over repeated accesses, and ViPIOS precomputes server-side
// access profiles for the same reason.
//
// The cache is transparent and first-call: rank 0 fingerprints the
// gathered request lists after the entry barrier, and a hit replays the
// frozen schedule — the validated plan, the domain→aggregator
// assignment, the chosen route and pipeline depth, the call's prepared
// blockio.BatchPlan and its piece table, or the ranks' mapped
// descriptors — binding only the callers' buffers and sizing the
// exchange's messages.
// Everything frozen is a pure function of the request values and the
// machine model, so a replayed call is bit-identical in modeled time and
// probe trace to a fresh build; the win is host wall-clock and
// allocations.
//
// Invalidation is epoch-based: a handle's Options, which shape every
// planning decision, are fixed when it is opened, and the group's model
// epoch (mpp.Proc.ModelEpoch, bumped by SetLink/SetBisection/
// SetBisectionPool) is checked per call so reconfiguring the
// interconnect forces a rebuild — the route chooser priced the old
// model. The store's drive parameters are immutable after construction,
// so no device epoch is needed. A small LRU (defaultPlanCacheCap
// schedules) keeps several so multi-pattern jobs don't thrash; a caller
// that wants every call planned afresh drops them first
// (InvalidateSchedules).

package collective

import (
	"errors"
	"slices"
	"time"

	"repro/internal/blockio"
	"repro/internal/mpp"
)

// defaultPlanCacheCap is the schedule-LRU capacity: enough for a few
// concurrent access patterns (checkpoint + restart + analysis dump)
// without retaining unbounded plan memory.
const defaultPlanCacheCap = 8

// schedule is one frozen collective schedule: everything derivable from
// the request values and the machine model, none of it referencing the
// callers' buffers. Immutable once built except for the lazily
// constructed per-rank/per-domain execution state, which is itself a
// pure function of the plan (laziness is a host-memory optimization and
// never moves virtual time).
type schedule struct {
	pl    *plan
	route route
	// stats is the exchange's byte split (zero on the independent routes,
	// which exchange nothing); the time fields stay zero.
	stats ExchangeStats
	// predicted is the modeled cost StrategyAuto priced the chosen
	// candidate at (zero when nothing was priced), prices what it priced
	// every candidate at, and depths every pipeline depth of the aligned
	// partition, when it chose it.
	predicted time.Duration
	prices    Prices
	depths    []depthPrice

	key uint64   // fingerprint hash (fast reject)
	sig []uint64 // full flattened signature (exact compare on lookup)

	// minBuf[r] is the smallest buffer length rank r's requests address;
	// a replayed call with a shorter buffer falls back to newPlan so
	// the bounds error is byte-identical to the uncached path.
	minBuf []int64
	// ownedOf[r] lists the domains rank r aggregates, ascending —
	// including empty past-the-footprint domains, mirroring the
	// enumeration the execution paths historically did per call. Built
	// for the two-phase route only.
	ownedOf [][]int

	// cut is a two-phase schedule's whole call as one prepared batch:
	// every domain's spans at their offsets in the call's space (covered
	// index × block size), mapped, sorted and
	// merged once by blockio and cut into the windows the call is issued
	// in. A blocking call cuts at every chunk of every domain — window
	// win0[a]+k is chunk k of domain a, what aggregator owner[a] issues in
	// round k (and what StrategyAuto walked to price the logical
	// partition). A nonblocking call is one request to the I/O server, the
	// drives one run each where the footprint allows, cut every
	// Options.ChunkBytes of the call's space into the windows the server may
	// stop between. Built with the schedule (rank 0, newSchedule).
	cut *cutPlan
	// tab is a two-phase schedule's buffer space: every chunk of every
	// domain as pieces of the ranks' buffers, overlaps resolved
	// (plan.space), bound to each call's buffers as it is issued.
	tab *spaceTab

	// Execution state of the independent routes: every rank's request
	// list taken through the map stage — a compact copy of what
	// StrategyAuto priced, or mapped on first use (mapped).
	ind *mappedReqs
}

// mappedReqs is every rank's requests taken through the map stage:
// ind[r] is rank r's, one blockio.Mapped per request, and err[r] what
// failed to map (err nil: nothing did). The Mappeds are slices of ms and
// their runs and segments of runs and segs.
type mappedReqs struct {
	ind  [][]blockio.Mapped
	err  []error
	ms   []blockio.Mapped
	runs []blockio.Run
	segs []blockio.Seg
}

// of returns rank's mapped requests and what failed to map.
func (m *mappedReqs) of(rank int) ([]blockio.Mapped, error) {
	if m.err == nil {
		return m.ind[rank], nil
	}
	return m.ind[rank], m.err[rank]
}

// compact copies m into memory of its own, exactly sized: what a schedule
// keeps of descriptors mapped into the pricing scratch. m has no errors.
func (m *mappedReqs) compact() *mappedReqs {
	nrun, nseg := 0, 0
	for _, mr := range m.ms {
		for _, r := range mr.Runs() {
			nrun, nseg = nrun+1, nseg+len(r.Segs)
		}
	}
	out := &mappedReqs{
		ind: make([][]blockio.Mapped, len(m.ind)), ms: make([]blockio.Mapped, len(m.ms)),
		runs: make([]blockio.Run, 0, nrun), segs: make([]blockio.Seg, 0, nseg),
	}
	at := 0
	for r, ms := range m.ind {
		for _, mr := range ms {
			out.ms[at], out.runs, out.segs = mr.CopyTo(out.runs, out.segs)
			at++
		}
		out.ind[r] = out.ms[at-len(ms) : at : at]
	}
	return out
}

// cutPlan is a call's prepared batch plan and, for a blocking call, the
// first window of every domain.
type cutPlan struct {
	plan *blockio.BatchPlan
	win0 []int
}

// cut prepares the whole call for the blocking executor into cp: one
// batch over the covered footprint, cut where the round table starts
// every chunk of every domain. cp's tables are its own where it has them
// (the scratch cut a price walks), made exactly where it has none (a
// schedule's); the batch and its cuts are assembled in sc. An error is
// unreachable in practice: the batch is derived from validated,
// physically disjoint covered spans.
func (pl *plan) cut(cp *cutPlan, sc *planScratch) error {
	cp.win0 = resize(cp.win0, pl.naggs)
	cuts := sc.cuts[:0]
	for a := range cp.win0 {
		lo, hi := pl.domain(a)
		cp.win0[a] = len(cuts)
		if lo > 0 {
			cp.win0[a]++ // the window that opens at the cut about to be made
		}
		for k := 0; k < pl.rounds; k++ {
			if off, _ := pl.chunkWindow(a, k); off > 0 && off < hi {
				cuts = append(cuts, off*pl.bs)
			}
		}
	}
	sc.cuts = cuts
	if cp.plan == nil {
		cp.plan = new(blockio.BatchPlan)
	}
	return pl.batchVec(0, pl.total, sc).PlanInto(cp.plan, cuts)
}

// CacheStats is a point-in-time snapshot of a handle's schedule cache:
// replayed calls (Hits), full builds (Misses), schedules dropped by
// capacity (Evictions), and wholesale flushes from a model-epoch change
// or InvalidateSchedules (Invalidations). Entries is the current cache
// population.
type CacheStats struct {
	Hits, Misses, Evictions, Invalidations uint64
	Entries                                int
}

// PlanCacheStats snapshots the handle's schedule-cache counters. Valid
// between collective calls, like LastStats.
func (c *Collective) PlanCacheStats() CacheStats {
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Invalidations: c.invalidations, Entries: len(c.cached),
	}
}

// InvalidateSchedules drops every cached schedule. The handle does this
// itself on model-epoch changes; the explicit form is for callers that
// mutate state the handle cannot observe, and for those that want the
// next call planned afresh. Call it between collective calls.
func (c *Collective) InvalidateSchedules() { c.flushSchedules() }

func (c *Collective) flushSchedules() {
	if len(c.cached) == 0 {
		return
	}
	c.invalidations++
	for i := range c.cached {
		c.cached[i] = nil
	}
	c.cached = c.cached[:0]
}

// modelStamp identifies the interconnect model a schedule was priced
// under. The epoch catches reconfiguration of one group; the raw
// parameters additionally catch a handle migrating between groups whose
// epochs happen to collide.
type modelStamp struct {
	epoch    uint64
	msg      time.Duration
	bps, bis float64
}

func stampOf(p *mpp.Proc) modelStamp {
	st := modelStamp{epoch: p.ModelEpoch()}
	st.msg, st.bps, st.bis = p.LinkModel()
	return st
}

// scheduleFor resolves the schedule for the current call: a cache hit
// replays the frozen schedule, a miss builds it fresh — newPlan,
// chooseRoute, the byte-split stats — and inserts it. Runs on rank 0
// between the plan barriers; pure host work, no virtual time.
func (c *Collective) scheduleFor(p *mpp.Proc, write, nonblocking bool) (*schedule, error) {
	if st := stampOf(p); st != c.cacheStamp {
		c.flushSchedules()
		c.cacheStamp = st
	}
	key, sig := c.fingerprint(write, nonblocking)
	for i, sd := range c.cached {
		if sd.key != key || !sigEqual(sd.sig, sig) {
			continue
		}
		if !c.bufsFit(sd) {
			// A replay would skip validation; rebuild so the bounds
			// error is byte-identical to the uncached path.
			break
		}
		copy(c.cached[1:i+1], c.cached[:i]) // move to front (MRU)
		c.cached[0] = sd
		c.hits++
		return sd, nil
	}
	c.misses++
	opts := c.opts
	if nonblocking {
		// The domains assemble in one round: the device phase of a
		// nonblocking call belongs to the server, so a rank has nothing to
		// overlap an exchange round with. ChunkBytes cuts the server's
		// plan instead (newSchedule).
		opts.ChunkBytes = 0
	}
	pl, err := newPlan(c.group, c.reqs, c.bufs, c.naggs, write, opts, &c.build)
	if err != nil {
		return nil, err
	}
	sd, err := c.newSchedule(p, pl, write, nonblocking, opts, key, sig)
	if err != nil {
		return nil, err
	}
	if len(c.cached) >= defaultPlanCacheCap {
		last := len(c.cached) - 1
		if tab := c.cached[last].tab; tab != nil {
			// Nothing reads an evicted schedule's pieces again: a call binds
			// them only as it starts, under its own schedule. A workload
			// whose schedules never repeat builds its tables in one memory.
			c.spare = append(c.spare, tab.parts)
		}
		c.cached[last] = nil
		c.cached = c.cached[:last]
		c.evictions++
	}
	c.cached = append(c.cached, nil)
	copy(c.cached[1:], c.cached)
	c.cached[0] = sd
	return sd, nil
}

// newSchedule freezes a fresh plan into a schedule: route and partition
// choice, byte-split stats, the per-rank owned-domain lists and buffer
// bounds, the call's prepared plan. pl is the validated plan of segments
// (newPlan), its union in the handle's scratch; opts are the options it
// was validated under. Whatever the route, the schedule keeps what that
// route runs and nothing a loser needed: an independent route the plan's
// segments and its mapped descriptors, a two-phase route its own
// partition — the logical one on pl, or when StrategyAuto prices the
// drive-aligned partition cheaper pl.aligned — with its cut plan and
// piece table, built fresh and exactly sized; everything a price was put
// on stays in the scratch. Nonblocking calls are never priced: they
// always run two-phase on the logical partition. Their device phase is
// one call-wide request whatever the partition, so the domains only say
// which rank sizes which messages; Options.ChunkBytes cuts that request —
// not the domains — into the windows the server issues it in and may
// serve other jobs between (0: one window, the whole call). The
// signature is copied so no fingerprint scratch is retained.
func (c *Collective) newSchedule(p *mpp.Proc, pl *plan, write, nonblocking bool, opts Options, key uint64, sig []uint64) (*schedule, error) {
	sd := &schedule{
		pl:     pl,
		key:    key,
		sig:    append([]uint64(nil), sig...),
		minBuf: make([]int64, c.size),
	}
	for r, segs := range pl.segs {
		for _, sg := range segs {
			if end := sg.bufOff + sg.n*pl.bs; end > sd.minBuf[r] {
				sd.minBuf[r] = end
			}
		}
	}
	ch := choice{route: routeTwoPhase}
	switch {
	case nonblocking:
	case c.forcePart != nil:
		ch = *c.forcePart
	default:
		ch = c.chooseRoute(p, sd, write)
	}
	sd.route, sd.predicted, sd.prices, sd.depths = ch.route, ch.predicted, ch.prices, ch.depths
	if ch.route != routeTwoPhase {
		return sd, nil // independent routes: no exchange, no aggregators
	}
	sc := &c.build
	if ch.aligned {
		pl = pl.aligned(c.opts, ch.split, ch.ramp, sc)
		sd.pl = pl
	} else {
		pl.partition(sc.union, opts, nil, 1, 0, sc)
	}
	sd.stats = pl.exchangeStats(sc.shares)
	// Every rank's owned domains are a capped slice of one array.
	at := make([]int, c.size+1) // at[r+1]: domains owned by ranks ≤ r
	for _, r := range pl.owner {
		at[r+1]++
	}
	for r := 1; r <= c.size; r++ {
		at[r] += at[r-1]
	}
	doms := make([]int, len(pl.owner))
	sd.ownedOf = make([][]int, c.size)
	for r := range sd.ownedOf {
		sd.ownedOf[r] = doms[at[r]:at[r]:at[r+1]]
	}
	for a, r := range pl.owner {
		sd.ownedOf[r] = append(sd.ownedOf[r], a)
	}
	var parts []part
	if n := len(c.spare); n > 0 {
		parts, c.spare = c.spare[n-1], c.spare[:n-1]
	}
	sd.tab = pl.space(parts)
	// An error below is unreachable in practice (plan.cut). It would
	// fail the call as a plan error, on every rank, before anything is
	// taken or submitted. A blocking call's cut is the one its price
	// walked, made again in memory of its own.
	sd.cut = new(cutPlan)
	if !nonblocking {
		return sd, pl.cut(sd.cut, sc)
	}
	cuts := sc.cuts[:0]
	win := c.opts.chunkCeiling(pl.bs, pl.total) * pl.bs
	for off := win; off < pl.total*pl.bs; off += win {
		cuts = append(cuts, off)
	}
	sc.cuts, sd.cut.plan = cuts, new(blockio.BatchPlan)
	return sd, pl.batchVec(0, pl.total, sc).PlanInto(sd.cut.plan, cuts)
}

// bufsFit reports whether every rank's current buffer is long enough
// for the schedule's requests — the only buffer-dependent validation
// newPlan performs.
func (c *Collective) bufsFit(sd *schedule) bool {
	for r, min := range sd.minBuf {
		if int64(len(c.bufs[r])) < min {
			return false
		}
	}
	return true
}

// fingerprint flattens the gathered request lists (and the call
// direction and entry point) into the handle's signature scratch and
// hashes it. The signature captures everything newPlan reads from the
// requests — per-rank list shapes, file indexes, and every segment's
// (Block, N, BufOff) — so equal signatures mean value-identical
// requests. Blocking and nonblocking calls of the same lists are
// different schedules (newSchedule), so the entry point is part of it:
// neither ever replays the other's.
func (c *Collective) fingerprint(write, nonblocking bool) (key uint64, sig []uint64) {
	s := c.sigScratch[:0]
	w := uint64(0)
	if write {
		w = 1
	}
	if nonblocking {
		w |= 2
	}
	s = append(s, w)
	for r, rr := range c.reqs {
		if len(rr) == 0 {
			continue
		}
		s = append(s, uint64(r)<<32|uint64(len(rr)))
		for _, q := range rr {
			s = append(s, uint64(q.File)<<32|uint64(len(q.Vec)))
			for _, sg := range q.Vec {
				s = append(s, uint64(sg.Block), uint64(sg.N), uint64(sg.BufOff))
			}
		}
	}
	c.sigScratch = s
	// FNV-1a over the words; collisions are harmless (sig is compared
	// exactly on lookup), the hash only short-circuits mismatches.
	h := uint64(14695981039346656037)
	for _, v := range s {
		h = (h ^ v) * 1099511628211
	}
	return h, s
}

func sigEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// mapped returns rank's requests of an independent route taken through
// the map stage — one blockio.Mapped per request: the descriptors
// StrategyAuto priced, or under a fixed strategy every rank's, mapped on
// the first rank's turn. A request that is not a valid independent
// descriptor is reported for its rank and left out; the others still
// move.
func (sd *schedule) mapped(c *Collective, rank int) ([]blockio.Mapped, error) {
	if sd.ind == nil {
		sd.ind = new(mappedReqs)
		sd.mapInto(c, sd.ind)
	}
	return sd.ind.of(rank)
}

// mapInto maps every rank's requests at once into m, reusing m's storage
// where it has the room (the pricing scratch) and allocating it sized
// from the plan where it has none: one []Mapped for every request, and a
// run array and a segment array of one entry per plan segment, which
// Set.Map appends to — they outgrow that only where a segment splits on
// the drives.
func (sd *schedule) mapInto(c *Collective, m *mappedReqs) {
	nreq, nseg := 0, 0
	for r := range c.size {
		nreq += len(c.reqs[r])
		nseg += len(sd.pl.segs[r])
	}
	ms := resize(m.ms, nreq)
	m.ms, m.runs, m.segs = ms, slices.Grow(m.runs[:0], nseg), slices.Grow(m.segs[:0], nseg)
	m.ind, m.err = resize(m.ind, c.size), resize(m.err, c.size)
	for r := range c.size {
		var errs []error
		rr := c.reqs[r]
		for i, q := range rr {
			var err error
			if ms[i], m.runs, m.segs, err = c.group.File(q.File).Set().Map(q.Vec, m.runs, m.segs); err != nil {
				errs = append(errs, err)
			}
		}
		m.ind[r], ms = ms[:len(rr):len(rr)], ms[len(rr):]
		m.err[r] = errors.Join(errs...)
	}
}
