// Route selection: the collective half of the stack's self-tuning.
//
// Two-phase exchange is the right call when the interconnect is cheap
// relative to device requests — the package's founding trade. But
// "Noncontiguous I/O through PVFS" (PAPERS.md) shows the trade invert:
// when each rank's footprint is dense on few devices and the link is
// slow or contended, shipping every byte through aggregators costs more
// than letting ranks access the store directly, vectored or sieved.
// Options.Strategy exposes the choice, and StrategyAuto makes it per call
// without a cost model of its own: every candidate is priced by the code
// that would charge it. The device side of a route is a dry issue
// (blockio.Dry) of the very runs the route would send — every rank's
// mapped descriptor, vectored and sieved; the windows of the call's
// prepared plan, round by round — through the drives' own queue
// discipline and service-time function; the exchange side is the rank
// group's own round charge on a scratch pool (mpp.RoundPrice); and the
// two meet in the executor's own hand-off (pipelineEnd). The two-phase
// route has two candidates of its own: the logical partition (file
// domains contiguous in the files) and the drive-aligned one
// (plan.aligned), the latter at every pipeline depth.
//
// A price is a pure function of the requests and the modeled machine —
// the dry issue starts with the heads parked, not where the drives happen
// to have them — because a schedule is priced once and replayed
// (schedule.go). What was priced is what runs, and the losers leave
// nothing: every candidate is priced from tables in the handle's scratch
// (planScratch) — the mapped descriptors, the logical partition and its
// cut plan — and the schedule keeps its own copy of the winner's only:
// an independent route the descriptors it was priced from, compacted;
// the logical partition the plan whose windows were walked, made again;
// the aligned partition the one whose cuts were walked, built once it
// has won (newSchedule).
//
// Whatever the route, the semantics are the plan's: validation and
// cross-rank write overlap rejection happen in newPlan before any route
// is chosen (identical errors on every route), so the independent
// routes' writes are block-disjoint across ranks.

package collective

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/blockio"
	"repro/internal/mpp"
	"repro/internal/probe"
)

// route is the access path one collective call executes.
type route int

const (
	routeTwoPhase route = iota // exchange + aggregator batches
	routeVectored              // independent per-rank vectored transfers
	routeSieved                // independent per-rank sieved transfers
)

func (r route) String() string {
	switch r {
	case routeVectored:
		return "vectored"
	case routeSieved:
		return "sieved"
	default:
		return "two-phase"
	}
}

// LastRoute reports which route the most recent successfully planned
// call, blocking or nonblocking, took ("two-phase", "vectored",
// "sieved") — observability for sweeps and tests. Valid under the same
// rules as LastStats.
func (c *Collective) LastRoute() string { return c.route.String() }

// Prices is what StrategyAuto priced the candidates of one call at: the
// independent routes, two-phase on the logical partition at the rounds
// Options.ChunkBytes gives it (a nonblocking call: one round, then the
// call-wide request), and two-phase on the drive-aligned partition at
// its cheapest depth. Zero: not priced, or (Sieved and Aligned, which a
// nonblocking call is not offered) not offered.
type Prices struct {
	Vectored, Sieved, TwoPhase, Aligned time.Duration
}

// choice is what chooseRoute resolved for one call: the route, and for
// the two-phase route which partition carries it — the aligned one with
// every chunk cut in split (plan.partition), the pipeline depth priced
// cheapest, and ramp, how its rounds share a domain there (roundEnds; 0:
// equally). predicted is the price of the chosen candidate (zero when
// Options.Strategy fixed the route and nothing was priced), prices every
// candidate's and depths what each depth of the aligned partition was
// priced at (explain.go).
type choice struct {
	route     route
	aligned   bool
	split     int
	ramp      ramp
	predicted time.Duration
	prices    Prices
	depths    []depthPrice
}

// depthPrice is what one pipeline depth of the aligned partition was
// priced at, on the equal cut or the ramped one.
type depthPrice struct {
	rounds int32
	ramped bool
	cost   time.Duration
}

// priceScratch is the handle-retained scratch of route pricing, so a
// workload whose request lists never repeat prices every call without
// allocating: the dry issue and the round pricer, the aligned
// candidate's rank × domain byte table and owners, where the footprint
// lies on the drives, each domain's place in it, the round table and the
// access time of every round of the candidate being priced.
type priceScratch struct {
	dry    blockio.Dry
	ex     mpp.RoundPrice
	flat   []int64   // backing of shares, cleared per pricing
	shares [][]int64 // [rank][domain]
	owner  []int
	domOf  []int // drive → aligned domain
	union  []blockio.Run
	from   []int // domain → its first run in union; one more entry closes the last
	at     []unionAt
	ends   []int64
	access []time.Duration
	tried  []depthPrice
}

// unionAt is a position in priceScratch.union: off blocks into run i.
type unionAt struct {
	i   int
	off int64
}

// chooseRoute resolves Options.Strategy for one call. Rank 0 runs it
// after newPlan succeeds, on the schedule under construction; it is a
// pure function of the plan, the gathered requests and the modeled
// machine, so the choice is deterministic. sd.pl holds the segments and
// the handle's scratch their union; opts are the options the plan was
// validated under. Everything a price is put on is built in the scratch
// — the mapped descriptors, the logical partition and its cut plan — and
// the aligned partition is priced from where the same footprint lies on
// the drives; the schedule keeps a copy of the winner's (newSchedule).
//
// A nonblocking call is priced in the shape it runs in: one request to
// the I/O server, which a server with nobody else to serve issues whole.
// Its candidates are two-phase — one whole-call exchange round, then the
// call-wide plan — and vectored, the ranks' mapped runs issued by the
// server as they are (newSchedule); the server issues no read-modify-
// write, so sieved is not offered, and the aligned partition is withheld
// (its domains only say which rank sizes which messages: the server's
// request is call-wide whatever the partition). An independent winner
// leaves its mapped descriptors in the scratch for newSchedule to plan.
func (c *Collective) chooseRoute(p *mpp.Proc, sd *schedule, write, nonblocking bool, opts Options) choice {
	ch := choice{route: routeTwoPhase}
	switch c.opts.Strategy {
	case blockio.StrategyVectored:
		if nonblocking && !c.mapAll(sd) {
			return ch
		}
		return choice{route: routeVectored}
	case blockio.StrategySieved:
		if nonblocking {
			return ch
		}
		return choice{route: routeSieved}
	case blockio.StrategyAuto:
	default:
		// StrategyDefault and StrategyCollective: the historical path.
		return ch
	}
	sc, build := &c.price, &c.build
	if len(build.union) == 0 || !c.mapAll(sd) {
		// Nothing to price, or some request list is not a valid independent
		// descriptor (e.g. one rank reading a block into two buffer slots):
		// only the exchange can serve it, on the partition it always had.
		return ch
	}
	ind := &build.mapped
	pl := &build.logical
	pl.bs, pl.naggs, pl.group, pl.segs = sd.pl.bs, sd.pl.naggs, sd.pl.group, sd.pl.segs
	pl.partition(build.union, opts, nil, 1, 0, build)
	cut := &build.cut
	var err error
	if nonblocking {
		// The call-wide plan uncut: a server alone issues its windows
		// together, as if they had not been cut.
		if cut.plan == nil {
			cut.plan = new(blockio.BatchPlan)
		}
		err = pl.batchVec(0, pl.total, build).PlanInto(cut.plan, nil)
	} else {
		err = pl.cut(cut, build)
	}
	if err != nil {
		return ch // unreachable: newSchedule says why, and fails the call on it
	}
	dry := &sc.dry
	dry.Bind(c.group.Store())
	// The independent routes: every rank's mapped requests, all at once.
	independent := func(sieved bool) time.Duration {
		dry.Park()
		for _, ms := range ind.ind {
			for _, m := range ms {
				if sieved {
					dry.Sieved(m.Runs(), write)
				} else {
					dry.Vectored(m.Runs())
				}
			}
		}
		return dry.Flush()
	}
	ch.prices.Vectored = independent(false)
	if !nonblocking {
		ch.prices.Sieved = independent(true)
	}

	// Two-phase on the logical partition: the windows the executor would
	// issue, round by round, every aggregator's at once — or a
	// nonblocking call's one round: the whole exchange, then the call.
	sc.ex.Reset(p)
	enter(&sc.ex, build.shares, pl.owner)
	dry.Park()
	sc.access = sc.access[:0]
	if nonblocking {
		dry.Window(cut.plan, 0)
		sc.access = append(sc.access, dry.Flush())
	} else {
		for k := 0; k < pl.rounds; k++ {
			for a := 0; a < pl.naggs; a++ {
				if lo, hi := pl.chunkWindow(a, k); hi > lo {
					dry.Window(cut.plan, cut.win0[a]+k)
				}
			}
			sc.access = append(sc.access, dry.Flush())
		}
	}
	ch.prices.TwoPhase = pipelineEnd(write, &sc.ex, sc.access, pl.ends)
	ch.predicted = ch.prices.TwoPhase

	// The aligned candidate is offered to blocking calls where every domain
	// is one whole drive, or domains are several whole drives moved in one
	// round (with a bound set the candidate is withheld there, with none
	// alignedCost keeps it at one round).
	nd := c.group.Store().Devices()
	var split int
	var r ramp
	var tried []depthPrice
	if !nonblocking && (pl.naggs == nd || (pl.naggs < nd && c.opts.ChunkBytes == 0)) {
		c.alignedShares(ind, nd)
		ch.prices.Aligned, split, r, tried = c.alignedCost(p, write, cut, nd)
		if ch.prices.Aligned < ch.predicted { // ties to the historical partition
			ch.aligned, ch.predicted = true, ch.prices.Aligned
		}
	}
	switch pr := ch.prices; {
	case ch.predicted <= pr.Vectored && (nonblocking || ch.predicted <= pr.Sieved):
		// ties to the historical path
		if ch.aligned {
			ch.split, ch.ramp, ch.depths = split, r, slices.Clone(tried)
		}
		return ch
	case nonblocking || pr.Vectored <= pr.Sieved:
		ch.route, ch.aligned, ch.predicted = routeVectored, false, pr.Vectored
	default:
		ch.route, ch.aligned, ch.predicted = routeSieved, false, pr.Sieved
	}
	if !nonblocking {
		sd.ind = ind.compact() // what was priced is what runs
	}
	return ch
}

// mapAll maps every rank's requests into the scratch (planScratch.mapped)
// and reports whether every one is a valid independent descriptor.
func (c *Collective) mapAll(sd *schedule) bool {
	ind := &c.build.mapped
	sd.mapInto(c, ind)
	for _, err := range ind.err {
		if err != nil {
			return false
		}
	}
	return true
}

// enter gives the round pricer every message of a two-phase candidate's
// exchange: each rank's bytes for each domain, to the domain's owner.
func enter(ex *mpp.RoundPrice, shares [][]int64, owner []int) {
	for r := range shares {
		for a, b := range shares[r] {
			ex.Msg(r, owner[a], b)
		}
	}
}

// pipelineEnd is when the two-phase executor finishes a schedule whose
// round k moves the chunk the round table ends gives it (plan.ends) and
// spends access[k] at the drives, by the executor's own hand-off
// (runPipelined): two stages — exchange then access for a write, access
// then delivery for a read — with one slot between them, so the first
// stage runs at most a round ahead of what the second has taken. Round k's
// exchange carries its chunk's share of every message, the first round
// setting up every pair (mpp.RoundPrice.Price). One round is exchange +
// access.
func pipelineEnd(write bool, ex *mpp.RoundPrice, access []time.Duration, ends []int64) time.Duration {
	whole := ends[len(ends)-1]
	var put, got, done time.Duration // round k-1: handed over, taken, finished
	var x time.Duration              // round k's exchange, priced again where its chunk differs
	var lo, chunk int64
	for k, a := range access {
		if n := ends[k] - lo; k < 2 || n != chunk {
			x, chunk = ex.Price(n, whole, k == 0), n
		}
		s1, s2 := x, a
		lo = ends[k]
		if !write {
			s1, s2 = s2, s1
		}
		put = max(put+s1, got)
		got = max(put, done)
		done = got + s2
	}
	return done
}

// alignedShares readies the aligned candidate's tables from the mapped
// descriptors: the bytes each rank holds on each domain's drives
// (plan.aligned's cuts) and the domain owners.
func (c *Collective) alignedShares(ind *mappedReqs, nd int) {
	sc := &c.price
	if sc.flat == nil {
		// First pricing on this handle.
		sc.flat = make([]int64, c.size*c.naggs)
		sc.shares = make([][]int64, c.size)
		for r := range sc.shares {
			sc.shares[r] = sc.flat[r*c.naggs : (r+1)*c.naggs : (r+1)*c.naggs]
		}
		sc.owner = make([]int, c.naggs)
	}
	clear(sc.flat)
	sc.domOf = sc.domOf[:0]
	for a := 0; a < c.naggs; a++ {
		for d := firstDrive(a, nd, c.naggs); d < firstDrive(a+1, nd, c.naggs); d++ {
			sc.domOf = append(sc.domOf, a)
		}
	}
	for r, ms := range ind.ind {
		for _, m := range ms {
			for _, run := range m.Runs() {
				sc.shares[r][sc.domOf[run.Dev]] += run.N * c.bs
			}
		}
	}
	for a := range sc.owner {
		sc.owner[a] = a
	}
	if c.opts.Locality {
		c.build.load = electOwners(sc.owner, sc.shares, c.build.load)
	}
}

// rampMargin: a ramped cut is kept only where it prices below the
// cheapest cut so far by more than 1/rampMargin of its price (5 %,
// the band every price is held to: TestStrategyAutoWins,
// TestPipelineDepthPriced). Its exchange rounds are priced as shares of
// every message, which its small rounds carry least faithfully — a rank
// sends a whole block or nothing — so a ramp that wins by less is not
// known to win.
const rampMargin = 20

// alignedCost prices the aligned partition: its domains end at drive
// boundaries, so a domain's windows are the footprint on its drives cut
// where the round table says — what plan.aligned's prepared plan would
// hold, read here off the logical plan's runs with its cuts undone.
// ChunkBytes bounds the chunk (at one whole domain when it sets no bound,
// or none smaller); the depth of the pipeline below that bound is priced,
// not fixed: every chunk is cut in 1, 2, 4, … down to single blocks, and
// at each depth two cuts (roundEnds) go through a dry issue of their
// rounds and the executor's hand-off — the equal one and, where it fits
// under the bound, the ramped one, whose small first exchange (a write)
// or last delivery (a read) leaves less of the call unhidden. The
// cheapest is returned as split and ramp (ties to the equal cut and the
// shallower depth, so an exchange priced at nothing — a free
// interconnect — stays at one round; a ramp must be cheaper by a margin,
// rampMargin). A deeper pipeline hides more of the shorter phase behind
// the longer one and pays one more request per drive per round for it;
// what such a request costs is the drive's business — one that continues
// where the previous round's ended crosses no cylinder, or one — and so
// is what a ramp costs: on a drive whose footprint is separate runs,
// chunks that no longer fall on them may cost requests the equal cut
// does not. Domains of several drives (fewer
// domains than drives: chooseRoute offers them unbounded only) are priced
// at one round and no deeper. Nor is any depth walked that could not win:
// one at which the requests of the largest domain's drive alone, a round
// each, take as long as the cheapest depth so far. tried aliases the
// scratch.
func (c *Collective) alignedCost(p *mpp.Proc, write bool, cut *cutPlan, nd int) (t time.Duration, split int, rmp ramp, tried []depthPrice) {
	sc, dry := &c.price, &c.price.dry
	sc.ex.Reset(p)
	enter(&sc.ex, sc.shares, sc.owner)
	// Domain a's footprint is union[from[a]:from[a+1]], in drive order.
	sc.union = cut.plan.Uncut(sc.union[:0])
	sc.from = sc.from[:0]
	var dom int64 // the largest domain: one drive, unless domains are several
	i := 0
	for a := 0; a < c.naggs; a++ {
		sc.from = append(sc.from, i)
		var blocks int64
		for ; i < len(sc.union) && sc.union[i].Dev < firstDrive(a+1, nd, c.naggs); i++ {
			blocks += sc.union[i].N
		}
		dom = max(dom, blocks)
	}
	sc.from = append(sc.from, i)
	sc.at = slices.Grow(sc.at[:0], c.naggs)[:c.naggs]
	sc.tried = sc.tried[:0]
	whole := c.opts.chunkCeiling(c.bs, max(dom, 1))
	up := rampDown
	if write {
		up = rampUp
	}
	for n := 1; ; n *= 2 {
		sc.ends = roundEnds(sc.ends[:0], dom, whole, n, 0)
		rounds, chunk := int64(len(sc.ends)), sc.ends[0]
		if n > 1 && dry.AtLeast(rounds, dom) >= t {
			// The largest domain's drive alone takes that long over a request
			// a round; deeper is more requests still.
			return t, split, rmp, sc.tried
		}
		for _, r := range []ramp{0, up} {
			if r != 0 {
				if sc.ends = roundEnds(sc.ends[:0], dom, whole, n, r); len(sc.ends) == 0 {
					break
				}
			}
			cost := c.cutCost(write)
			sc.tried = append(sc.tried, depthPrice{int32(rounds), r != 0, cost})
			if n == 1 && r == 0 || cost < t && (r == 0 || cost+cost/rampMargin < t) {
				t, split, rmp = cost, n, r
			}
		}
		if chunk == 1 || c.naggs != nd {
			return t, split, rmp, sc.tried
		}
	}
}

// cutCost prices one cut of the aligned partition, the round table in
// the pricing scratch: every round's windows — the next chunk of every
// domain's footprint — through the dry issue, and the rounds through the
// executor's hand-off.
func (c *Collective) cutCost(write bool) time.Duration {
	sc, dry := &c.price, &c.price.dry
	for a := range sc.at {
		sc.at[a] = unionAt{i: sc.from[a]}
	}
	dry.Park()
	sc.access = sc.access[:0]
	var lo int64
	for _, end := range sc.ends {
		for a := range sc.at {
			at := &sc.at[a]
			for left := end - lo; left > 0 && at.i < sc.from[a+1]; {
				r := sc.union[at.i]
				take := min(r.N-at.off, left)
				dry.Extent(r.Dev, r.PBlock+at.off, take)
				left -= take
				if at.off += take; at.off == r.N {
					at.i, at.off = at.i+1, 0
				}
			}
		}
		sc.access = append(sc.access, dry.Flush())
		lo = end
	}
	return pipelineEnd(write, &sc.ex, sc.access, sc.ends)
}

// runIndependent executes one collective call as independent per-rank
// Set transfers — no exchange, every rank moving its own requests
// straight to the store, sieved or vectored: the descriptors the schedule
// mapped (and, under StrategyAuto, priced), issued as they are.
// Concurrent sieved writers are safe under the Sets' per-device sieve
// locks; vectored writers are block-disjoint by plan validation.
func (c *Collective) runIndependent(p *mpp.Proc, sd *schedule, write, sieved bool) {
	rank := p.Rank()
	buf := c.bufs[rank]
	ms, err := sd.mapped(c, rank)
	rec, _, prefix := p.Probe()
	var ioTrk probe.TrackID
	if rec != nil && len(ms) > 0 {
		ioTrk = rec.Track(fmt.Sprintf("%s/%d/io", prefix, rank))
	}
	strat := blockio.StrategyVectored
	if sieved {
		strat = blockio.StrategySieved
	}
	var errs []error
	if err != nil {
		errs = append(errs, err)
	}
	t0 := p.Now()
	for _, m := range ms {
		if write {
			err = m.Write(p.Proc, strat, buf)
		} else {
			err = m.Read(p.Proc, strat, buf)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	if len(ms) > 0 {
		c.ioIv = append(c.ioIv, probe.Interval{From: t0, To: p.Now()})
		rec.Span(ioTrk, "collective", "independent", t0, p.Now(), 0, 0)
	}
	c.errs[rank] = errors.Join(errs...)
}
