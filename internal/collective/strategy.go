// Route selection: the collective half of the stack's self-tuning.
//
// Two-phase exchange is the right call when the interconnect is cheap
// relative to device requests — the package's founding trade. But
// "Noncontiguous I/O through PVFS" (PAPERS.md) shows the trade invert:
// when each rank's footprint is dense on few devices and the link is
// slow or contended, shipping every byte through aggregators costs more
// than letting ranks access the store directly, vectored or sieved.
// Options.Strategy exposes the choice; StrategyAuto prices the three
// routes per call from the plan, the store's drive parameters
// (blockio.StoreCostModel) and the group's link model
// (mpp.Group.LinkModel), and picks the cheapest. The two-phase route has
// two candidates of its own: the logical partition (file domains
// contiguous in the files) and the drive-aligned one (plan.aligned),
// priced with the same numbers.
//
// Whatever the route, the semantics are the plan's: validation and
// cross-rank overlap rejection happen in buildPlan before any route is
// chosen (identical errors on every route), and LastWriterWins is
// honored on independent routes by clipping each rank's write segments
// against every higher rank's footprint — block-disjoint independent
// writes whose final image equals the rank-ordered two-phase assembly.

package collective

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockio"
	"repro/internal/mpp"
	"repro/internal/probe"
)

// route is the access path one collective call executes.
type route int

const (
	routeTwoPhase route = iota // exchange + aggregator batches
	routeVectored              // independent per-rank Set.ReadVec/WriteVec
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
// blocking call took ("two-phase", "vectored", "sieved") — observability
// for sweeps and tests. Valid under the same rules as LastStats.
func (c *Collective) LastRoute() string { return c.route.String() }

// choice is what chooseRoute resolved for one call: the route, and for
// the two-phase route which partition carries it — the aligned one with
// every chunk cut in split (plan.partition), the pipeline depth
// alignedCost priced cheapest. predicted is the modeled cost the chosen
// candidate was priced at (zero when Options.Strategy fixed the route
// and nothing was priced); LastStats-style observability compares it
// with what the call then took (explain.go), next to the price of every
// depth that was tried (depths).
type choice struct {
	route     route
	aligned   bool
	split     int
	predicted time.Duration
	depths    []depthPrice
}

// depthPrice is what alignedCost priced one pipeline depth at.
type depthPrice struct {
	rounds int64
	cost   time.Duration
}

// devUse is one device's share of the union footprint: its physically
// contiguous gather runs (the first of them starting at physical block
// first), the blocks in them, and their summed request + transfer cost.
type devUse struct {
	cost   time.Duration
	runs   int
	blocks int64
	first  int64
}

// priceScratch is the handle-retained scratch of route pricing, so a
// workload whose request lists never repeat prices every call without
// allocating: the aligned candidate's rank × domain byte table and
// owners, and the exchange pricer's per-rank link totals.
type priceScratch struct {
	flat   []int64   // backing of shares, cleared per pricing
	shares [][]int64 // [rank][domain]
	owner  []int
	link   []linkUse
}

// linkUse is one rank's exchange traffic: messages and bytes it injects
// and takes delivery of.
type linkUse struct {
	outBytes, inBytes int64
	outMsgs, inMsgs   int
}

// chooseRoute resolves Options.Strategy for one call. Rank 0 runs it
// after buildPlan succeeds; it is a pure function of the plan, the
// gathered requests and the modeled machine, so the choice is
// deterministic. pl is the logical plan; the aligned partition is priced
// from the same per-rank, per-device spans the independent routes are
// priced from and built only if it is chosen.
func (c *Collective) chooseRoute(p *mpp.Proc, pl *plan, write bool) choice {
	switch c.opts.Strategy {
	case blockio.StrategyVectored:
		return choice{route: routeVectored}
	case blockio.StrategySieved:
		return choice{route: routeSieved}
	case blockio.StrategyAuto:
	default:
		// StrategyDefault and StrategyCollective: the historical path.
		return choice{route: routeTwoPhase}
	}
	m := blockio.StoreCostModel(c.group.Store(), c.size)
	m.LinkMsg, m.LinkBytesPerSec, m.BisectionBytesPerSec = p.LinkModel()
	// The aligned candidate is offered where its access phase can be
	// priced honestly: every domain one whole drive, or domains of
	// several whole drives moved in one round (a chunk window of a
	// multi-drive domain would keep one of its drives busy at a time, and
	// nobody prices those windows yet: with a bound set the candidate is
	// withheld, with none alignedCost keeps it at one round).
	nd := c.group.Store().Devices()
	var devDom []int
	if pl.total > 0 && (pl.naggs == nd || (pl.naggs < nd && c.opts.ChunkBytes == 0)) {
		devDom = c.alignedDomains(nd)
	}
	indVec, indSieve, ok := c.independentCosts(m, write, devDom)
	if !ok {
		// Some request list is not a valid independent Set descriptor
		// (e.g. one rank reading a block into two buffer slots): only
		// the exchange can serve it, on the partition it always had.
		return choice{route: routeTwoPhase}
	}
	exch := c.exchangeCost(m, pl.shares, pl.owner)
	use := c.unionUse(m, pl)
	access := logicalAccess(m, pl, use)
	ch := choice{route: routeTwoPhase, predicted: exch + access}
	if devDom != nil {
		owner := c.price.owner
		for a := range owner {
			owner[a] = a
		}
		if c.opts.Locality {
			electOwners(owner, c.price.shares)
		}
		// Against the independent routes the logical partition keeps its
		// historical price, exchange + access. Against the aligned one it
		// is credited with the overlap its own rounds buy, or a footprint
		// of many chunks would go aligned for the pipelining alone.
		t, split, depths := c.alignedCost(m, c.exchangeCost(m, c.price.shares, owner), use)
		if t < pipelineCost(exch, access, int64(pl.rounds)) {
			ch.aligned, ch.split, ch.predicted, ch.depths = true, split, t, depths // ties to the historical partition
		}
	}
	switch {
	case ch.predicted <= indVec && ch.predicted <= indSieve:
		return ch // ties to the historical path
	case indVec <= indSieve:
		return choice{route: routeVectored, predicted: indVec}
	}
	return choice{route: routeSieved, predicted: indSieve}
}

// alignedDomains maps every device to its domain of the aligned
// partition (plan.aligned's cuts) and readies the zeroed rank × domain
// byte table independentCosts fills.
func (c *Collective) alignedDomains(nd int) []int {
	devDom := make([]int, nd)
	for a := 0; a < c.naggs; a++ {
		for d := firstDrive(a, nd, c.naggs); d < firstDrive(a+1, nd, c.naggs); d++ {
			devDom[d] = a
		}
	}
	sc := &c.price
	if len(sc.flat) != c.size*c.naggs || len(sc.owner) != c.naggs {
		// First pricing on this handle, or SetOptions changed the domain count.
		sc.flat = make([]int64, c.size*c.naggs)
		sc.shares = make([][]int64, c.size)
		for r := range sc.shares {
			sc.shares[r] = sc.flat[r*c.naggs : (r+1)*c.naggs : (r+1)*c.naggs]
		}
		sc.owner = make([]int, c.naggs)
	}
	clear(sc.flat)
	return devDom
}

// independentCosts prices the independent routes: every rank's requests
// mapped onto the store's devices (blockio.SieveSpans yields both the
// vectored gather runs and the sieved covering span per device), request
// and byte costs accumulated per device — concurrent ranks serialize at
// the device queues — and the slowest device bounding the call. With
// devDom set the same walk fills the aligned candidate's share table:
// the bytes each rank holds on each domain's drives.
func (c *Collective) independentCosts(m blockio.CostModel, write bool, devDom []int) (vec, sieve time.Duration, ok bool) {
	bs := c.bs
	nd := c.group.Store().Devices()
	vecDev := make([]time.Duration, nd)
	sieveDev := make([]time.Duration, nd)
	for r, rr := range c.reqs {
		for _, q := range rr {
			spans, err := c.group.File(q.File).Set().SieveSpans(q.Vec)
			if err != nil {
				return 0, 0, false
			}
			for _, sp := range spans {
				for _, run := range sp.Runs {
					vecDev[sp.Dev] += m.ReqFixed + m.Xfer(run.N*bs)
				}
				d := m.ReqFixed + m.Xfer(sp.Blocks*bs)
				if write && sp.Useful < sp.Blocks {
					d *= 2 // read-modify-write moves the span twice
				}
				sieveDev[sp.Dev] += d
				if devDom != nil {
					c.price.shares[r][devDom[sp.Dev]] += sp.Useful * bs
				}
			}
		}
	}
	for i := 0; i < nd; i++ {
		if vecDev[i] > vec {
			vec = vecDev[i]
		}
		if sieveDev[i] > sieve {
			sieve = sieveDev[i]
		}
	}
	return vec, sieve, true
}

// exchangeCost prices the exchange phase of a two-phase candidate from
// its rank × domain share table and domain owners under the group's
// link model, the way mpp charges it: every rank injects its outgoing
// messages on its own link, the slowest sender holding the round's first
// barrier; every rank then takes delivery on its link, and the volume
// that crossed the cut drains the shared bisection pool behind the
// slowest receiver. A rank's bytes for a domain it aggregates itself
// cross nothing.
func (c *Collective) exchangeCost(m blockio.CostModel, shares [][]int64, owner []int) time.Duration {
	sc := &c.price
	if len(sc.link) != c.size {
		sc.link = make([]linkUse, c.size)
	}
	clear(sc.link)
	var cross int64
	for r := range shares {
		for a, b := range shares[r] {
			if o := owner[a]; b > 0 && o != r {
				sc.link[r].outBytes += b
				sc.link[r].outMsgs++
				sc.link[o].inBytes += b
				sc.link[o].inMsgs++
				cross += b
			}
		}
	}
	price := func(msgs int, bytes int64) time.Duration {
		d := time.Duration(msgs) * m.LinkMsg
		if m.LinkBytesPerSec > 0 {
			d += time.Duration(float64(bytes) / m.LinkBytesPerSec * float64(time.Second))
		}
		return d
	}
	var out, in time.Duration
	for _, u := range sc.link {
		out = max(out, price(u.outMsgs, u.outBytes))
		in = max(in, price(u.inMsgs, u.inBytes))
	}
	exch := out + in
	if m.BisectionBytesPerSec > 0 {
		exch += time.Duration(float64(cross) / m.BisectionBytesPerSec * float64(time.Second))
	}
	return exch
}

// unionUse maps the union footprint onto the devices: two-phase
// coalesces across ranks, so its device requests are the union's
// physically contiguous gather runs (NOT any single rank's view, and NOT
// one request per device: a union that still has holes stays fragmented
// however it is aggregated). The covered spans are split at file
// boundaries, each file's slice mapped to its device gather runs, and
// request + transfer charged per run. pl is the logical plan.
func (c *Collective) unionUse(m blockio.CostModel, pl *plan) []devUse {
	use := make([]devUse, c.group.Store().Devices())
	perFile := make([]blockio.Vec, c.group.Len())
	var off int64
	for _, sp := range pl.covered {
		for gb, n := sp.gb, sp.n; n > 0; {
			f, blk, err := c.group.Locate(gb)
			if err != nil {
				break // covered spans are always locatable
			}
			take := n
			if rem := c.group.Offset(f+1) - gb; take > rem {
				take = rem
			}
			perFile[f] = append(perFile[f], blockio.VecSeg{Block: blk, N: take, BufOff: off})
			off += take * pl.bs
			gb, n = gb+take, n-take
		}
	}
	for f, vec := range perFile {
		if len(vec) == 0 {
			continue
		}
		spans, err := c.group.File(f).Set().SieveSpans(vec)
		if err != nil {
			continue // union descriptors are always valid
		}
		for _, sp := range spans {
			u := &use[sp.Dev]
			if u.runs == 0 {
				_, u.first = c.group.File(f).Set().Locate(sp.Runs[0].B)
			}
			for _, run := range sp.Runs {
				u.cost += m.ReqFixed + m.Xfer(run.N*pl.bs)
				u.runs++
				u.blocks += run.N
			}
		}
	}
	return use
}

// logicalAccess prices the access phase of the logical partition:
// devices in parallel, plus roughly one extra request per nonempty
// domain for runs the domain split severs. With exchangeCost, an
// estimate, not a replay — good enough to rank routes.
func logicalAccess(m blockio.CostModel, pl *plan, use []devUse) time.Duration {
	var access time.Duration
	for _, u := range use {
		access = max(access, u.cost)
	}
	for a := 0; a < pl.naggs; a++ {
		if lo, hi := pl.domain(a); hi > lo {
			access += m.ReqFixed // domain split severing a run
		}
	}
	return access
}

// pipelineCost prices a two-phase schedule of the given exchange and
// access totals cut into rounds: a two-stage pipeline, each round an
// exchange of e = exchange/R feeding an access of a = access/R,
//
//	T(R) = e + a + (R−1)·max(e, a)
//
// which is exchange + access at one round.
func pipelineCost(exch, access time.Duration, rounds int64) time.Duration {
	r := time.Duration(max(rounds, 1))
	e, a := exch/r, access/r
	return e + a + (r-1)*max(e, a)
}

// alignedCost prices the aligned partition: its domains end at drive
// boundaries, so no run is severed and a drive's requests are the
// union's runs on it — at least one per round. ChunkBytes bounds the
// chunk (at one whole domain when it sets no bound, or none smaller);
// the depth of the pipeline below that bound is priced, not fixed: every
// chunk is cut in 1, 2, 4, … down to single blocks, each depth goes
// through the two-stage pipeline formula, and the cheapest is returned
// as split (ties to the shallower, so an exchange priced at nothing — a
// free interconnect — stays at one round). A deeper pipeline hides more
// of the shorter phase behind the longer one and pays one more request
// per drive per round for it. What such a request costs is the drive's
// business: one that continues where the previous round's ended is
// priced by the drive's own service-time model for the cylinders it
// crosses (blockio.CostModel.ContFixed), which for a run that stays in
// its cylinder is overhead and half a rotation — a third of ReqFixed,
// whose average seek the head never makes. Runs the footprint itself
// severs keep ReqFixed, so a price with no more rounds than runs (one
// round above all) is the price it always was. Domains of several drives
// (fewer domains than drives: chooseRoute offers them unbounded only) are
// priced at one round and no deeper.
func (c *Collective) alignedCost(m blockio.CostModel, exch time.Duration, use []devUse) (t time.Duration, split int, tried []depthPrice) {
	var dom int64 // the largest domain: one drive, unless domains are several
	for _, u := range use {
		dom = max(dom, u.blocks)
	}
	whole := c.opts.chunkCeiling(c.bs, max(dom, 1))
	for n := int64(1); ; n *= 2 {
		chunk := (whole + n - 1) / n
		rounds := (dom + chunk - 1) / chunk
		var access time.Duration
		for _, u := range use {
			if u.runs > 0 {
				fixed := time.Duration(u.runs) * m.ReqFixed
				if more := rounds - int64(u.runs); more > 0 {
					fixed += m.ContFixed(more, u.first, chunk)
				}
				access = max(access, fixed+m.Xfer(u.blocks*c.bs))
			}
		}
		cost := pipelineCost(exch, access, rounds)
		tried = append(tried, depthPrice{rounds, cost})
		if n == 1 || cost < t {
			t, split = cost, int(n)
		}
		if chunk == 1 || c.naggs != len(use) {
			return t, split, tried
		}
	}
}

// runIndependent executes one collective call as independent per-rank
// Set transfers — no exchange, every rank moving its own requests
// straight to the store, sieved or vectored. Concurrent sieved writers
// are safe under the Sets' per-device sieve locks; vectored writers are
// block-disjoint by plan validation (after LastWriterWins clipping).
func (c *Collective) runIndependent(p *mpp.Proc, sd *schedule, write, sieved bool) {
	rank := p.Rank()
	buf := c.bufs[rank]
	reqs := c.reqs[rank]
	if write && c.opts.LastWriterWins {
		reqs = sd.lwwReqs(c, rank)
	}
	rec, _, prefix := p.Probe()
	var ioTrk probe.TrackID
	if rec != nil && len(reqs) > 0 {
		ioTrk = rec.Track(fmt.Sprintf("%s/%d/io", prefix, rank))
	}
	// One way in below: the Set entry point of the call's direction, under
	// the strategy the route names. A fixed strategy consults no cost
	// model.
	xfer, strat := (*blockio.Set).ReadVecStrategy, blockio.StrategyVectored
	if write {
		xfer = (*blockio.Set).WriteVecStrategy
	}
	if sieved {
		strat = blockio.StrategySieved
	}
	var errs []error
	t0 := p.Now()
	for _, q := range reqs {
		if err := xfer(c.group.File(q.File).Set(), p.Proc, strat, blockio.CostModel{}, q.Vec, buf); err != nil {
			errs = append(errs, err)
		}
	}
	if len(reqs) > 0 {
		c.ioIv = append(c.ioIv, probe.Interval{From: t0, To: p.Now()})
		rec.Span(ioTrk, "collective", "independent", t0, p.Now(), 0, 0)
	}
	c.errs[rank] = errors.Join(errs...)
}

// clipLWW rebuilds rank's write requests with every block claimed by a
// higher rank removed: since higher ranks land their own bytes on those
// blocks, the surviving writes are block-disjoint across ranks and the
// final image equals the two-phase path's rank-ordered assembly,
// whatever order the engine schedules the independent writers in.
func (c *Collective) clipLWW(pl *plan, rank int) []VecReq {
	// Merge the higher ranks' footprints into sorted disjoint spans.
	var higher []span
	for r := rank + 1; r < len(pl.segs); r++ {
		for _, sg := range pl.segs[r] {
			higher = append(higher, span{gb: sg.gb, n: sg.n})
		}
	}
	if len(higher) == 0 {
		return c.reqs[rank]
	}
	sortSpans(higher)
	merged := higher[:0]
	for _, sp := range higher {
		if k := len(merged) - 1; k >= 0 && merged[k].gb+merged[k].n >= sp.gb {
			if end := sp.gb + sp.n; end > merged[k].gb+merged[k].n {
				merged[k].n = end - merged[k].gb
			}
			continue
		}
		merged = append(merged, sp)
	}
	// Subtract the merged spans from each of rank's segments, converting
	// the survivors back to file-local descriptors (a segment never
	// crosses a file boundary, so one Locate per piece suffices).
	byFile := make([]blockio.Vec, c.group.Len())
	emit := func(gb, n, bufOff int64) {
		file, blk, err := c.group.Locate(gb)
		if err != nil {
			return // validated segments are always locatable
		}
		byFile[file] = append(byFile[file], blockio.VecSeg{Block: blk, N: n, BufOff: bufOff})
	}
	for _, sg := range pl.segs[rank] {
		lo, end := sg.gb, sg.gb+sg.n
		for _, sp := range merged {
			if sp.gb+sp.n <= lo {
				continue
			}
			if sp.gb >= end {
				break
			}
			if sp.gb > lo {
				emit(lo, sp.gb-lo, sg.bufOff+(lo-sg.gb)*pl.bs)
			}
			if lo = sp.gb + sp.n; lo >= end {
				break
			}
		}
		if lo < end {
			emit(lo, end-lo, sg.bufOff+(lo-sg.gb)*pl.bs)
		}
	}
	var out []VecReq
	for f, vec := range byFile {
		if len(vec) > 0 {
			out = append(out, VecReq{File: f, Vec: vec})
		}
	}
	return out
}

// sortSpans sorts spans by start block (insertion sort: the lists are
// per-call request footprints, already mostly ordered).
func sortSpans(s []span) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].gb < s[j-1].gb; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
