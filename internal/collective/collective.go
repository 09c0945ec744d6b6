// Package collective implements two-phase collective I/O over parallel
// files — the cross-process, cross-file aggregation layer above the
// per-file vectored path.
//
// The paper's shared organizations (SS, GDA and friends) coordinate
// processes at the file layer, but every process still issues its own
// device requests, so fine-grained concurrent accesses interleave at the
// drives and the seek interference the paper measures is never repaired.
// Two-phase collective I/O (Thakur/Gropp/Lusk's MPI-IO optimization) fixes
// that by trading interconnect traffic — cheap — for device requests —
// expensive:
//
//  1. Plan. The ranks' request lists are combined into a union access
//     footprint over the file group's concatenated block space, and the
//     footprint is split into contiguous file domains, one per aggregator
//     rank — contiguous in the files, or under StrategyAuto, where it
//     prices cheaper, contiguous on the drives (plan.go).
//  2. Exchange. Every rank ships the pieces of its buffer that fall in
//     each domain to that domain's aggregator (writes), or the
//     aggregators ship freshly read domains back to the ranks (reads),
//     as sparse message lists with modeled link cost. The ranks share
//     one address space, so a message carries only its size, and the
//     bytes move once, between the drives and the ranks' own buffers
//     (pipeline.go).
//  3. Access. Each aggregator moves its whole domain with one
//     blockio.BatchVec — the cross-file batch — so pieces that are
//     physically adjacent on a device coalesce into single requests even
//     across files, and each device sees at most one request per
//     aggregator per collective.
//
// Phases 2 and 3 are one loop (pipeline.go): rounds of exchange feeding
// rounds of access, chunk by chunk of every domain. One round — whole
// exchange, then whole access — is what the numbered list describes and
// what a handle runs by default; Options.ChunkBytes and StrategyAuto's
// prices cut it deeper, so the interconnect and the drives work at the
// same time.
//
// An 8-rank interleaved checkpoint that costs one device request per
// record independently collapses to one request per device per
// aggregator; TestCollectiveCoalescingWin enforces the modeled win.
package collective

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockio"
	"repro/internal/ioserver"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/probe"
)

// VecReq names one file of the collective's group and a scatter/gather
// descriptor against it: the file's fs blocks listed in Vec move to/from
// the calling rank's buffer at each segment's BufOff. A rank passes any
// number of VecReqs per collective call (several per file is fine as
// long as blocks and buffer ranges stay disjoint within the rank).
type VecReq struct {
	File int
	Vec  blockio.Vec
}

// Options tunes a collective handle. The zero value selects defaults
// (round-robin domains, one round, overlapping writes rejected), which
// keep PR 3's modeled timings bit-identical.
type Options struct {
	// Aggregators is the number of file domains (and so the maximum
	// number of aggregator ranks performing device I/O). 0 selects
	// min(group size, device count), one file domain per device's worth
	// of parallelism. By default domain a is aggregated by rank a; see
	// Locality.
	Aggregators int

	// Locality assigns each file domain to the participating rank that
	// owns the largest share of the domain's footprint (ties to the tied
	// rank given the fewest domains so far, the lowest rank among those)
	// instead of round-robin rank order. Nearly-aligned
	// access patterns then keep most bytes local — self-messages cross
	// no link — which matters whenever the interconnect is contended
	// (mpp.Group.SetBisection). One rank may aggregate several domains;
	// LastStats reports the measured split.
	Locality bool

	// Service routes the nonblocking entry points (IWriteAll/IReadAll)
	// through an I/O server: instead of each aggregator executing its
	// domain batch inline, the whole call is enqueued as one request on
	// this job's lane of an ioserver.Server and the call returns a
	// Handle immediately. The server's QoS policy then decides when the
	// call runs, multiplexing this job against every other job sharing
	// the server's devices. nil (the default) leaves the blocking calls as
	// the only entry points; WriteAll/ReadAll never consult Service, so
	// the default modeled timings stay bit-identical.
	Service *ioserver.Job

	// ChunkBytes bounds what one round moves and turns the collective
	// into a software pipeline (ROMIO's cb_buffer_size): every file
	// domain is cut into chunks of at most ChunkBytes and the exchange of
	// chunk k+1 proceeds concurrently with the device access of chunk k
	// (reads mirror this: the access of chunk k+1 overlaps the delivery
	// of chunk k), so the interconnect and the drives work at the same
	// time instead of strictly alternating. Nothing is staged: a chunk's
	// bytes move between the drives and the ranks' own buffers, so the
	// bound sizes a round's exchange and device requests, not memory. It
	// is an upper bound: sub-block values round up
	// to one block per chunk, values above the domain size mean one chunk
	// per domain — a single round, whole exchange then whole access, with
	// nothing to overlap — and on StrategyAuto's drive-aligned partition
	// the chunk may be cut finer, as many times as prices cheapest
	// (Strategy). 0 (the default): no bound — one round unless
	// StrategyAuto prices a deeper pipeline cheaper. One round under the
	// other strategies keeps their modeled timings bit-identical to
	// earlier releases.
	//
	// For the nonblocking calls (Service) it is the same bound on what is
	// in service at once, one layer down: the call still exchanges in one
	// round, and the request the I/O server receives is cut every
	// ChunkBytes of the call's bytes (whole blocks, at least one)
	// into the windows the server issues one at a time, choosing again
	// among the jobs between them — so another job waits for at most a
	// window of this one's call. The server uses a cut only when another
	// job is queued; a call it serves alone costs what it would uncut. 0:
	// one window, the whole call. On the vectored route the cuts fall
	// between the ranks' runs, a window as many whole runs as fit.
	ChunkBytes int64

	// Strategy selects the access route of a collective call. The zero
	// value (and blockio.StrategyCollective) keeps the
	// two-phase exchange; StrategyVectored/StrategySieved route every
	// rank's requests as independent vectored/sieved Set transfers
	// (skipping the exchange entirely); StrategyAuto prices the three
	// routes per call — the device requests each would send by a dry
	// issue of them through the drives' own queues and service-time
	// function (blockio.Dry), its exchange by the group's own round charge
	// (mpp.RoundPrice) — and picks the cheapest (LastPrices). For the
	// two-phase route it prices two partitions of the footprint into
	// file domains: the logical one every other setting uses (domains
	// contiguous in the files) and the drive-aligned one (domain a is
	// the footprint on drive a: one sequential run per aggregator, the
	// exchange re-sorting the ranks' pieces by drive). The aligned one is
	// priced at every pipeline depth from the chunk ChunkBytes allows (a
	// whole domain when it sets no bound) down to single blocks — each
	// chunk cut in 2, 4, 8, … — each depth in equal rounds and in rounds
	// ramped in proportion to the round (growing for a write, shrinking
	// for a read, within the ChunkBytes bound), and runs at the cheapest,
	// ties to the shallower and to equal rounds, so a free interconnect
	// stays at one round (LastDepth reports it); domains of several drives
	// each (fewer aggregators than drives) are priced at one round only.
	// The other settings never price and run the equal rounds ChunkBytes
	// asks for: one, when it is 0.
	// LastRoute says "two-phase" for either. Plan validation and
	// cross-rank overlap rejection are identical on every route.
	//
	// The nonblocking entry points (Service) take two of the routes:
	// two-phase on the logical partition, and vectored, whose request to
	// the server is every rank's runs as they are, none joined to another
	// rank's — joining them is what the exchange pays for. StrategyAuto
	// prices the two in the shape they run in: one whole-call exchange
	// round then the call-wide request, against the ranks' runs. The
	// server issues no read-modify-write, so StrategySieved runs them
	// two-phase, as does a call some rank's requests of which are no
	// valid independent descriptor.
	Strategy blockio.Strategy
}

// chunkCeiling is the largest chunk, in blocks, ChunkBytes allows of a
// dom-block domain: whole blocks, at least one, at most the domain — and
// the whole domain when ChunkBytes sets no bound.
func (o Options) chunkCeiling(bs, dom int64) int64 {
	if o.ChunkBytes <= 0 {
		return dom
	}
	return min(max(o.ChunkBytes/bs, 1), dom)
}

// ExchangeStats reports where one collective call's exchange-phase bytes
// went — BytesMoved crossed the interconnect (rank ≠ domain aggregator),
// BytesLocal stayed on the aggregating rank (self-messages, free under
// both link models) — and how the call's two phases spent their time.
// Payload bytes are counted once per direction, so reads and writes of
// the same footprint report the same split.
//
// The time fields are unions of busy intervals across all ranks in the
// call's virtual-time window: ExchangeTime is the time at least one rank
// was inside an exchange round (including the collective's rendezvous
// waits), AccessTime the time at least one
// aggregator had device requests in flight, and Overlap the time both
// were true at once. A one-round call reports zero Overlap on writes —
// its whole exchange precedes its whole access — and on reads can report
// only rendezvous overlap (ranks parked at the exchange while
// aggregators finish reading); real exchange/access concurrency needs
// two rounds or more, which report it here.
// 1 - ExchangeTime/elapsed is the link idle fraction.
type ExchangeStats struct {
	BytesMoved int64
	BytesLocal int64

	ExchangeTime time.Duration
	AccessTime   time.Duration
	Overlap      time.Duration
}

// SameBytes reports whether two calls moved the same exchange split
// (the timing fields differ between reads and writes of one footprint;
// the byte split may not).
func (st ExchangeStats) SameBytes(o ExchangeStats) bool {
	return st.BytesMoved == o.BytesMoved && st.BytesLocal == o.BytesLocal
}

// Collective is a collective-I/O handle over a group of files sharing
// one device array, used by all ranks of one mpp group. ReadAll and
// WriteAll are collective calls: every rank of the group must call them
// the same number of times, in the same order (ranks with nothing to
// move pass empty request lists). The handle may be reused across calls;
// it must not be shared between different-sized groups.
type Collective struct {
	group *pfs.FileGroup
	size  int
	naggs int
	bs    int64
	opts  Options

	// per-call scratch, indexed by rank; safe under the engine's strict
	// alternation
	reqs  [][]VecReq
	bufs  [][]byte
	errs  []error
	err   error // the call's errors, joined by rank 0
	sched *schedule
	plErr error
	route route
	stats ExchangeStats
	// predicted is what StrategyAuto priced the call's chosen candidate
	// at (LastPredicted), prices what it priced every candidate at
	// (LastPrices).
	predicted time.Duration
	prices    Prices
	// per-call phase busy intervals, appended by every rank (strict
	// alternation again) and folded into stats by rank 0 at the end.
	// Recording is pure Now() reads, so it never perturbs the schedule.
	commIv []probe.Interval
	ioIv   []probe.Interval

	// Nonblocking-call scratch: the Handle under construction, built by
	// rank 0 between the plan barriers and grabbed by every rank right
	// after (nonblock.go). Outstanding handles own their state, so this
	// slot is free for reuse the moment every rank has copied it. spaces
	// holds the bound spaces of finished nonblocking calls, for the next
	// calls to bind: as many as were ever outstanding at once.
	hScratch *Handle
	spaces   []blockio.Space

	// Sparse-exchange scratch, shared by all ranks under strict
	// alternation. A message carries only its size: the drives move the
	// bytes between the ranks' buffers and the files (pipeline.go). dstIdx
	// (invariant: all -1 outside a sizing call) maps destination rank to
	// its message while one rank sizes a round (sized); sizing never parks
	// the engine, so one shared array serves every rank. msgScratch holds
	// per-rank outgoing message lists, reused per call.
	dstIdx     []int
	msgScratch [][]mpp.Msg

	// Aggregator state, per rank, made on a rank's first turn as an
	// aggregator and rebound call after call (pipeline.go).
	aggs []*aggState

	// Schedule capture/replay state (schedule.go): the cached
	// schedules in MRU order, the interconnect-model stamp they were
	// built under, the fingerprint scratch, and the counters
	// PlanCacheStats reports.
	cached     []*schedule
	cacheStamp modelStamp
	sigScratch []uint64
	spare      [][]part // evicted schedules' pieces, for the next tables

	hits, misses, evictions, invalidations uint64

	// Route-pricing scratch (strategy.go), the memory of a schedule's
	// build that no schedule keeps (planScratch, plan.go), and the
	// flight-recorder handles that report what was priced (explain.go).
	price priceScratch
	build planScratch
	ex    explainProbe
	// forcePart, when set, replaces route pricing with a fixed choice on
	// every blocking call — the test hook that runs the differential
	// harness on the aligned partition and the win tests at a pipeline
	// depth the prices would not pick (ForceAligned).
	forcePart *choice
}

// ForceAligned is the test hook of the module's own tests, out of reach
// of the public facade: every blocking call on c runs two-phase on the
// drive-aligned partition with every chunk cut in split, priced or not,
// on the equal round table. split 0 hands the choice back to
// Options.Strategy.
func ForceAligned(c *Collective, split int) {
	c.forcePart = nil
	if split > 0 {
		c.forcePart = &choice{route: routeTwoPhase, aligned: true, split: split}
	}
	c.flushSchedules()
}

// Open builds a collective handle for a size-rank group over the file
// group.
func Open(g *pfs.FileGroup, size int, opts Options) (*Collective, error) {
	if g == nil {
		return nil, fmt.Errorf("collective: nil file group")
	}
	if size <= 0 {
		return nil, fmt.Errorf("collective: group size %d", size)
	}
	naggs := opts.Aggregators
	if naggs <= 0 {
		naggs = g.Store().Devices()
	}
	if naggs > size {
		naggs = size
	}
	c := &Collective{
		group:      g,
		size:       size,
		naggs:      naggs,
		bs:         int64(g.Store().BlockSize()),
		opts:       opts,
		reqs:       make([][]VecReq, size),
		bufs:       make([][]byte, size),
		errs:       make([]error, size),
		dstIdx:     make([]int, size),
		msgScratch: make([][]mpp.Msg, size),
	}
	for i := range c.dstIdx {
		c.dstIdx[i] = -1
	}
	return c, nil
}

// Aggregators reports the number of file domains (with Options.Locality
// several may be aggregated by one rank).
func (c *Collective) Aggregators() int { return c.naggs }

// LastStats reports the exchange split (bytes moved over the
// interconnect vs bytes kept local) of the most recent successfully
// planned ReadAll/WriteAll. Valid once that call has returned on every
// rank; a reused handle overwrites it per call.
func (c *Collective) LastStats() ExchangeStats { return c.stats }

// WriteAll writes every rank's requests as one two-phase collective:
// ranks exchange their pieces with the domain aggregators, and each
// aggregator issues its whole domain as one cross-file batch. All ranks
// receive the same error (the join of every rank's failures).
func (c *Collective) WriteAll(p *mpp.Proc, reqs []VecReq, buf []byte) error {
	return c.run(p, true, reqs, buf)
}

// ReadAll reads every rank's requests as one two-phase collective: the
// aggregators read their domains as cross-file batches, then ship each
// rank its pieces — the read mirror of WriteAll.
func (c *Collective) ReadAll(p *mpp.Proc, reqs []VecReq, buf []byte) error {
	return c.run(p, false, reqs, buf)
}

// run is the collective engine shared by ReadAll/WriteAll.
func (c *Collective) run(p *mpp.Proc, write bool, reqs []VecReq, buf []byte) error {
	if p.Size() != c.size {
		// A group-size mismatch is a programming error; returning before
		// the first barrier leaves the other ranks waiting, which the
		// engine reports as a deadlock naming them.
		return fmt.Errorf("collective: handle opened for %d ranks, called from a %d-rank group", c.size, p.Size())
	}
	rank := p.Rank()
	rec, trk, prefix := p.Probe()
	c.reqs[rank], c.bufs[rank], c.errs[rank] = reqs, buf, nil
	p.Barrier()
	// One rank derives the shared schedule; it is a pure function of the
	// gathered requests and the machine model, so any rank would compute
	// the same one — which is also why a cached replay (scheduleFor) is
	// indistinguishable from a fresh build.
	if rank == 0 {
		c.sched, c.plErr = c.scheduleFor(p, write, false)
		if c.plErr == nil {
			// Route selection happens only after the plan validates, so
			// every strategy rejects bad requests (cross-rank write
			// overlap above all) with byte-identical errors.
			c.route = c.sched.route
			c.predicted, c.prices = c.sched.predicted, c.sched.prices
			c.stats = c.sched.stats // zero on the independent routes: they exchange nothing
			rec.Instant(trk, "collective", "plan", p.Now())
		}
		c.commIv, c.ioIv = c.commIv[:0], c.ioIv[:0]
	}
	p.Barrier()
	if c.plErr != nil {
		return c.plErr
	}
	sd := c.sched
	pl := sd.pl
	tPlan := p.Now()
	switch {
	case c.route != routeTwoPhase:
		c.runIndependent(p, sd, write, c.route == routeSieved)
	case pl.total > 0:
		// One executor for every two-phase plan with a footprint: rounds of
		// exchange feeding rounds of access, one round when nothing cuts the
		// domains. A call nobody asked anything of goes straight to the
		// closing barriers.
		c.runPipelined(p, sd, write)
	}
	p.Barrier()
	if rank == 0 {
		c.stats.ExchangeTime = probe.Union(c.commIv)
		c.stats.AccessTime = probe.Union(c.ioIv)
		c.stats.Overlap = probe.Overlap(c.commIv, c.ioIv)
		c.explain(rec, prefix, sd, tPlan, p.Now())
		// Every rank has left its slot by now: join them once, for all.
		var errs []error
		for r, err := range c.errs {
			if err != nil {
				errs = append(errs, fmt.Errorf("rank %d: %w", r, err))
			}
		}
		c.err = errors.Join(errs...)
	}
	// Hold everyone until rank 0 has joined the errors: a rank returning
	// early could re-enter on a reused handle and clear its slot first
	// (TestCollectiveReuseErrorVisibility). Rank 0 joins the next call's
	// only after every rank has re-entered, so each returns this one.
	p.Barrier()
	return c.err
}

// RecordRangeReq builds the VecReq covering records [firstRec,
// firstRec+nRec) of group file `file`, with the records' bytes at
// rank-buffer offset bufOff — the record-list convenience over the
// block-range API. The file's framing must be dense (records tile fs
// blocks with no padding) and the record range must cover whole fs
// blocks, so that ranks' byte ranges remain block-disjoint.
func RecordRangeReq(g *pfs.FileGroup, file int, firstRec, nRec, bufOff int64) (VecReq, error) {
	if file < 0 || file >= g.Len() {
		return VecReq{}, fmt.Errorf("collective: file %d of %d", file, g.Len())
	}
	m := g.File(file).Mapper()
	if !m.Dense() {
		return VecReq{}, fmt.Errorf("collective: file %q frames records with padding; use block-range requests", g.File(file).Name())
	}
	if firstRec < 0 || nRec < 0 || firstRec+nRec > m.NumRecords() {
		return VecReq{}, fmt.Errorf("collective: records [%d,%d) of %d", firstRec, firstRec+nRec, m.NumRecords())
	}
	bs := int64(m.FSBlockSize())
	rs := int64(m.RecordSize())
	if (firstRec*rs)%bs != 0 || (nRec*rs)%bs != 0 {
		return VecReq{}, fmt.Errorf("collective: records [%d,%d) of size %d do not cover whole %d-byte fs blocks",
			firstRec, firstRec+nRec, rs, bs)
	}
	return VecReq{File: file, Vec: blockio.Vec{{
		Block:  firstRec * rs / bs,
		N:      nRec * rs / bs,
		BufOff: bufOff,
	}}}, nil
}
