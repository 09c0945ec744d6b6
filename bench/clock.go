package main

import (
	"runtime"
	"time"

	pario "repro"
	"repro/internal/stats"
)

// counters is one snapshot of every exact per-layer count the program
// exposes through its public accessors. Two snapshots bracket the timed
// ops; all per-layer "*_per_op" metrics are their difference ÷ ops.
type counters struct {
	devReqs, devBytes, devSeeks, devSeekCyls, devMerged int64
	devBusy                                             time.Duration
	mppMsgs, mppBytes                                   int64
	laneDone                                            int64
	laneBusy                                            time.Duration
	cacheHits, cacheMisses                              uint64
	// Recorder-backed (zero on untraced runs).
	dispatches, spawns, batches, runs, batchBytes int64
	spans                                         int
}

// world is the set of program objects a workload's fixture built, as the
// clock needs them to snapshot counters.
type world struct {
	m      *pario.Machine
	groups []*pario.RankGroup
	lanes  []*pario.IOJob
	cols   []*pario.Collective
	rec    *pario.Recorder
}

// attach wires a flight recorder across the machine; rank groups launched
// afterwards by GoRanks attach themselves.
func (w *world) attach(rec *pario.Recorder) {
	w.rec = rec
	w.m.SetProbe(rec)
}

func (w *world) snapshot() counters {
	var c counters
	for _, d := range w.m.Disks {
		st := d.Stats()
		c.devReqs += st.Requests()
		c.devBytes += st.Bytes()
		c.devSeeks += st.Seeks
		c.devSeekCyls += st.SeekCyls
		c.devMerged += st.Merged
		c.devBusy += st.BusyTime
	}
	for _, g := range w.groups {
		msgs, bytes := g.Traffic()
		c.mppMsgs += msgs
		c.mppBytes += bytes
	}
	for _, l := range w.lanes {
		st := l.Stats()
		c.laneDone += st.Completed
		c.laneBusy += st.Busy
	}
	for _, col := range w.cols {
		st := col.PlanCacheStats()
		c.cacheHits += st.Hits
		c.cacheMisses += st.Misses
	}
	if w.rec != nil {
		m := w.rec.Metrics()
		c.dispatches = m.Counter("sim.dispatches").Value()
		c.spawns = m.Counter("sim.spawns").Value()
		c.batches = m.Counter("blockio.batches").Value()
		c.runs = m.Counter("blockio.runs").Value()
		c.batchBytes = m.Counter("blockio.bytes").Value()
		c.spans = len(w.rec.Spans())
	}
	return c
}

// collAcc sums what Collective.LastStats / LastRoute report over the
// timed ops (observed by one rank per collective call).
type collAcc struct {
	calls                     int
	exchange, access, overlap time.Duration
	moved, local              int64
	routes                    map[string]int
}

func (a *collAcc) observe(col *pario.Collective, blocking bool) {
	st := col.LastStats()
	a.calls++
	a.exchange += st.ExchangeTime
	a.access += st.AccessTime
	a.overlap += st.Overlap
	a.moved += st.BytesMoved
	a.local += st.BytesLocal
	if a.routes == nil {
		a.routes = map[string]int{}
	}
	route := "two-phase" // nonblocking calls always run two-phase
	if blocking {
		route = col.LastRoute()
	}
	a.routes[route]++
}

// clock measures one run on both clocks. The workload calls tick once per
// completed op with the engine's virtual time and the op's modeled
// latency; the first warm ticks are discarded, the next ops are timed.
// Host time is stamped every chunk ops (1 except in multijob_qos, whose
// ops complete on several jobs' ranks and are stamped per epoch), so a
// per-op host latency is a chunk's wall time ÷ chunk. Beside the stamps the
// clock measures the host's core clock (speed.go) and, once the run is
// over, scales every interval by it. Under the engine's strict alternation
// exactly one simulated process runs at a time, so the clock needs no
// locking.
type clock struct {
	warm, ops, chunk int
	quantum          int // ops in one cycle of the workload's op mix
	w                *world

	seen                    int
	hostLast                time.Time
	stamps                  []hostStamp
	spins                   []spinAt
	lastSpin                time.Time
	hostRaw                 time.Duration // timed ops only, as this host's clock read it
	speed                   float64       // scale factor of the median spin of the timed ops
	virtStart, virtEnd      time.Duration
	armed                   time.Time
	armedSpeed              float64
	firstOp                 float64   // scaled ms per op over the first (cold) chunk
	hostOp                  []float64 // scaled ms per op, one entry per chunk
	hostCycle               []float64 // scaled ms per op, one entry per cycle of the op mix
	hostRate                []float64 // scaled ops/s, one entry per window of the timed phase
	virtOp                  []float64 // ms per op
	mem0, mem1              runtime.MemStats
	snap0, snap1            counters
	coll                    collAcc
	verify                  time.Duration // host time spent checking read-back bytes (timed ops only)
	payload                 int64         // bytes the workload asked to move (timed ops only)
	records, hits, lookups  int64         // core layer (org_scan only)
	failed                  int           // ops (warm-up included) that errored or read back wrong bytes
	verifyAll, verifyFailed int           // final image: blocks checked, blocks wrong
}

// hostStamp is one host time stamp: the wall time since the previous one and
// the ops it covers.
type hostStamp struct {
	d   time.Duration
	ops int
}

// spinAt is one core-clock measurement, taken after stamp number after.
type spinAt struct {
	after int
	ns    float64
}

func newClock(warm, ops, chunk, quantum int, w *world) *clock {
	return &clock{warm: warm, ops: ops, chunk: chunk, quantum: quantum, w: w}
}

// timing reports whether the next op to complete is a timed one.
func (c *clock) timing() bool { return c.seen >= c.warm && c.seen < c.warm+c.ops }

// arm marks the start of the first op; with no warm-up the timed phase
// starts here too.
func (c *clock) arm(vnow time.Duration) {
	c.armedSpeed = speedOf([]float64{spin(), spin(), spin()})
	c.armed = time.Now()
	if c.warm == 0 {
		c.begin(vnow)
	}
}

func (c *clock) begin(vnow time.Duration) {
	c.snap0 = c.w.snapshot()
	runtime.ReadMemStats(&c.mem0)
	c.virtStart = vnow
	c.hostLast = time.Now()
}

// tick records one completed op.
func (c *clock) tick(vnow, vlat time.Duration) {
	c.seen++
	if c.seen == c.chunk {
		c.firstOp = ms(time.Since(c.armed)) * c.armedSpeed / float64(c.chunk)
	}
	n := c.seen - c.warm
	switch {
	case n < 0 || n > c.ops:
		return
	case n == 0:
		c.begin(vnow)
		return
	}
	c.virtOp = append(c.virtOp, ms(vlat))
	if n%c.chunk == 0 || n == c.ops {
		k := n % c.chunk
		if k == 0 {
			k = c.chunk
		}
		now := time.Now()
		c.stamps = append(c.stamps, hostStamp{d: now.Sub(c.hostLast), ops: k})
		if n == c.ops || now.Sub(c.lastSpin) >= spinEvery {
			c.spins = append(c.spins, spinAt{after: len(c.stamps), ns: spin()})
			now = time.Now() // the spin is not the program's time
			c.lastSpin = now
		}
		c.hostLast = now
	}
	if n == c.ops {
		c.virtEnd = vnow
		runtime.ReadMemStats(&c.mem1)
		c.snap1 = c.w.snapshot()
		c.scale()
	}
}

// rateWindows is how many windows the timed phase is cut into for
// host_ops_per_s. Each holds the same whole number of cycles of the op mix,
// GC and all; the median window is reported, so a burst of stolen CPU
// spoils its own window and not the run.
const rateWindows = 16

// scale turns the stamps into the host figures: each interval times the
// scale factor its neighbouring spins agree on (their median).
func (c *clock) scale() {
	perWindow := max(1, c.ops/c.quantum/rateWindows) * c.quantum
	var cycOps, winOps int
	var cycTime, winTime time.Duration
	all := make([]float64, 0, len(c.spins))
	for _, sp := range c.spins {
		all = append(all, sp.ns)
	}
	c.speed = speedOf(all)
	near := make([]float64, 0, 2*spinWindow+1)
	j := 0 // first spin taken after stamp i or later
	for i, st := range c.stamps {
		for j < len(c.spins)-1 && c.spins[j].after <= i {
			j++
		}
		near = near[:0]
		for k := max(0, j-spinWindow); k < min(len(c.spins), j+spinWindow+1); k++ {
			near = append(near, c.spins[k].ns)
		}
		d := time.Duration(float64(st.d) * speedOf(near))
		c.hostRaw += st.d
		c.hostOp = append(c.hostOp, ms(d)/float64(st.ops))
		cycOps += st.ops
		cycTime += d
		if cycOps >= c.quantum {
			c.hostCycle = append(c.hostCycle, ms(cycTime)/float64(cycOps))
			cycOps, cycTime = 0, 0
		}
		winOps += st.ops
		winTime += d
		if winOps >= perWindow {
			c.hostRate = append(c.hostRate, float64(winOps)/winTime.Seconds())
			winOps, winTime = 0, 0
		}
	}
}

func (c *clock) modeled() time.Duration { return c.virtEnd - c.virtStart }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (always an observed value).
func quantile(xs []float64, q float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Quantile(q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// delta is what the program's counters advanced by over the timed ops.
func (c *clock) delta() counters {
	d, s := c.snap1, c.snap0
	d.devReqs -= s.devReqs
	d.devBytes -= s.devBytes
	d.devSeeks -= s.devSeeks
	d.devSeekCyls -= s.devSeekCyls
	d.devMerged -= s.devMerged
	d.devBusy -= s.devBusy
	d.mppMsgs -= s.mppMsgs
	d.mppBytes -= s.mppBytes
	d.laneDone -= s.laneDone
	d.laneBusy -= s.laneBusy
	d.cacheHits -= s.cacheHits
	d.cacheMisses -= s.cacheMisses
	d.dispatches -= s.dispatches
	d.spawns -= s.spawns
	d.batches -= s.batches
	d.runs -= s.runs
	d.batchBytes -= s.batchBytes
	d.spans -= s.spans
	return d
}

// exactState is everything about a run that must repeat bit-for-bit for a
// given seed: modeled times, the program's counters over the timed ops,
// and what the collectives reported.
type exactState struct {
	modeled time.Duration
	virtOp  []float64
	counts  counters
	coll    collAcc
	payload int64
	records int64
}

func (c *clock) exact() exactState {
	return exactState{modeled: c.modeled(), virtOp: c.virtOp, counts: c.delta(), coll: c.coll, payload: c.payload, records: c.records}
}
