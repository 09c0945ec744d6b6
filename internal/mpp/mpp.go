// Package mpp is a miniature MIMD runtime: it stands in for the
// "general-purpose MIMD computer architecture" the paper assumes (§2).
// A Run launches P processes (goroutines under the simulation engine),
// giving each a rank and collective operations (barrier, reductions,
// personalized exchange) in the style parallel programs of the era used.
//
// # Interconnect models
//
// The exchange is charged in one place, SparseExchange.Round
// (AlltoallvSparse is its one-round form), under two composable models,
// both off by default so communication is free and existing programs'
// timings are bit-identical:
//
//   - Per-process link (SetLink): every message a process injects or
//     receives costs a fixed per-message time plus its bytes at the
//     process's link bandwidth. Exchange time is governed by the busiest
//     process and is independent of how many other processes communicate
//     at once — an uncontended, full-bisection network.
//
//   - Shared link (SetBisection): the group shares one bisection
//     bandwidth pool. Each collective charges every process the total
//     cross-link volume of the whole exchange against the pool, so
//     exchange time grows with rank count × message volume — P ranks
//     exchanging pairwise messages of m bytes cost O(P²·m/B) rather than
//     the per-process model's O(P·m/b). This is the contention real
//     machines exhibit, and what makes aggregator placement matter for
//     collective I/O (package collective's locality-aware domains).
//
// The pool is a reservation timeline (Bisection): each exchange reserves
// its cross volume once, and a reservation issued while an earlier one
// is still draining queues behind it, so two in-flight exchanges share
// the pool's bandwidth instead of each seeing the full pool. Serialized
// exchanges (the only kind a single group can produce, since collectives
// are barrier-bracketed) are charged exactly as before; the queueing
// matters when several groups share one pool (SetBisectionPool) or when
// chunked exchanges from a pipelined collective land back to back.
//
// Chunked exchanges (NewSparseExchange / SparseExchange.Round) split one
// logical personalized exchange into several rounds so a consumer can
// overlap round k's delivery with other work — the exchange engine of
// package collective's pipelined two-phase I/O. A chunked exchange
// charges the same totals as its messages sent in one round:
// per-message setup time (SetLink's msg cost) is charged once per
// communicating pair for the whole exchange, not once per round, and
// Traffic counts one message per pair; bytes are charged as they move.
// A process that consumes nothing before the exchange ends — a rank of
// a collective write that only ships its pieces out, a rank of a read
// that only looks at its buffer afterwards — need not take part round by
// round: it posts all its rounds at once (SparseExchange.Post) and parks
// until the exchange is over, and the processes that do run the rounds
// charge its part of each — its injection holding the round's first
// barrier, its place in the queue for the pool, its delivery holding the
// second — from what it posted, to the nanosecond lockstep charges. A
// round then costs the simulation what its participants and messages
// cost, whatever the size of the group (sparse.go, "Posted rounds").
//
// Under both models a self-message (rank → itself) is a local copy and
// is never charged. Traffic reports the accumulated cross-link volume,
// counted whether or not a model is configured, so tests can measure
// how many bytes an algorithm moved over the interconnect.
//
// # Sparse exchanges
//
// The exchanges carry their payloads as explicit (rank, payload) message
// lists: a process pays only for the pairs it actually communicates
// with, payloads transfer by reference instead of by copy (or not at all:
// a message may carry only its size, Msg.Len, charged as that many
// bytes), and receive lists are recycled through a pool (RecycleRecv).
// The original dense
// forms (Alltoallv, NewExchange), which take and return rank-indexed
// slices and so touch all P slots per round, are retained in the test
// suite as comparison baselines: charging is identical by construction —
// the same per-message setup, the same byte totals against the link and
// the pool, the same Traffic counts, the same barrier structure — so a
// program moved from the dense to the sparse form reports bit-identical
// modeled times; only the wall-clock cost of simulating it changes.
package mpp

import (
	"fmt"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
)

// Proc is one process of a parallel program: a sim.Proc plus its rank
// and the group's collectives.
type Proc struct {
	*sim.Proc
	rank  int
	group *Group

	sparseEx SparseExchange // the process's recycled chunked-exchange handle
}

// Rank reports this process's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Probe reports the group's attached recorder, this rank's trace track,
// and the attach prefix (nil/zero when detached) — the hook layers
// built on a group use to inherit its flight recorder.
func (p *Proc) Probe() (*probe.Recorder, probe.TrackID, string) {
	g := p.group
	if g.rec == nil {
		return nil, 0, ""
	}
	return g.rec, g.rankTrk[p.rank], g.prPrefix
}

// Size reports the group size.
func (p *Proc) Size() int { return p.group.size }

// Barrier blocks until every process in the group has arrived.
func (p *Proc) Barrier() { p.group.barrier.Wait(p.Proc) }

// Compute models work for the given duration of virtual time.
func (p *Proc) Compute(d time.Duration) { p.Sleep(d) }

// Bisection is a shared-link bandwidth pool: a reservation timeline over
// one pool of aggregate bisection bandwidth. Exchanges reserve their
// cross-link volume in FIFO order, so a reservation issued while an
// earlier one is still draining starts only when the pool frees up —
// concurrent exchanges share the pool rather than each seeing its full
// bandwidth. A pool may be shared by several groups (SetBisectionPool)
// to model jobs contending for one interconnect. Only engine-managed
// processes may drive a pool (strict alternation is its locking).
type Bisection struct {
	bw   float64 // bytes per second
	free time.Duration
}

// NewBisection returns a pool of bytesPerSec aggregate bandwidth.
// bytesPerSec <= 0 yields a pool that never charges (uncontended).
func NewBisection(bytesPerSec float64) *Bisection {
	return &Bisection{bw: bytesPerSec}
}

// reserve books vol bytes on the pool starting no earlier than now and
// no earlier than the end of every prior reservation, returning the time
// the reservation drains. The FIFO queueing is what makes two in-flight
// exchanges share the pool instead of double-counting its bandwidth.
func (b *Bisection) reserve(now time.Duration, vol int64) time.Duration {
	start := now
	if b.free > start {
		start = b.free
	}
	b.free = start + b.drain(vol)
	return b.free
}

// drain is the time vol bytes take through the whole pool.
func (b *Bisection) drain(vol int64) time.Duration {
	return time.Duration(float64(vol) / b.bw * float64(time.Second))
}

// leave is when a process that reached the pool at `at`, in an exchange
// of vol bytes whose reservation drains at end, leaves it: once the
// reservation has drained, and no sooner than the whole volume takes
// through the pool from its own arrival (the historical per-process
// charge; the reservation ends later only when an earlier one was still
// draining).
func (b *Bisection) leave(at time.Duration, vol int64, end time.Duration) time.Duration {
	return max(at+b.drain(vol), end)
}

// Group is a set of processes executing one parallel program.
type Group struct {
	size    int
	barrier *sim.Barrier
	// interconnect model (zero: communication is free, the historical
	// default — see SetLink and SetBisection)
	linkMsg   time.Duration
	linkBytes float64    // per-process bytes per second; 0 = infinite
	bisection *Bisection // shared pool; nil = uncontended
	// cross-link traffic accounting (self-messages excluded)
	trafMsgs  int64
	trafBytes int64
	// crossVol accumulates the current collective's cross-link volume:
	// each process adds its contribution before the entry barrier and
	// subtracts it after the exit barrier, so between the barriers the
	// field holds the whole exchange's total (identical for every
	// reader) and it drains back to zero with no designated resetter —
	// a process can only re-enter the next collective once its own
	// subtraction has run, and add/subtract commute.
	crossVol int64
	// per-exchange pool reservation: the first process to charge the
	// pool between a collective's barriers makes one reservation for the
	// whole exchange and stashes its drain time; the others reuse it.
	// Reset (idempotently) after the exit barrier, like crossVol.
	exCharged bool
	exEnd     time.Duration
	// reduction scratch
	redVals []float64
	// sparse exchange state: per-rank inboxes plus, per rank, a free list
	// of the consumed receive lists it handed back through RecycleRecv
	sin       [][]RecvMsg
	inboxPool [][][]RecvMsg
	// post is the chunked exchanges' round barrier and what the processes
	// that posted their rounds left with it (sparse.go, "Posted rounds")
	post posted
	// epoch counts interconnect-model reconfigurations (SetLink,
	// SetBisection, SetBisectionPool). Layers that cache model-derived
	// decisions (collective's schedule cache) compare it to detect that a
	// cached decision was priced under a stale model.
	epoch uint64
	// flight recorder (nil: detached); one trace track per rank
	rec      *probe.Recorder
	prPrefix string
	rankTrk  []probe.TrackID
	poolWait *probe.Histogram
}

// Run launches fn on size processes under the engine and returns the
// group (join with Engine.Run or a surrounding sim.Group).
func Run(e *sim.Engine, size int, name string, fn func(p *Proc)) (*Group, *sim.Group) {
	g := &Group{
		size:    size,
		barrier: sim.NewBarrier(size),
		redVals: make([]float64, size),
	}
	var join sim.Group
	for r := 0; r < size; r++ {
		rank := r
		join.Spawn(e, fmt.Sprintf("%s-%d", name, rank), func(sp *sim.Proc) {
			fn(&Proc{Proc: sp, rank: rank, group: g})
		})
	}
	return g, &join
}

// ReduceSum performs a barrier-synchronized sum reduction: every process
// contributes v and all receive the total.
func (p *Proc) ReduceSum(v float64) float64 {
	g := p.group
	g.redVals[p.rank] = v
	p.Barrier()
	var sum float64
	for _, x := range g.redVals {
		sum += x
	}
	p.Barrier() // don't let anyone overwrite redVals before all have read
	return sum
}

// ReduceMax performs a barrier-synchronized max reduction.
func (p *Proc) ReduceMax(v float64) float64 {
	g := p.group
	g.redVals[p.rank] = v
	p.Barrier()
	max := g.redVals[0]
	for _, x := range g.redVals[1:] {
		if x > max {
			max = x
		}
	}
	p.Barrier()
	return max
}

// SetLink configures the modeled interconnect: every message a process
// injects or receives costs msg fixed time plus its bytes at bytesPerSec
// through the process's link. The zero configuration (the default) keeps
// communication free, so existing programs' timings are unchanged.
// Configure before the group's processes start communicating.
func (g *Group) SetLink(msg time.Duration, bytesPerSec float64) {
	g.linkMsg = msg
	g.linkBytes = bytesPerSec
	g.epoch++
}

// ModelEpoch reports how many times the interconnect model of the
// proc's group has been reconfigured (SetLink, SetBisection,
// SetBisectionPool). Consumers that cache decisions priced under the
// model — the collective layer's schedule cache — compare epochs to
// invalidate on reconfiguration.
func (p *Proc) ModelEpoch() uint64 { return p.group.epoch }

// LinkModel reports the group's interconnect parameters — per-message
// latency, per-process bandwidth (0 = infinite), and the shared
// bisection pool's aggregate bandwidth (0 = uncontended). What an
// exchange costs under them is RoundPrice's to say.
func (g *Group) LinkModel() (msg time.Duration, bytesPerSec, bisectionBytesPerSec float64) {
	if g.bisection != nil {
		bisectionBytesPerSec = g.bisection.bw
	}
	return g.linkMsg, g.linkBytes, bisectionBytesPerSec
}

// LinkModel reports the interconnect parameters of the proc's group.
func (p *Proc) LinkModel() (msg time.Duration, bytesPerSec, bisectionBytesPerSec float64) {
	return p.group.LinkModel()
}

// SetBisection configures the shared-link (contention) model: the whole
// group shares one pool of bytesPerSec aggregate bisection bandwidth,
// and every collective charges each process the exchange's total
// cross-link volume against the pool. Zero (the default) keeps the
// network uncontended. Composes with SetLink: per-process injection and
// receive costs are charged in addition to the pool. Configure before
// the group's processes start communicating.
func (g *Group) SetBisection(bytesPerSec float64) {
	g.epoch++
	if bytesPerSec <= 0 {
		g.bisection = nil
		return
	}
	g.bisection = NewBisection(bytesPerSec)
}

// SetBisectionPool attaches an existing pool, which may be shared with
// other groups on the same engine: their exchanges then queue on one
// reservation timeline, modeling several parallel jobs contending for
// one interconnect. nil detaches the pool. Configure before the group's
// processes start communicating.
func (g *Group) SetBisectionPool(pool *Bisection) {
	if pool != nil && pool.bw <= 0 {
		pool = nil
	}
	g.bisection = pool
	g.epoch++
}

// SetProbe attaches a flight recorder to the group: one trace track per
// rank named "<prefix>/<rank>", exchange-round and bisection-pool-wait
// spans on those tracks, a pool-wait histogram, and the group's traffic
// counters as pull gauges. Pass nil to detach. Recording only reads the
// virtual clock, so charging — and every modeled time — is unchanged.
// Configure before the group's processes start communicating.
func (g *Group) SetProbe(r *probe.Recorder, prefix string) {
	g.rec = r
	if r == nil {
		g.prPrefix, g.rankTrk, g.poolWait = "", nil, nil
		return
	}
	g.prPrefix = prefix
	g.rankTrk = make([]probe.TrackID, g.size)
	for i := range g.rankTrk {
		g.rankTrk[i] = r.Track(fmt.Sprintf("%s/%d", prefix, i))
	}
	m := r.Metrics()
	g.poolWait = m.Histogram("mpp." + prefix + ".pool_wait_s")
	m.Gauge("mpp."+prefix+".msgs", func() float64 { return float64(g.trafMsgs) })
	m.Gauge("mpp."+prefix+".bytes", func() float64 { return float64(g.trafBytes) })
}

// reservePool makes the current exchange's one reservation of vol bytes
// on the pool, from now, unless it has been made.
func (g *Group) reservePool(now time.Duration, vol int64) {
	if !g.exCharged {
		g.exEnd = g.bisection.reserve(now, vol)
		g.exCharged = true
	}
}

// Traffic reports the cross-link volume the group's collectives have
// moved so far: messages and bytes that actually crossed a link, with
// each message counted once at its source and self-messages excluded.
// Accumulated whether or not a link model is configured (accounting
// only — it never charges time).
func (g *Group) Traffic() (msgs, bytes int64) {
	return g.trafMsgs, g.trafBytes
}

// chargeLink models msgs messages totalling bytes crossing this process's
// link. A no-op (not even a yield) when no link model is configured, so
// the default timing stays bit-identical. msgs may be zero with nonzero
// bytes (later rounds of a chunked exchange, whose setup was already
// charged): only the byte cost applies then.
func (p *Proc) chargeLink(msgs int, bytes int64) {
	if d := p.group.linkTime(msgs, bytes); d > 0 {
		p.Sleep(d)
	}
}

// linkTime is what chargeLink charges: msgs per-message setups plus
// bytes at the per-process link bandwidth; zero with no link model.
func (g *Group) linkTime(msgs int, bytes int64) time.Duration {
	if (msgs <= 0 && bytes <= 0) || (g.linkMsg == 0 && g.linkBytes == 0) {
		return 0
	}
	var d time.Duration
	if msgs > 0 {
		d = time.Duration(msgs) * g.linkMsg
	}
	if g.linkBytes > 0 && bytes > 0 {
		d += time.Duration(float64(bytes) / g.linkBytes * float64(time.Second))
	}
	return d
}

// chargePool models vol total bytes crossing the group's shared
// bisection pool. Every process of the collective calls it with the same
// volume (a pure function of the exchange's payloads) between the
// exchange's barriers; the first caller reserves the volume on the pool
// timeline once, and every caller then waits for the longer of its own
// drain time (vol at pool bandwidth from its own arrival — the
// historical per-process charge) and the shared reservation's end (which
// exceeds it only when an earlier reservation is still draining, i.e.
// under cross-exchange contention). A no-op when the shared model is
// off.
func (p *Proc) chargePool(vol int64) {
	g := p.group
	if g.bisection == nil || vol <= 0 {
		return
	}
	g.reservePool(p.Now(), vol)
	if until := g.bisection.leave(p.Now(), vol, g.exEnd); until > p.Now() {
		from := p.Now()
		p.SleepUntil(until)
		if g.rec != nil {
			g.rec.Span(g.rankTrk[p.rank], "mpp", "pool.wait", from, until, 0, 0)
			g.poolWait.AddDuration(until - from)
		}
	}
}
