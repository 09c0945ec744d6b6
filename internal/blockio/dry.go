// Dry issue: the fifth stage of the transfer pipeline (describe → map →
// transform → issue, and beside issue its dry twin). A route is priced
// by walking the very runs it would send — a descriptor's mapped runs,
// their sieved covering runs with the second pass of a read-modify-write,
// the windows of a BatchPlan — through the drives' queues without the
// drives: every request goes to its drive's queue, every queue is served
// in the order the drive's discipline would serve it from where its head
// stands, each request charged device.ServiceTime for the cylinders the
// head actually crosses to reach it, drives in parallel. Nothing is
// estimated; the price of a request is computed by the function that
// charges it.
//
// For one process on idle drives, and for any number of processes that
// issue at one instant, the dry price IS the modeled time of the issue, to
// the nanosecond, whatever the layout, the descriptor, the discipline,
// the merging and the head positions (FuzzDryIssue). A price can
// therefore only be wrong where the dry walk and the live walk differ,
// and they differ in these stated ways:
//
//   - everything queued between two flushes is taken to reach its drive at
//     one instant. Live, a process that issues several transfers in a row
//     reaches the drives again only when the one before has returned, and
//     a drive may idle meanwhile;
//   - processes are taken to reach the drives in the order their transfers
//     were queued. Live it is the order the scheduler released them in —
//     after a barrier, a rotation of rank order that depends on who
//     arrived last;
//   - sieved writers on one drive go one after the other, each a read and
//     a write: the file's per-device sieve lock admits one at a time.
//     Writers to different files hold different locks and could
//     interleave;
//   - the drives are taken to be idle when the walk starts;
//   - a parked walk (Park: a price that must not depend on the moment)
//     charges the first request of every drive no seek and merges no
//     waiting requests.
package blockio

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"repro/internal/device"
)

// DeviceModeler is implemented by stores that can report their drives'
// queue and service-time model (Direct, stripe.Parity, stripe.Mirror).
// Stores without it are priced as 1989 default drives served first come,
// first served.
type DeviceModeler interface {
	DeviceModel() device.Model
}

// DeviceModel implements DeviceModeler for plain disk arrays.
func (d *Direct) DeviceModel() device.Model { return d.disks[0].Model() }

// Dry is a dry issue in progress: a head tracker and a queue per drive of
// one store. Queue what a route would send (Vectored, Sieved, Window,
// Extent), Flush to serve it and learn how long the slowest drive took;
// the heads stay where the flush left them, so a second flush prices what
// the route would send next (its next round, its write-back). A Dry holds
// no reference to what it was shown and allocates only while its queues
// grow: keep one per handle.
type Dry struct {
	store    Store
	model    device.Model
	bs       int64
	drv      []dryDrive
	merge    bool  // waiting neighbours merge: the drives' setting, unless parked
	arrivals int   // requests queued since the last flush
	ord, in  []int // mergeWaiting's scratch
}

type dryDrive struct {
	arm     device.Arm    // Cyl < 0: unknown — reaching the first request crosses nothing
	q       []dryReq      // queued since the last flush
	shuffle bool          // q is not in arrival order
	busy    time.Duration // served since the last flush
}

// dryReq is one queued request: n blocks at physical block pb, the seq-th
// arrival of the flush. A sieved write is one entry though it is up to
// two requests: it holds its drive from the first to the last.
type dryReq struct {
	pb, n int64
	seq   int
	rmw   int8 // sieved write: rmwWrite, or rmwReadWrite when the cover has holes
}

const (
	rmwWrite = iota + 1
	rmwReadWrite
)

func byArrival(a, b dryReq) int { return cmp.Compare(a.seq, b.seq) }
func byBlock(a, b dryReq) int   { return cmp.Compare(a.pb, b.pb) }

// later is added to the arrival number of every request of a transfer
// but its first: a transfer's first run reaches its drive at the call
// instant and the others after the caller yields once (Sleep(0), in
// Direct.Transfer), which it resumes from once every process runnable at
// that instant has sent its own first.
const later = 1 << 40

// Bind points the dry issue at store, whose drives it models from then
// on, and parks the heads.
func (d *Dry) Bind(store Store) {
	if d.store != store {
		d.store = store
		d.bs = int64(store.BlockSize())
		if dm, ok := store.(DeviceModeler); ok {
			d.model = dm.DeviceModel()
		} else {
			d.model = device.Model{Geometry: device.DefaultGeometry1989(), Timing: device.DefaultTiming1989()}
		}
		d.drv = slices.Grow(d.drv[:0], store.Devices())[:store.Devices()]
	}
	d.Park()
}

// Park empties the queues and starts a price that is a function of what
// is queued and of the drives' model alone — a collective schedule is
// priced once and replayed (internal/collective). It forgets where the
// heads stand: the first request a drive then serves is charged no seek.
// And waiting requests do not merge: which neighbours the drive's queue
// joins depends on the order processes reach it in, down to which of them
// the scheduler happened to release first, and a price that counted on it
// would be a price for one history. What the queue does merge, live, is a
// gain the price leaves out.
func (d *Dry) Park() {
	for i := range d.drv {
		dd := &d.drv[i]
		dd.arm, dd.q, dd.shuffle, dd.busy = device.Arm{Cyl: -1, Up: true}, dd.q[:0], false, 0
	}
	d.merge, d.arrivals = false, 0
}

// Sync empties the queues and starts a price of what the store's drives
// would do now: the heads where the drives have theirs, waiting requests
// merged if the drives merge them — on a store whose devices are drives
// one to one (Direct); any other is parked.
func (d *Dry) Sync() {
	d.Park()
	if direct, ok := d.store.(*Direct); ok {
		for i, dk := range direct.disks {
			d.drv[i].arm = dk.Arm()
		}
		d.merge = d.model.MergeQueued
	}
}

// Extent queues one request, a transfer of its own: n blocks at absolute
// physical block pb of device dev.
func (d *Dry) Extent(dev int, pb, n int64) { d.queue(dev, dryReq{pb: pb, n: n, seq: d.next()}) }

// next numbers an arrival.
func (d *Dry) next() int {
	d.arrivals++
	return d.arrivals
}

func (d *Dry) queue(dev int, r dryReq) {
	dd := &d.drv[dev]
	if k := len(dd.q) - 1; k >= 0 && r.seq < dd.q[k].seq {
		dd.shuffle = true
	}
	dd.q = append(dd.q, r)
}

// Vectored queues the vectored execution of mapped runs — one process's
// transfer, read or write: a request per run.
func (d *Dry) Vectored(runs []Run) {
	for i, r := range runs {
		d.queue(r.Dev, dryReq{pb: r.PBlock, n: r.N, seq: d.next() + min(i, 1)*later})
	}
}

// Window queues window w of a prepared plan, as one process issues it.
func (d *Dry) Window(pl *BatchPlan, w int) { d.Vectored(pl.wins[w]) }

// Sieved queues the sieved execution (sieveRuns) of mapped runs, one
// process's transfer: each device's runs become one covering request. A
// write is the read-modify-write sievedWrite performs under the device's
// sieve lock: the covering read if the cover has holes, then the covering
// write, which starts where the read left the head.
func (d *Dry) Sieved(runs []Run, write bool) {
	covers := 0
	for i := 0; i < len(runs); covers++ {
		j := deviceEnd(runs, i)
		r := dryReq{pb: runs[i].PBlock, seq: d.next() + min(covers, 1)*later}
		r.n = runs[j-1].PBlock + runs[j-1].N - r.pb
		if write {
			r.rmw = rmwWrite
			if j-i > 1 {
				r.rmw = rmwReadWrite
			}
		}
		d.queue(runs[i].Dev, r)
		i = j
	}
}

// serve charges dd one request of n blocks at pb and moves its head
// there.
func (d *Dry) serve(dd *dryDrive, pb, n int64) {
	cyl := d.cyl(pb)
	cross := 0
	if dd.arm.Cyl >= 0 {
		cross = max(cyl-dd.arm.Cyl, dd.arm.Cyl-cyl)
	}
	dd.busy += device.ServiceTime(d.model.Geometry, d.model.Timing, cross, int(n*d.bs))
	dd.arm.Cyl = cyl
}

// AtLeast bounds from below what a drive takes over requests requests
// moving blocks blocks between them, wherever they lie: each pays the
// controller and half a rotation, and the blocks pay their transfer (a
// nanosecond a request is allowed for rounding each transfer down). A
// candidate whose bound is no better than a price in hand need not be
// walked.
func (d *Dry) AtLeast(requests, blocks int64) time.Duration {
	m := d.model
	fixed := device.ServiceTime(m.Geometry, m.Timing, 0, 0)
	return time.Duration(requests)*(fixed-1) + device.ServiceTime(m.Geometry, m.Timing, 0, int(blocks*d.bs)) - fixed
}

func (d *Dry) cyl(pb int64) int { return int(pb / int64(d.model.BlocksPerCyl)) }

// Flush serves every drive's queue as the drive would, were it idle and
// the whole queue to arrive at this instant: the first arrival goes
// straight into service, the others wait, merge with waiting neighbours
// where the drive merges, and are taken in the order of its discipline —
// arrival order, or the elevator's sweep from the head on in the
// direction it was travelling, and back. Sieved writes never wait at the
// drive but at their device's sieve lock, which admits them in arrival
// order whatever the discipline. The drives work in parallel: Flush
// reports the time the slowest took, and leaves every head where its last
// request put it.
func (d *Dry) Flush() time.Duration {
	var slowest time.Duration
	for i := range d.drv {
		dd := &d.drv[i]
		q := dd.q
		if len(q) == 0 {
			continue
		}
		if dd.shuffle {
			slices.SortFunc(q, byArrival)
		}
		if q[0].rmw != 0 {
			for _, r := range q {
				if r.rmw == rmwReadWrite {
					d.serve(dd, r.pb, r.n)
				}
				d.serve(dd, r.pb, r.n)
			}
		} else {
			d.serve(dd, q[0].pb, q[0].n)
			d.serveWaiting(dd, q[1:])
		}
		slowest = max(slowest, dd.busy)
		dd.q, dd.shuffle, dd.busy = q[:0], false, 0
	}
	d.arrivals = 0
	return slowest
}

// serveWaiting serves the requests that found the drive busy, q in
// arrival order.
func (d *Dry) serveWaiting(dd *dryDrive, q []dryReq) {
	if len(q) == 0 {
		return
	}
	scan := d.model.Sched == device.SCAN
	if scan || d.merge {
		slices.SortFunc(q, byBlock)
	}
	if d.merge {
		q = d.mergeWaiting(q)
	}
	if !scan {
		if d.merge {
			slices.SortFunc(q, byArrival)
		}
		for _, r := range q {
			d.serve(dd, r.pb, r.n)
		}
		return
	}
	// The elevator: the nearest request at or beyond the head in the
	// direction of travel, until there is none, then the other way
	// (device.Disk.selectNext). Everything is here already, sorted, so
	// each sweep is a walk.
	head := dd.arm.Cyl
	split := sort.Search(len(q), func(i int) bool { // where the upward sweep begins
		if dd.arm.Up {
			return d.cyl(q[i].pb) >= head
		}
		return d.cyl(q[i].pb) > head
	})
	sweeps := [2][]dryReq{q[split:], q[:split]}
	if !dd.arm.Up {
		sweeps[0], sweeps[1] = sweeps[1], sweeps[0]
	}
	for pass, part := range sweeps {
		if len(part) == 0 {
			continue
		}
		if pass == 1 {
			dd.arm.Up = !dd.arm.Up
		}
		if !dd.arm.Up {
			slices.Reverse(part)
		}
		for _, r := range part {
			d.serve(dd, r.pb, r.n)
		}
	}
}

// mergeWaiting merges the waiting requests q, sorted by block, as the
// drive's queue merges them while they arrive (device.Disk.tryMerge): an
// arrival adjacent to a waiting request joins it — the one ahead in line,
// if it has one on either side — and the two it may then lie between are
// not joined in turn. Merged requests are stretches of q, so each is kept
// in the entry of its first arrival, whose place in line it has; the
// others are dropped from what is returned, still sorted by block.
func (d *Dry) mergeWaiting(q []dryReq) []dryReq {
	// ord lists q by arrival; in[i] is the entry the request at i joined,
	// -1 until it arrives.
	d.ord, d.in = d.ord[:0], d.in[:0]
	for i := range q {
		d.ord, d.in = append(d.ord, i), append(d.in, -1)
	}
	slices.SortFunc(d.ord, func(a, b int) int { return cmp.Compare(q[a].seq, q[b].seq) })
	for _, i := range d.ord {
		r := q[i]
		back, front := -1, -1
		if i > 0 && d.in[i-1] >= 0 {
			if g := d.in[i-1]; q[g].pb+q[g].n == r.pb {
				back = g
			}
		}
		if i+1 < len(q) && d.in[i+1] >= 0 {
			if g := d.in[i+1]; r.pb+r.n == q[g].pb {
				front = g
			}
		}
		switch {
		case back >= 0 && (front < 0 || q[back].seq < q[front].seq):
			q[back].n += r.n
			d.in[i] = back
		case front >= 0:
			q[front].pb, q[front].n = r.pb, q[front].n+r.n
			d.in[i] = front
		default:
			d.in[i] = i
		}
	}
	out := q[:0]
	for i, r := range q {
		if d.in[i] == i {
			out = append(out, r)
		}
	}
	return out
}
