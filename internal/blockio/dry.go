// Dry issue: the fifth stage of the transfer pipeline (describe → map →
// transform → issue, and beside issue its dry twin). A route is priced
// by walking the very runs it would send — a descriptor's mapped runs,
// their sieved covering runs with the second pass of a read-modify-write,
// the windows of a BatchPlan — through the drives' queues without the
// drives: every drive's arrivals are replayed, in the order they would
// reach it, through a device.Line — the drive's own waiting line, which
// orders, merges and picks as the drive does, from where its head stands,
// and charges each request device.ServiceTime for the cylinders the head
// actually crosses to reach it — drives in parallel. Nothing is estimated
// and no discipline is written twice; the price of a request is computed
// by the code that charges it. Where the line says a drive's arrivals
// leave it in the order they came (Line.InOrder: a walk that merges
// nothing, cylinders that never fall from an arm travelling up — every
// aligned cut and every logical window, priced parked — or an FCFS
// drive), they are served one by one without the replay.
//
// For one process on idle drives, and for any number of processes that
// issue at one instant, the dry price IS the modeled time of the issue, to
// the nanosecond, whatever the layout, the descriptors — disjoint or
// overlapping — the discipline, the merging and the head positions
// (FuzzDryIssue). A price can therefore only be wrong where the dry walk
// and the live walk differ, and they differ in these stated ways:
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
	"slices"
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
	store Store
	model device.Model
	bs    int64
	drv   []dryDrive
	line  device.Line[struct{}] // each drive's in turn, as Flush serves it
}

// dryDrive is one drive's head and what was queued on it since the last
// flush: the first request of every transfer in first, the others in
// later, each in the order queued. A transfer's first run reaches its
// drive at the call instant and the others after the caller yields once
// (Sleep(0), in Direct.Transfer), which it resumes from once every
// process runnable at that instant has sent its own first: first, then
// later, is the order the requests arrive in.
type dryDrive struct {
	arm          device.Arm // Cyl < 0: unknown — reaching the first request crosses nothing
	first, later []dryReq
}

// dryReq is one queued request: n blocks at physical block pb. A sieved
// write is one entry though it is up to two requests: it holds its drive
// from the first to the last.
type dryReq struct {
	pb, n int64
	rmw   int8 // sieved write: rmwWrite, or rmwReadWrite when the cover has holes
}

const (
	rmwWrite = iota + 1
	rmwReadWrite
)

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
		dd.arm, dd.first, dd.later = device.Arm{Cyl: -1, Up: true}, dd.first[:0], dd.later[:0]
	}
	m := d.model
	m.MergeQueued = false
	d.line.Reset(m)
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
		d.line.Reset(d.model)
	}
}

// Extent queues one request, a transfer of its own: n blocks at absolute
// physical block pb of device dev.
func (d *Dry) Extent(dev int, pb, n int64) { d.queue(dev, dryReq{pb: pb, n: n}, false) }

// queue queues r on device dev, a transfer's first request or a later one.
func (d *Dry) queue(dev int, r dryReq, later bool) {
	dd := &d.drv[dev]
	if later {
		dd.later = append(dd.later, r)
	} else {
		dd.first = append(dd.first, r)
	}
}

// Vectored queues the vectored execution of mapped runs — one process's
// transfer, read or write: a request per run.
func (d *Dry) Vectored(runs []Run) {
	for i, r := range runs {
		d.queue(r.Dev, dryReq{pb: r.PBlock, n: r.N}, i > 0)
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
		r := dryReq{pb: runs[i].PBlock}
		r.n = runs[j-1].PBlock + runs[j-1].N - r.pb
		if write {
			r.rmw = rmwWrite
			if j-i > 1 {
				r.rmw = rmwReadWrite
			}
		}
		d.queue(runs[i].Dev, r, covers > 0)
		i = j
	}
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

// Flush serves every drive's queue as the drive would, were it idle and
// the whole queue to arrive at this instant: the first arrival goes
// straight into service, and the others join the drive's waiting line
// (device.Line) in the order they arrive, from which it serves them as
// its discipline picks — or, where the line serves them in the order
// they arrive (Line.InOrder: nothing merges, and their cylinders never
// fall from an arm travelling up, or the drive is FCFS), are served one
// by one as they arrive, with no replay. Sieved writes never wait at the
// drive but at their device's sieve lock, which admits them in arrival
// order whatever the discipline. The drives work in parallel: Flush
// reports the time the slowest took, and leaves every head where its
// last request put it.
func (d *Dry) Flush() time.Duration {
	var slowest time.Duration
	l := &d.line
	for i := range d.drv {
		dd := &d.drv[i]
		q := append(dd.first, dd.later...)
		if len(q) == 0 {
			continue
		}
		var busy time.Duration
		l.Arm = dd.arm
		if q[0].rmw != 0 {
			for _, r := range q {
				if r.rmw == rmwReadWrite {
					busy += l.Serve(r.pb, r.n)
				}
				busy += l.Serve(r.pb, r.n)
			}
		} else {
			busy = l.Serve(q[0].pb, q[0].n)
			rest := q[1:]
			if svc, ok := l.InOrder(len(rest), func(i int) (int64, int64) { return rest[i].pb, rest[i].n }); ok {
				busy += svc
			} else {
				for _, r := range rest {
					l.Add(false, r.pb, r.n, struct{}{})
				}
				for l.Len() > 0 {
					_, svc := l.Next()
					busy += svc
				}
			}
		}
		slowest = max(slowest, busy)
		dd.arm, dd.first, dd.later = l.Arm, q[:0], dd.later[:0]
	}
	return slowest
}
