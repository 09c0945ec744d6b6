// Dry issue: the fifth stage of the transfer pipeline (describe → map →
// transform → issue, and beside issue its dry twin). A route is priced
// by walking the very runs it would send — a descriptor's mapped runs,
// their sieved covering runs with the second pass of a read-modify-write,
// the windows of a BatchPlan — as the drive requests the store sends for
// them (Store.Requests: the run itself on a plain array, the run and its
// shadow on a mirror, the rotated data segments and on a write the
// parity segments of Kim's small write on a parity store), through the
// physical drives' queues without the drives: every drive's arrivals are
// replayed, in the order they would reach it, through a device.Line —
// the drive's own waiting line, built from that drive's own Model, which
// orders, merges and picks as the drive does, from where its head stands,
// and charges each request device.ServiceTime for the cylinders the head
// actually crosses to reach it — drives in parallel. Nothing is estimated
// and no discipline is written twice; the price of a request is computed
// by the code that charges it, and which requests a run becomes by the
// code that sends them. Where the line says a drive's arrivals
// leave it in the order they came (Line.InOrder: a walk that merges
// nothing, cylinders that never fall from an arm travelling up — every
// aligned cut and every logical window, priced parked — or an FCFS
// drive), they are served one by one without the replay.
//
// For one process on idle drives — on a plain array, on a mirror but for
// its sieved writes, and for the reads of a parity store — and on a plain
// array for any number of processes that issue at one instant, the dry
// price IS the modeled time of the issue, to the nanosecond, whatever the
// layout, the descriptors — disjoint or overlapping — the discipline, the
// merging, the head positions and each drive's timing (FuzzDryIssue). A
// price can therefore only be wrong where the dry walk and the live walk
// differ, and they differ in these stated ways:
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
//     waiting requests;
//   - a parity small write's segment, data or parity, is priced as its
//     read with its write right behind it in the drive's line. Live, a
//     run's writes wait for all its reads (smallWrite's barrier), and
//     runs that share a parity row take turns on its row lock: neither
//     wait is priced. A scratch copy whose row locks did nothing ran the
//     strided parity writes of TestRedundantStoresPriceWhatTheyRun
//     (internal/collective) 14–26 % faster — 219.2 → 163.1 ms cut to six
//     requests a rank, 583.5 → 437.9 ms whole — and was priced exactly
//     cut, at 0.91 of its time whole. So a parity write is priced at most
//     what it takes (FuzzDryIssue, one process), here at 0.68–0.86 of it;
//   - a sieved write on a mirror is priced with the shadow's write from
//     the start; live it waits for the primary's covering read;
//   - a redundant store's requests after a run's first reach the drives
//     behind every run's first (Request.Later), which is the live order
//     for one process; several processes' interleave deeper;
//   - a store with a failed drive is priced as if every drive were up;
//   - a walk that is serial (Serial: parked, every run one request of its
//     own on its own drive, as on a plain array or a mirror's reads) is
//     priced by a caller that adds up the service times of its runs,
//     each served from the cylinder the run before it left (Serve),
//     instead of queueing and flushing them. That sum is what Flush
//     charges such runs only while every drive is shown its runs in
//     ascending blocks, so that the line serves them as they come
//     (Line.InOrder) — the caller's to keep: the aligned collective
//     candidate, which prices every cut of a drive's footprint from one
//     walk of it and is held to the replay by FuzzAlignedPrice
//     (internal/collective). Any other walk is replayed through the line.
package blockio

import (
	"math"
	"slices"
	"time"

	"repro/internal/device"
)

// Dry is a dry issue in progress: a head tracker and a queue per
// physical drive of one store. Start a price with Park or Sync, which say
// of which store and whether it reads or writes; queue what a route would
// send (Vectored, Sieved, Window) — the store says which drive requests
// that is (Store.Requests) — and Flush to serve it, each drive by its own
// Model, and learn how long the slowest drive took; the heads stay where
// the flush left them, so a second flush prices what the route would send
// next (its next round, its write-back). A Dry holds no reference to what
// it was shown and allocates only while its queues grow: keep one per
// handle.
type Dry struct {
	store  Store
	write  bool // what is queued is written
	parked bool // started by Park
	drv    []dryDrive
	runs   []Run                 // a sieved transfer's covers
	reqs   []Request             // the store's requests for what is being queued
	line   device.Line[struct{}] // each drive's in turn, as Flush serves it
	one    device.Line[struct{}] // Serve's, on drive oneOn (-1: none yet)
	oneOn  int
}

// dryDrive is one drive's head and what was queued on it since the last
// flush: the first request of every transfer in first, the others in
// later, each in the order queued. A transfer's first request reaches
// its drive at the call instant and the others once every process
// runnable at that instant has sent its own first (Request.Later):
// first, then later, is the order the requests arrive in.
type dryDrive struct {
	arm          device.Arm   // Cyl < 0: unknown — reaching the first request crosses nothing
	model        device.Model // the drive's, merging nothing in a parked walk
	first, later []dryReq
	rmw          bool // some request queued is a small write's
}

// dryReq is one queued request: n blocks at physical block pb. A held
// one is a sieved write's read or write, which never waits at the drive
// but at its sieve lock. An rmw one is a small write's (Request.RMW): the
// drive reads it, and later writes it.
type dryReq struct {
	pb, n     int64
	held, rmw bool
}

// Park empties the queues and starts a price of reads, or of writes, on
// store's drives that is a function of what is queued and of the drives'
// models alone — a collective schedule is priced once and replayed
// (internal/collective). It forgets where the heads stand: the first
// request a drive then serves is charged no seek. And waiting requests
// do not merge: which neighbours the drive's queue joins depends on the
// order processes reach it in, down to which of them the scheduler
// happened to release first, and a price that counted on it would be a
// price for one history. What the queue does merge, live, is a gain the
// price leaves out.
func (d *Dry) Park(store Store, write bool) {
	d.store, d.write, d.parked, d.oneOn = store, write, true, -1
	drives := store.Drives()
	d.drv = slices.Grow(d.drv[:0], len(drives))[:len(drives)]
	for i, dd := range d.drv {
		d.drv[i] = dryDrive{arm: device.Arm{Cyl: -1, Up: true}, model: drives[i].Model(), first: dd.first[:0], later: dd.later[:0]}
		d.drv[i].model.MergeQueued = false
	}
}

// Sync empties the queues and starts a price of reads, or of writes, of
// what store's drives would do now: the heads where the drives have
// theirs, waiting requests merged if the drives merge them.
func (d *Dry) Sync(store Store, write bool) {
	d.Park(store, write)
	d.parked = false
	for i, dk := range store.Drives() {
		d.drv[i].arm, d.drv[i].model = dk.Arm(), dk.Model()
	}
}

// send queues the drive requests the store sends for runs, one transfer
// read or written (write), each later when later is set and held when
// held is.
func (d *Dry) send(runs []Run, write, held, later bool) {
	d.reqs = d.store.Requests(d.reqs[:0], write, runs)
	for _, r := range d.reqs {
		q, dd := dryReq{r.PBlock, r.N, held, r.RMW}, &d.drv[r.Drive]
		dd.rmw = dd.rmw || r.RMW
		if later || r.Later {
			dd.later = append(dd.later, q)
		} else {
			dd.first = append(dd.first, q)
		}
	}
}

// Vectored queues the vectored execution of mapped runs: one process's
// transfer.
func (d *Dry) Vectored(runs []Run) { d.send(runs, d.write, false, false) }

// Window queues window w of a prepared plan, as one process issues it.
func (d *Dry) Window(pl *BatchPlan, w int) { d.Vectored(pl.wins[w]) }

// Sieved queues the sieved execution (sieveRuns) of mapped runs, one
// process's transfer: each device's runs become one covering run. A read
// is one transfer of the covers. A write is the read-modify-write
// sievedWrite performs, a process a cover (the first on the caller,
// the others later) holding the device's sieve lock: the covering read
// if the cover has holes, then the covering write.
func (d *Dry) Sieved(runs []Run) {
	d.runs = d.runs[:0]
	for i := 0; i < len(runs); {
		j := deviceEnd(runs, i)
		d.runs = append(d.runs, Run{Dev: runs[i].Dev, PBlock: runs[i].PBlock, N: runs[j-1].PBlock + runs[j-1].N - runs[i].PBlock})
		if cover := d.runs[len(d.runs)-1:]; d.write {
			if j-i > 1 {
				d.send(cover, false, true, i > 0)
			}
			d.send(cover, true, true, i > 0)
		}
		i = j
	}
	if !d.write {
		d.send(d.runs, false, false, false)
	}
}

// Serial reports whether the runs given, queued on this walk, would be
// served one by one in the order they are queued on their drives: the
// walk is parked (Park), so nothing merges and every arm travels up, and
// the store sends each run as one request of its own — to the run's own
// drive at the run's blocks, none a small write's, and none that reaches
// its drive at once behind one sent later (Request.Later) — as a plain
// array does, and a mirror's reads. A
// drive shown such runs in ascending blocks serves them as they come
// (device.Line.InOrder), so its time for a flush is the sum of their
// service times, each fixed by the request before it on the drive
// (Serve), and a walk of such runs cut anywhere is priced by adding up
// those of its pieces. A mirror's writes send a shadow behind every run
// and a parity store's runs fall on rotated drives, or are small writes:
// those walks are not serial, and only a replay through the line prices
// them.
func (d *Dry) Serial(runs []Run) bool {
	if !d.parked {
		return false
	}
	d.reqs = d.store.Requests(d.reqs[:0], d.write, runs)
	if len(d.reqs) != len(runs) {
		return false
	}
	later := false
	for i, q := range d.reqs {
		r := &runs[i]
		if q.Drive != r.Dev || q.PBlock != r.PBlock || q.N != r.N || q.RMW || later && !q.Later {
			return false
		}
		later = q.Later
	}
	return true
}

// Serve is what n blocks at physical block pb take on drive i of a
// parked walk, served in arrival order with the drive's arm at cylinder
// from (negative: nowhere known, and reaching them crosses nothing), and
// the cylinder they leave the arm on: what Flush charges such a request
// on a drive that serves its queue as it comes (Serial). It queues
// nothing and leaves the walk as it was.
func (d *Dry) Serve(i, from int, pb, n int64) (time.Duration, int) {
	l := &d.one
	if d.oneOn != i {
		l.Reset(d.drv[i].model)
		d.oneOn = i
	}
	l.Arm.Cyl = from
	svc := l.Serve(pb, n)
	return svc, l.Arm.Cyl
}

// AtLeast bounds from below what any of the drives takes over requests
// requests moving blocks blocks between them, wherever they lie: each
// pays the controller and half a rotation, and the blocks pay their
// transfer (a nanosecond a request is allowed for rounding each transfer
// down) — on the fastest drive. A candidate whose bound is no better
// than a price in hand need not be walked.
func (d *Dry) AtLeast(requests, blocks int64) time.Duration {
	least := time.Duration(math.MaxInt64)
	for _, dk := range d.store.Drives() {
		g, t := dk.Geometry(), dk.Timing()
		fixed := device.ServiceTime(g, t, 0, 0)
		least = min(least, time.Duration(requests)*(fixed-1)+device.ServiceTime(g, t, 0, int(blocks)*g.BlockSize)-fixed)
	}
	return least
}

// Flush serves every drive's queue as the drive would, were it idle and
// the whole queue to arrive at this instant: the first arrival goes
// straight into service, and the others join the drive's waiting line
// (device.Line) in the order they arrive, from which it serves them as
// its discipline picks — or, where the line serves them in the order
// they arrive (Line.InOrder: nothing merges, and their cylinders never
// fall from an arm travelling up, or the drive is FCFS), are served one
// by one as they arrive, with no replay (serve). Sieved writes never wait
// at the drive but at their device's sieve lock, which admits them in
// arrival order whatever the discipline. Each drive is served by its own
// Model. The drives work in parallel: Flush
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
		l.Reset(dd.model)
		l.Arm = dd.arm
		slowest = max(slowest, d.serve(q, dd.rmw))
		dd.arm, dd.first, dd.later, dd.rmw = l.Arm, q[:0], dd.later[:0], false
	}
	return slowest
}

// serve serves one drive's queue q from where the line's arm stands and
// returns the time it took. Held requests are served in the order they
// came — unless small writes are among them (rmw: a sieved write on a
// parity store, whose sieve lock covers rows on several drives). The
// others go through the line: the first straight into service, the
// others as the line picks them — or one by one in arrival order, where
// the line would (Line.InOrder) — and with rmw, a small write's write
// joins the line right behind its read.
func (d *Dry) serve(q []dryReq, rmw bool) (busy time.Duration) {
	l := &d.line
	if q[0].held && !rmw {
		for _, r := range q {
			busy += l.Serve(r.pb, r.n)
		}
		return busy
	}
	busy = l.Serve(q[0].pb, q[0].n)
	if rest := q[1:]; !rmw {
		if svc, ok := l.InOrder(len(rest), func(i int) (int64, int64) { return rest[i].pb, rest[i].n }); ok {
			return busy + svc
		}
	}
	for i, r := range q {
		if i > 0 {
			l.Add(false, r.pb, r.n, struct{}{})
		}
		if r.rmw {
			l.Add(true, r.pb, r.n, struct{}{})
		}
	}
	for l.Len() > 0 {
		_, svc := l.Next()
		busy += svc
	}
	return busy
}
