// Package device models direct-access storage devices (disks) of the kind
// the paper assumes: late-1980s Winchester drives with seek, rotational
// and transfer delays, accessed through a per-device request queue.
//
// A Disk stores its data in memory as cylinder-sized slabs, each
// allocated on its first write, and moves each run in one piece. When
// attached to a sim.Engine, a Disk charges virtual time for every
// request using a parametric service-time model:
//
//	service = overhead + seek(|head - cylinder|) + rotational latency + bytes/rate
//
// A Disk moves whole blocks only, a run of physically contiguous blocks
// served as one request at a time. A process hands the drives a list of
// runs — list I/O: Submit queues each run on its drive as part of a
// Batch without waiting, and Batch.Wait parks the process once, until
// every run has completed. A run in flight is no process of its own but
// a sim.Event, fired when the drive finishes it. ReadBlocksVec and
// WriteBlocksVec are the one-run batch. Requests from concurrent
// processes wait in the drive's Line and are served one at a time under a
// configurable discipline (FCFS or SCAN), which is what makes the
// paper's seek-interference and bandwidth-aggregation effects emerge
// naturally. The Line is the one implementation of a queue discipline —
// the order waiting requests are served in, and which of them merge: a
// dry issue (blockio.Dry) prices a route by replaying its arrivals
// through a Line of its own. Without an engine the same calls complete
// immediately but still maintain all statistics, so the library is usable
// as an ordinary in-memory block store.
package device

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
)

// Errors reported by device operations.
var (
	// ErrFailed is returned for any access to a failed device.
	ErrFailed = errors.New("device: drive failed")
	// ErrOutOfRange is returned when a request exceeds the device capacity.
	ErrOutOfRange = errors.New("device: block out of range")
)

// Geometry fixes the data layout of a disk.
type Geometry struct {
	BlockSize    int // bytes per block
	BlocksPerCyl int // blocks per cylinder
	Cylinders    int
}

// Blocks reports the total number of blocks on the device.
func (g Geometry) Blocks() int64 {
	return int64(g.BlocksPerCyl) * int64(g.Cylinders)
}

// cylinderOf maps a block number to its cylinder.
func (g Geometry) cylinderOf(block int64) int {
	return int(block / int64(g.BlocksPerCyl))
}

// Timing fixes the service-time model of a disk.
type Timing struct {
	SeekMin        time.Duration // single-cylinder (minimum nonzero) seek
	SeekMax        time.Duration // full-stroke seek
	RotationPeriod time.Duration // one revolution; average latency is half
	TransferRate   float64       // bytes per second
	Overhead       time.Duration // fixed controller overhead per request
}

// DefaultGeometry1989 is a plausible 1989 Winchester drive layout:
// 4 KiB blocks, 64 blocks per cylinder, 900 cylinders (~225 MB).
func DefaultGeometry1989() Geometry {
	return Geometry{BlockSize: 4096, BlocksPerCyl: 64, Cylinders: 900}
}

// DefaultTiming1989 models the drives the paper cites (≈16 ms average
// seek, 3600 RPM, ~1.5 MB/s transfer).
func DefaultTiming1989() Timing {
	return Timing{
		SeekMin:        3 * time.Millisecond,
		SeekMax:        30 * time.Millisecond,
		RotationPeriod: 16667 * time.Microsecond, // 3600 RPM
		TransferRate:   1.5e6,
		Overhead:       500 * time.Microsecond,
	}
}

// Sched selects the request-scheduling discipline for a disk queue.
type Sched int

const (
	// FCFS serves requests in arrival order.
	FCFS Sched = iota
	// SCAN serves requests in elevator order (nearest in the current
	// head direction, reversing at the extremes).
	SCAN
)

// String implements fmt.Stringer.
func (s Sched) String() string {
	switch s {
	case FCFS:
		return "FCFS"
	case SCAN:
		return "SCAN"
	default:
		return fmt.Sprintf("Sched(%d)", int(s))
	}
}

// Stats accumulates per-device counters. All times are virtual when the
// disk is attached to an engine.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	Seeks        int64         // requests that moved the head
	SeekCyls     int64         // total cylinders traveled
	Merged       int64         // queued requests absorbed by back/front merging
	BusyTime     time.Duration // time the device spent servicing requests
	LatencySum   time.Duration // queue wait + service, summed over requests
	LatencyMax   time.Duration
	QueuePeak    int // deepest queue observed (including in-service request)
}

// Requests reports the total number of completed requests.
func (s Stats) Requests() int64 { return s.Reads + s.Writes }

// Bytes reports total bytes transferred.
func (s Stats) Bytes() int64 { return s.BytesRead + s.BytesWritten }

// request is a queued disk operation. A merged request carries several
// runs: runs[0] was queued first, its completion starts the drive's next
// request, and it completes first; every run moves its own data at the
// shared completion instant. The last run to complete hands the request
// back to the disk's free list (fin counts them), so a steady request
// stream allocates nothing.
type request struct {
	runs    []*completion
	fin     int // runs that have completed
	write   bool
	bytes   int
	svcFrom time.Duration // service start, set at dispatch
	done    time.Duration // completion time, set at dispatch
}

// completion is one submitted run in flight: the engine event that fires
// when its request is done, the request it rides in, the batch it
// reports to, and its own copy of the scatter/gather list (a reference
// to the caller's list would make every one-element list literal escape
// to the heap). Completions are recycled through the disk's free list.
type completion struct {
	ev    sim.Event
	d     *Disk
	r     *request
	b     *Batch
	i     int // the run's index in b
	write bool
	block int64
	n     int
	enq   time.Duration
	iov   [][]byte
}

// Batch is a list of runs one process submits to drives — one or several
// — and waits for once. The zero Batch is ready for use, and a Batch is
// ready again once Wait has returned.
type Batch struct {
	p       *sim.Proc // the submitter
	pending int       // runs submitted under an engine and not yet complete
	waiting bool      // p is parked in Wait
	errs    []error   // each run's outcome, in submission order
}

// batchPool recycles the one-run batches of ReadBlocksVec and
// WriteBlocksVec.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// Wait parks the submitter until every run submitted to b has completed,
// and returns the runs' errors: one run's as it is, several joined in
// submission order. It parks at most once; the run whose completion
// leaves none pending resumes the submitter.
func (b *Batch) Wait() error {
	if b.pending > 0 {
		b.waiting = true
		b.p.Park()
	}
	var err error
	if len(b.errs) == 1 {
		err = b.errs[0]
	} else {
		err = errors.Join(b.errs...)
	}
	clear(b.errs)
	b.errs, b.p = b.errs[:0], nil
	return err
}

// done records run i's outcome and reports the process to resume in the
// completing run's slot. The last run to complete releases the waiting
// submitter: in this very slot when it is run 0, and otherwise by a
// wakeup scheduled now, behind whatever is already runnable at this
// instant. That is when a submitter that moved run 0 itself and then
// joined processes moving the others would resume, so the engine's
// dispatch order, and every modeled time, is that of a process per run.
func (b *Batch) done(e *sim.Engine, i int, err error) *sim.Proc {
	b.errs[i] = err
	if b.pending--; b.pending > 0 || !b.waiting {
		return nil
	}
	b.waiting = false
	if i == 0 {
		return b.p
	}
	e.Wake(b.p)
	return nil
}

// Disk is a simulated direct-access storage device. Disk methods are not
// safe for use from ordinary concurrent goroutines; under an engine,
// strict alternation makes them safe from any managed process, which is
// the intended use.
type Disk struct {
	name string
	geom Geometry
	eng  *sim.Engine // nil: untimed

	blocks store // the stored data
	// line holds the waiting requests, each under its first run, and the
	// head; it carries the timing, the discipline and the merge setting.
	line   Line[*completion]
	busy   bool
	free   []*request    // finished requests, reused by newRequest
	cfree  []*completion // completed runs, reused by Submit
	failed bool

	stats Stats

	// Flight-recorder hooks (nil/zero when detached).
	rec  *probe.Recorder
	trk  probe.TrackID // service timeline (serialized; one span per request)
	trkQ probe.TrackID // queue-wait timeline (async; waits overlap)
}

// Config carries the constructor parameters for a Disk.
type Config struct {
	Name     string
	Geometry Geometry
	Timing   Timing
	Sched    Sched
	Engine   *sim.Engine // nil for untimed operation
	// MergeQueued enables block-layer style back/front merging: a newly
	// queued whole-block request that is physically adjacent to a queued
	// request of the same direction is absorbed into it, and the merged
	// run is serviced as one request (one overhead + seek + rotation for
	// the combined transfer). Off by default — the paper's model services
	// every arrival individually — and counted in Stats.Merged when on.
	MergeQueued bool
}

// NewDrives creates n drives from one template, in name order: the
// template's name followed by the index, d0 … d(n-1) when it has none.
func NewDrives(n int, tmpl Config) []*Disk {
	prefix := cmp.Or(tmpl.Name, "d")
	disks := make([]*Disk, n)
	for i := range disks {
		tmpl.Name = fmt.Sprintf("%s%d", prefix, i)
		disks[i] = New(tmpl)
	}
	return disks
}

// New creates a disk. Zero-valued geometry or timing fields are filled
// from the 1989 defaults.
func New(cfg Config) *Disk {
	if cfg.Geometry == (Geometry{}) {
		cfg.Geometry = DefaultGeometry1989()
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming1989()
	}
	if cfg.Name == "" {
		cfg.Name = "disk"
	}
	d := &Disk{name: cfg.Name, geom: cfg.Geometry, eng: cfg.Engine, blocks: newStore(cfg.Geometry)}
	d.line.Reset(Model{Geometry: cfg.Geometry, Timing: cfg.Timing, Sched: cfg.Sched, MergeQueued: cfg.MergeQueued})
	d.line.Arm.Up = true
	return d
}

// SetProbe attaches a flight recorder: every serviced request records a
// service span on track "dev/<name>" (and, when it queued, a wait span
// on the async "dev/<name>/q" track), and the device counters appear as
// pull gauges in the recorder's metrics. Pass nil to detach. Recording
// reads the virtual clock only, so modeled times are unchanged.
func (d *Disk) SetProbe(r *probe.Recorder) {
	d.rec = r
	if r == nil {
		d.trk, d.trkQ = 0, 0
		return
	}
	d.trk = r.Track("dev/" + d.name)
	d.trkQ = r.AsyncTrack("dev/" + d.name + "/q")
	m := r.Metrics()
	m.Gauge("dev."+d.name+".requests", func() float64 { return float64(d.stats.Requests()) })
	m.Gauge("dev."+d.name+".bytes", func() float64 { return float64(d.stats.Bytes()) })
	m.Gauge("dev."+d.name+".busy_s", func() float64 { return d.stats.BusyTime.Seconds() })
	m.Gauge("dev."+d.name+".seeks", func() float64 { return float64(d.stats.Seeks) })
	m.Gauge("dev."+d.name+".merged", func() float64 { return float64(d.stats.Merged) })
}

// Name reports the device name.
func (d *Disk) Name() string { return d.name }

// Geometry reports the device geometry.
func (d *Disk) Geometry() Geometry { return d.geom }

// Timing reports the disk's service-time model.
func (d *Disk) Timing() Timing { return d.line.m.Timing }

// Model is everything the time a drive takes over a list of requests
// depends on, the list and where the head stands apart: what a Line
// serves by. A dry issue (blockio.Dry) builds a Line from a drive's Model
// to replay the drive's queue without the drive.
type Model struct {
	Geometry
	Timing
	Sched       Sched
	MergeQueued bool
}

// Model reports the disk's queue and service-time model.
func (d *Disk) Model() Model { return d.line.m }

// Arm is where a drive's head stands — the cylinder of the last request
// it served — and which way a SCAN sweep is travelling. It is the state a
// Line keeps between requests: a dry issue starts its Line from a drive's
// Arm to price what the drive would do next.
type Arm struct {
	Cyl int
	Up  bool
}

// Arm reports the disk's head position and sweep direction.
func (d *Disk) Arm() Arm { return d.line.Arm }

// Stats returns a snapshot of the device counters.
func (d *Disk) Stats() Stats { return d.stats }

// ResetStats zeroes the counters (the head position is kept).
func (d *Disk) ResetStats() { d.stats = Stats{} }

// Failed reports whether the device is in the failed state.
func (d *Disk) Failed() bool { return d.failed }

// Fail marks the device failed: queued and future requests return
// ErrFailed (after their modeled service completes, as a real timeout
// would).
func (d *Disk) Fail() { d.failed = true }

// Repair clears the failed state. The stored data is retained; restoring
// consistent contents is the caller's (reliability layer's) job.
func (d *Disk) Repair() { d.failed = false }

// Erase discards all stored data, as a replacement drive would arrive
// blank.
func (d *Disk) Erase() error {
	d.blocks.slabs = nil
	return nil
}

// Snapshot deep-copies the stored data — a point-in-time backup of this
// drive (used by the reliability experiments to demonstrate the §5
// rollback-consistency problem).
func (d *Disk) Snapshot() (map[int64][]byte, error) { return d.blocks.snapshot(), nil }

// Restore replaces the stored data with a snapshot (rolling the drive
// back to that point in time). A snapshot naming a block outside the
// drive, or holding a page that is not exactly one block, is refused
// with an error naming the block, and the drive is left as it was.
func (d *Disk) Restore(snap map[int64][]byte) error {
	for b, pg := range snap {
		if b < 0 || b >= d.geom.Blocks() {
			return fmt.Errorf("%w: snapshot block %d of %d on %s", ErrOutOfRange, b, d.geom.Blocks(), d.name)
		}
		if len(pg) != d.geom.BlockSize {
			return fmt.Errorf("device: snapshot block %d is %d bytes, not one %d-byte block, on %s", b, len(pg), d.geom.BlockSize, d.name)
		}
	}
	d.blocks.slabs = nil
	for b, pg := range snap {
		d.blocks.write(b, pg)
	}
	return nil
}

// ServiceTime is the service-time model as a function of the drive's
// parameters: what one request moving bytes costs a drive of geometry g
// and timing t whose head stands cyls cylinders from the request's first
// block — controller overhead, the seek across those cylinders, half a
// rotation (the average latency) and the transfer. It is the one price of
// a device request: every Disk charges its requests with it, and a dry
// issue (blockio.Dry) prices with it the requests a route would send. A
// Line charges through its model's seek table (seeksOf), whose entries are
// seekTime's.
func ServiceTime(g Geometry, t Timing, cyls, bytes int) time.Duration {
	return service(t, seekTime(g, t, cyls), bytes)
}

// service is a request's price given its seek.
func service(t Timing, seek time.Duration, bytes int) time.Duration {
	svc := t.Overhead + seek + t.RotationPeriod/2
	if t.TransferRate > 0 {
		svc += time.Duration(float64(bytes) / t.TransferRate * float64(time.Second))
	}
	return svc
}

// seekTable is one model's seek term by distance, filled lazily by
// seekTime, once per distance: d[dist] holds the seek plus one, zero until
// it is first asked for. Entries are atomic because drives of one model
// may be served by several engines at once.
type seekTable struct {
	g Geometry
	t Timing
	d []atomic.Int64
}

// seekTables holds a table for every model in use, allocated the first
// time a model is seen in the process; a line looks its model's up when
// it is reset to another model (Line.Reset), so neither a drive's set-up
// nor any walk allocates for it once the model has been seen. A table is
// a memo of a pure function of its model: what one caller fills, no
// other can tell from computing it. The map is bounded: a process that
// has seen maxSeekTables models starts it over, and lines keep the tables
// they hold.
var seekTables struct {
	sync.Mutex
	m map[seekModel]*seekTable
}

type seekModel struct {
	g Geometry
	t Timing
}

const maxSeekTables = 64

// seeksOf returns the seek table of geometry g and timing t.
func seeksOf(g Geometry, t Timing) *seekTable {
	seekTables.Lock()
	defer seekTables.Unlock()
	k := seekModel{g, t}
	tb := seekTables.m[k]
	if tb == nil {
		if len(seekTables.m) >= maxSeekTables || seekTables.m == nil {
			seekTables.m = make(map[seekModel]*seekTable)
		}
		tb = &seekTable{g: g, t: t, d: make([]atomic.Int64, max(g.Cylinders, 1))}
		seekTables.m[k] = tb
	}
	return tb
}

// seek is the seek across dist cylinders: the table's entry, filled by
// seekTime the first time it is asked for.
func (s *seekTable) seek(dist int) time.Duration {
	if dist <= 0 || dist >= len(s.d) {
		return seekTime(s.g, s.t, dist) // no seek, or past the stroke: nothing to keep
	}
	if v := s.d[dist].Load(); v != 0 {
		return time.Duration(v - 1)
	}
	v := seekTime(s.g, s.t, dist)
	s.d[dist].Store(int64(v) + 1)
	return v
}

// service is ServiceTime at the table's model.
func (s *seekTable) service(cyls, bytes int) time.Duration {
	return service(s.t, s.seek(cyls), bytes)
}

// seekTime models head movement across dist cylinders: the single-cylinder
// seek plus the rest of the full stroke in proportion to the square root
// of dist.
func seekTime(g Geometry, t Timing, dist int) time.Duration {
	if dist <= 0 {
		return 0
	}
	maxDist := g.Cylinders - 1
	if maxDist < 1 {
		maxDist = 1
	}
	frac := math.Sqrt(float64(dist) / float64(maxDist))
	return t.SeekMin + time.Duration(float64(t.SeekMax-t.SeekMin)*frac)
}

// dispatch starts service of the request the line serves next at virtual
// time now. Caller must have checked the line is non-empty.
func (d *Disk) dispatch(now time.Duration) {
	from := d.line.Arm.Cyl
	c, svc := d.line.Next()
	d.begin(c.r, from, svc, now)
}

// begin starts service of r at now, charged svc, and posts its runs'
// completions at the completion instant, the first queued run first. The
// head came from cylinder from.
func (d *Disk) begin(r *request, from int, svc, now time.Duration) {
	d.seeked(from)
	d.stats.BusyTime += svc
	r.svcFrom, r.done = now, now+svc
	for _, c := range r.runs {
		d.eng.Post(&c.ev, r.done)
	}
}

// seeked counts the head's move from cylinder from, if it moved.
func (d *Disk) seeked(from int) {
	if to := d.line.Arm.Cyl; to != from {
		d.stats.Seeks++
		d.stats.SeekCyls += int64(max(to-from, from-to))
	}
}

// newRequest returns a request for run c, reusing a finished one (and
// its run list's array) when there is one.
func (d *Disk) newRequest(c *completion, bytes int) *request {
	var r *request
	if n := len(d.free); n > 0 {
		r, d.free[n-1] = d.free[n-1], nil
		d.free = d.free[:n-1]
	} else {
		r = new(request)
	}
	*r = request{runs: append(r.runs[:0], c), write: c.write, bytes: bytes}
	c.r = r
	return r
}

// Submit queues a run on the drive as part of batch b and returns without
// waiting: the n physically contiguous blocks starting at block, written
// from (write) or read into the elements of iov, consecutive blocks in
// consecutive elements — each a whole number of blocks, n in total. The
// run is one request, served and charged as ReadBlocksVec describes, and
// b.Wait reports its outcome. iov itself is copied, not kept; the buffers
// it names must stay put until Wait returns. Under an engine the run
// completes as an engine event, in no process of its own: the drive
// serves it at once if idle, after the requests queued ahead otherwise.
// Without one it completes before Submit returns. All of a batch's runs
// must come from one process.
func (d *Disk) Submit(ctx sim.Context, b *Batch, write bool, block int64, n int, iov [][]byte) {
	i := len(b.errs)
	b.errs = append(b.errs, nil)
	op := "ReadBlocksVec"
	if write {
		op = "WriteBlocksVec"
	}
	if err := d.checkRunVec(op, block, n, iov); err != nil {
		b.errs[i] = err
		return
	}
	p, timed := ctx.(*sim.Proc)
	if !timed || d.eng == nil {
		if !d.failed { // the head moves; the clock does not
			from := d.line.Arm.Cyl
			d.line.Serve(block, int64(n))
			d.seeked(from)
		}
		b.errs[i] = d.move(write, block, n, iov)
		return
	}

	c := d.newCompletion()
	c.b, c.i, c.write, c.block, c.n, c.enq = b, i, write, block, n, p.Now()
	c.iov = append(c.iov, iov...)
	b.p = p
	b.pending++
	bytes := n * d.geom.BlockSize
	if !d.busy {
		// Idle disk: the run goes straight into service.
		r := d.newRequest(c, bytes)
		d.busy = true
		if d.stats.QueuePeak < 1 {
			d.stats.QueuePeak = 1
		}
		from := d.line.Arm.Cyl
		d.begin(r, from, d.line.Serve(block, int64(n)), c.enq)
		return
	}
	// Wait in line behind the in-service request, whose completion
	// dispatches the next — or, with merging enabled, join the waiting
	// request the line merges the run into.
	if first, ok := d.line.Add(write, block, int64(n), c); ok {
		r := first.r
		r.runs, r.bytes, c.r = append(r.runs, c), r.bytes+bytes, r
		d.stats.Merged++
	} else {
		d.newRequest(c, bytes)
	}
	if depth := d.line.Len() + 1; depth > d.stats.QueuePeak {
		d.stats.QueuePeak = depth
	}
}

// newCompletion returns a completion with an empty list, reusing a
// completed one when there is one.
func (d *Disk) newCompletion() *completion {
	if n := len(d.cfree); n > 0 {
		c := d.cfree[n-1]
		d.cfree[n-1] = nil
		d.cfree = d.cfree[:n-1]
		return c
	}
	c := &completion{d: d}
	c.ev.Fire = c.complete
	return c
}

// complete is a run's completion event, fired at its request's
// completion instant: it records the run's latency and spans, moves its
// data (or fails it, should the drive have failed meanwhile, as a real
// timeout would), starts the drive's next request if this run was its
// request's first, recycles what it held, and reports to its batch.
func (c *completion) complete() *sim.Proc {
	d, r := c.d, c.r
	now := d.eng.Now()
	lat := now - c.enq
	d.stats.LatencySum += lat
	if lat > d.stats.LatencyMax {
		d.stats.LatencyMax = lat
	}
	first := c == r.runs[0]
	if d.rec != nil {
		// Each run records its own queue wait; the first records the
		// single service span of the (possibly merged) request.
		if r.svcFrom > c.enq {
			d.rec.Span(d.trkQ, "device", "wait", c.enq, r.svcFrom, 0, 0)
		}
		if first {
			name := "read"
			if r.write {
				name = "write"
			}
			d.rec.Span(d.trk, "device", name, r.svcFrom, r.done, int64(r.bytes), 0)
		}
	}
	err := d.move(c.write, c.block, c.n, c.iov)
	if first {
		if d.line.Len() > 0 {
			d.dispatch(now)
		} else {
			d.busy = false
		}
	}
	if r.fin++; r.fin == len(r.runs) {
		d.free = append(d.free, r)
	}
	b, i := c.b, c.i
	clear(c.iov)
	c.iov, c.r, c.b = c.iov[:0], nil, nil
	d.cfree = append(d.cfree, c)
	return b.done(d.eng, i, err)
}

// move transfers the data of a run between the store and iov and counts
// it, or fails it on a failed drive.
func (d *Disk) move(write bool, block int64, n int, iov [][]byte) error {
	if d.failed {
		return fmt.Errorf("%w: %s", ErrFailed, d.name)
	}
	bs := d.geom.BlockSize
	b := block
	for _, v := range iov {
		if write {
			d.blocks.write(b, v)
		} else {
			d.blocks.read(b, v)
		}
		b += int64(len(v) / bs)
	}
	if write {
		d.stats.Writes++
		d.stats.BytesWritten += int64(n) * int64(bs)
	} else {
		d.stats.Reads++
		d.stats.BytesRead += int64(n) * int64(bs)
	}
	return nil
}

// checkRunVec validates a scatter/gather run request: every element of
// iov must be a non-empty whole number of blocks and the elements must
// total exactly n blocks.
func (d *Disk) checkRunVec(op string, block int64, n int, iov [][]byte) error {
	if n <= 0 {
		return fmt.Errorf("device: %s of %d blocks", op, n)
	}
	if block < 0 || block+int64(n) > d.geom.Blocks() {
		return fmt.Errorf("%w: blocks [%d,%d) of %d on %s", ErrOutOfRange, block, block+int64(n), d.geom.Blocks(), d.name)
	}
	bs := d.geom.BlockSize
	total := 0
	for i, v := range iov {
		if len(v) == 0 || len(v)%bs != 0 {
			return fmt.Errorf("device: %s segment %d is %d bytes, not a positive multiple of the %d-byte block", op, i, len(v), bs)
		}
		total += len(v)
	}
	if total != n*bs {
		return fmt.Errorf("device: %s segments total %d bytes != %d blocks of %d bytes", op, total, n, bs)
	}
	return nil
}

// ReadBlocksVec reads the n physically contiguous blocks starting at
// block, scattering consecutive blocks into the elements of dsts in order
// (readv semantics). Each element must hold a whole number of blocks;
// together they must hold exactly n. Unwritten blocks read as zeros. The
// run is serviced as ONE queued request — one controller overhead, one
// seek to the first block's cylinder, one rotational latency, then n
// blocks at the streaming rate — and the statistics count it as a single
// read of n blocks: a sequential transfer of 1000 blocks pays 1 overhead
// instead of 1000, and a merged physical run delivers into a strided
// caller buffer without paying one request per stride. It is a batch of
// one run; a contiguous buffer is a one-element list.
func (d *Disk) ReadBlocksVec(ctx sim.Context, block int64, n int, dsts [][]byte) error {
	return d.one(ctx, false, block, n, dsts)
}

// WriteBlocksVec writes the n physically contiguous blocks starting at
// block as ONE queued request, gathering consecutive blocks from the
// elements of srcs in order (writev semantics) — the write counterpart
// of ReadBlocksVec.
func (d *Disk) WriteBlocksVec(ctx sim.Context, block int64, n int, srcs [][]byte) error {
	return d.one(ctx, true, block, n, srcs)
}

// one submits a batch of one run and waits for it.
func (d *Disk) one(ctx sim.Context, write bool, block int64, n int, iov [][]byte) error {
	b := batchPool.Get().(*Batch)
	d.Submit(ctx, b, write, block, n, iov)
	err := b.Wait()
	batchPool.Put(b)
	return err
}
