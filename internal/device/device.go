// Package device models direct-access storage devices (disks) of the kind
// the paper assumes: late-1980s Winchester drives with seek, rotational
// and transfer delays, accessed through a per-device request queue.
//
// A Disk stores data through a pluggable Backend, which moves each run
// in one piece: by default in memory as cylinder-sized slabs, each
// allocated on its first write, or in a host file (FileBackend) for
// volumes larger than RAM. When attached to a sim.Engine, a Disk charges
// virtual time for every request using a parametric service-time model:
//
//	service = overhead + seek(|head - cylinder|) + rotational latency + bytes/rate
//
// A Disk moves whole blocks only: ReadBlocksVec and WriteBlocksVec, each
// a run of physically contiguous blocks served as one request, are its
// two transfers. Requests from concurrent processes queue at the device
// and are served one at a time under a configurable discipline (FCFS or
// SCAN), which is what makes the paper's seek-interference and
// bandwidth-aggregation effects emerge naturally. Without an engine the
// same calls complete immediately but still maintain all statistics, so
// the library is usable as an ordinary in-memory block store.
package device

import (
	"errors"
	"fmt"
	"math"
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

// Capacity reports the device size in bytes.
func (g Geometry) Capacity() int64 {
	return g.Blocks() * int64(g.BlockSize)
}

// cylinderOf maps a block number to its cylinder.
func (g Geometry) cylinderOf(block int64) int {
	return int(block / int64(g.BlocksPerCyl))
}

// Timing fixes the service-time model of a disk.
type Timing struct {
	SeekMin        time.Duration // single-cylinder (minimum nonzero) seek
	SeekMax        time.Duration // full-stroke seek
	LinearSeek     bool          // if true seek grows linearly with distance; default √distance
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
// owning processes: procs[0] issued the request the others were absorbed
// into, performs the completion chaining, and is woken first; every
// member transfers its own data at the shared completion instant. The
// last member to finish hands the request back to the disk's free list
// (fin counts them), so a steady request stream allocates nothing.
type request struct {
	procs   []*sim.Proc
	fin     int   // members that have finished their access
	write   bool  // direction: only runs of one direction merge
	block   int64 // first block of the run (merge key)
	nblk    int64 // run length in blocks
	cyl     int
	bytes   int
	svcFrom time.Duration // service start, set at dispatch
	done    time.Duration // completion time, set at dispatch
}

// Disk is a simulated direct-access storage device. Disk methods are not
// safe for use from ordinary concurrent goroutines; under an engine,
// strict alternation makes them safe from any managed process, which is
// the intended use.
type Disk struct {
	name   string
	geom   Geometry
	timing Timing
	sched  Sched
	eng    *sim.Engine // nil: untimed

	backend Backend // block storage (in-memory slabs by default)
	head    int     // current cylinder
	scanUp  bool    // SCAN direction
	busy    bool
	merge   bool // merge physically adjacent queued requests
	queue   []*request
	free    []*request // finished requests, reused by newRequest
	failed  bool

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
	// Backend optionally overrides the block store (e.g. a FileBackend);
	// nil selects the in-memory slab store.
	Backend Backend
	// MergeQueued enables block-layer style back/front merging: a newly
	// queued whole-block request that is physically adjacent to a queued
	// request of the same direction is absorbed into it, and the merged
	// run is serviced as one request (one overhead + seek + rotation for
	// the combined transfer). Off by default — the paper's model services
	// every arrival individually — and counted in Stats.Merged when on.
	MergeQueued bool
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
	backend := cfg.Backend
	if backend == nil {
		backend = newMemBackend(cfg.Geometry)
	}
	return &Disk{
		name:    cfg.Name,
		geom:    cfg.Geometry,
		timing:  cfg.Timing,
		sched:   cfg.Sched,
		eng:     cfg.Engine,
		backend: backend,
		scanUp:  true,
		merge:   cfg.MergeQueued,
	}
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

// Close releases the block backend (required for file-backed disks).
func (d *Disk) Close() error { return d.backend.Close() }

// Name reports the device name.
func (d *Disk) Name() string { return d.name }

// Geometry reports the device geometry.
func (d *Disk) Geometry() Geometry { return d.geom }

// Timing reports the disk's service-time model.
func (d *Disk) Timing() Timing { return d.timing }

// Model is everything the time a drive takes over a list of requests
// depends on, the list and where the head stands apart: what a dry issue
// (blockio.Dry) replays the drive's queue from without the drive.
type Model struct {
	Geometry
	Timing
	Sched       Sched
	MergeQueued bool
}

// Model reports the disk's queue and service-time model.
func (d *Disk) Model() Model {
	return Model{Geometry: d.geom, Timing: d.timing, Sched: d.sched, MergeQueued: d.merge}
}

// Arm is where a drive's head stands — the cylinder of the last request
// it served — and which way a SCAN sweep is travelling.
type Arm struct {
	Cyl int
	Up  bool
}

// Arm reports the disk's head position and sweep direction.
func (d *Disk) Arm() Arm { return Arm{Cyl: d.head, Up: d.scanUp} }

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
func (d *Disk) Erase() error { return d.backend.Erase() }

// Snapshot deep-copies the stored data — a point-in-time backup of this
// drive (used by the reliability experiments to demonstrate the §5
// rollback-consistency problem).
func (d *Disk) Snapshot() (map[int64][]byte, error) { return d.backend.Snapshot() }

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
	if err := d.backend.Erase(); err != nil {
		return err
	}
	for b, pg := range snap {
		if err := d.backend.WriteBlocks(b, pg); err != nil {
			return err
		}
	}
	return nil
}

// ServiceTime is the service-time model as a function of the drive's
// parameters: what one request moving bytes costs a drive of geometry g
// and timing t whose head stands cyls cylinders from the request's first
// block — controller overhead, the seek across those cylinders, half a
// rotation (the average latency) and the transfer. It is the one price of
// a device request: every Disk charges its requests with it, and a dry
// issue (blockio.Dry) prices with it the requests a route would send.
func ServiceTime(g Geometry, t Timing, cyls, bytes int) time.Duration {
	svc := t.Overhead + seekTime(g, t, cyls) + t.RotationPeriod/2
	if t.TransferRate > 0 {
		svc += time.Duration(float64(bytes) / t.TransferRate * float64(time.Second))
	}
	return svc
}

// seekTime models head movement across dist cylinders.
func seekTime(g Geometry, t Timing, dist int) time.Duration {
	if dist <= 0 {
		return 0
	}
	maxDist := g.Cylinders - 1
	if maxDist < 1 {
		maxDist = 1
	}
	span := t.SeekMax - t.SeekMin
	var frac float64
	if t.LinearSeek {
		frac = float64(dist) / float64(maxDist)
	} else {
		frac = math.Sqrt(float64(dist) / float64(maxDist))
	}
	return t.SeekMin + time.Duration(float64(span)*frac)
}

// serviceTime models one request: overhead + seek + rotation + transfer.
func (d *Disk) serviceTime(fromCyl, toCyl, bytes int) time.Duration {
	dist := toCyl - fromCyl
	if dist < 0 {
		dist = -dist
	}
	return ServiceTime(d.geom, d.timing, dist, bytes)
}

// selectNext removes and returns the next request per the discipline.
func (d *Disk) selectNext() *request {
	best := 0
	switch d.sched {
	case SCAN:
		// Nearest request at or beyond the head in the travel
		// direction; if none, reverse.
		for pass := 0; pass < 2; pass++ {
			bestDist := math.MaxInt
			bestIdx := -1
			for i, r := range d.queue {
				var dist int
				if d.scanUp {
					dist = r.cyl - d.head
				} else {
					dist = d.head - r.cyl
				}
				if dist >= 0 && dist < bestDist {
					bestDist, bestIdx = dist, i
				}
			}
			if bestIdx >= 0 {
				best = bestIdx
				break
			}
			d.scanUp = !d.scanUp
		}
	default: // FCFS
		best = 0
	}
	r := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	return r
}

// startService moves the head to the request and charges its service
// time, recording the completion instant in r.done.
func (d *Disk) startService(r *request, now time.Duration) {
	svc := d.serviceTime(d.head, r.cyl, r.bytes)
	if r.cyl != d.head {
		d.stats.Seeks++
		dist := r.cyl - d.head
		if dist < 0 {
			dist = -dist
		}
		d.stats.SeekCyls += int64(dist)
	}
	d.head = r.cyl
	d.stats.BusyTime += svc
	r.svcFrom = now
	r.done = now + svc
}

// dispatch starts service of the next queued request at virtual time now,
// waking its (parked) owners at the completion instant — the issuing
// process first, then any merged members. Caller must have checked the
// queue is non-empty.
func (d *Disk) dispatch(now time.Duration) {
	r := d.selectNext()
	d.startService(r, now)
	for _, p := range r.procs {
		d.eng.WakeAt(p, r.done)
	}
}

// newRequest returns a request for p, reusing a finished one (and its
// member list's array) when there is one.
func (d *Disk) newRequest(p *sim.Proc, write bool, block, nblk int64, bytes int) *request {
	var r *request
	if n := len(d.free); n > 0 {
		r, d.free[n-1] = d.free[n-1], nil
		d.free = d.free[:n-1]
	} else {
		r = new(request)
	}
	*r = request{procs: append(r.procs[:0], p), write: write, block: block, nblk: nblk,
		cyl: d.geom.cylinderOf(block), bytes: bytes}
	return r
}

// tryMerge absorbs a new request into a physically adjacent queued
// request of the same direction (block-layer back/front merging)
// and returns the merged request, or nil when nothing is adjacent. Only
// requests still waiting in the queue merge; the in-service request is
// already committed to its service time.
func (d *Disk) tryMerge(p *sim.Proc, write bool, block, nblk int64, bytes int) *request {
	for _, q := range d.queue {
		if q.write != write {
			continue
		}
		switch {
		case q.block+q.nblk == block: // back merge
		case block+nblk == q.block: // front merge
			q.block = block
			q.cyl = d.geom.cylinderOf(block)
		default:
			continue
		}
		q.nblk += nblk
		q.bytes += bytes
		q.procs = append(q.procs, p)
		d.stats.Merged++
		return q
	}
	return nil
}

// access performs the timing model around fn, which does the actual
// data transfer of the nblk-block run starting at block: block fixes the
// target cylinder, and the run is what queue merging keys on.
func (d *Disk) access(ctx sim.Context, write bool, block, nblk int64, fn func() error) error {
	if block < 0 || block >= d.geom.Blocks() {
		return fmt.Errorf("%w: block %d of %d on %s", ErrOutOfRange, block, d.geom.Blocks(), d.name)
	}
	p, timed := ctx.(*sim.Proc)
	if !timed || d.eng == nil {
		if d.failed {
			return fmt.Errorf("%w: %s", ErrFailed, d.name)
		}
		cyl := d.geom.cylinderOf(block)
		if cyl != d.head {
			d.stats.Seeks++
			dist := cyl - d.head
			if dist < 0 {
				dist = -dist
			}
			d.stats.SeekCyls += int64(dist)
			d.head = cyl
		}
		return fn()
	}

	enq := p.Now()
	bytes := int(nblk) * d.geom.BlockSize
	var r *request
	if d.busy {
		// Queue behind the in-service request; a completing process will
		// dispatch us and wake us at our completion time. With merging
		// enabled, an adjacent queued request may absorb us instead.
		if d.merge {
			r = d.tryMerge(p, write, block, nblk, bytes)
		}
		if r == nil {
			r = d.newRequest(p, write, block, nblk, bytes)
			d.queue = append(d.queue, r)
		}
		if depth := len(d.queue) + 1; depth > d.stats.QueuePeak {
			d.stats.QueuePeak = depth
		}
		p.Park()
	} else {
		// Idle disk: serve ourselves immediately.
		r = d.newRequest(p, write, block, nblk, bytes)
		d.busy = true
		if d.stats.QueuePeak < 1 {
			d.stats.QueuePeak = 1
		}
		d.startService(r, p.Now())
		p.SleepUntil(r.done)
	}

	lat := p.Now() - enq
	d.stats.LatencySum += lat
	if lat > d.stats.LatencyMax {
		d.stats.LatencyMax = lat
	}
	if d.rec != nil {
		// Each member records its own queue wait; the issuing process
		// records the single service span for the (possibly merged) run.
		if r.svcFrom > enq {
			d.rec.Span(d.trkQ, "device", "wait", enq, r.svcFrom, 0, 0)
		}
		if p == r.procs[0] {
			name := "read"
			if r.write {
				name = "write"
			}
			d.rec.Span(d.trk, "device", name, r.svcFrom, r.done, int64(r.bytes), 0)
		}
	}

	var err error
	if d.failed {
		err = fmt.Errorf("%w: %s", ErrFailed, d.name)
	} else {
		err = fn()
	}
	// The issuing process chains the next request or idles the disk;
	// merged members woken at the same completion instant only transfer
	// their data.
	if p == r.procs[0] {
		if len(d.queue) > 0 {
			d.dispatch(p.Now())
		} else {
			d.busy = false
		}
	}
	if r.fin++; r.fin == len(r.procs) {
		d.free = append(d.free, r)
	}
	return err
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
// caller buffer without paying one request per stride. It is the drive's
// only read; a contiguous buffer is a one-element list.
func (d *Disk) ReadBlocksVec(ctx sim.Context, block int64, n int, dsts [][]byte) error {
	if err := d.checkRunVec("ReadBlocksVec", block, n, dsts); err != nil {
		return err
	}
	return d.access(ctx, false, block, int64(n), func() error {
		bs := d.geom.BlockSize
		b := block
		for _, dst := range dsts {
			if err := d.backend.ReadBlocks(b, dst); err != nil {
				return err
			}
			b += int64(len(dst) / bs)
		}
		d.stats.Reads++
		d.stats.BytesRead += int64(n) * int64(bs)
		return nil
	})
}

// WriteBlocksVec writes the n physically contiguous blocks starting at
// block as ONE queued request, gathering consecutive blocks from the
// elements of srcs in order (writev semantics) — the write counterpart
// of ReadBlocksVec.
func (d *Disk) WriteBlocksVec(ctx sim.Context, block int64, n int, srcs [][]byte) error {
	if err := d.checkRunVec("WriteBlocksVec", block, n, srcs); err != nil {
		return err
	}
	return d.access(ctx, true, block, int64(n), func() error {
		bs := d.geom.BlockSize
		b := block
		for _, src := range srcs {
			if err := d.backend.WriteBlocks(b, src); err != nil {
				return err
			}
			b += int64(len(src) / bs)
		}
		d.stats.Writes++
		d.stats.BytesWritten += int64(n) * int64(bs)
		return nil
	})
}
