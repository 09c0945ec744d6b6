// Package ioserver promotes I/O from a library call to a service: a
// Server owns the shared device array and runs dedicated I/O-server
// processes (sim procs — the ViPIOS "I/O server" shape from the
// related-work survey) that drain per-job request queues and execute
// blockio batches on the clients' behalf. Clients — the collective
// layer's nonblocking IWriteAll/IReadAll entry points, or any direct
// submitter — enqueue Requests and go back to computing; a Request is a
// ticket with Done/Wait semantics.
//
// There is one request form: a prepared blockio.BatchPlan (validated,
// mapped and merged once by the client, reusable across submissions) and
// the buffer its one window binds to. A Request is whatever the client
// makes it, and a worker executes it whole: every merged run of the plan
// issues at once, in parallel across the drives, and the worker takes
// nothing else until all have finished. The collective layer submits one
// Request per collective call — every aggregator domain in one prepared
// plan — so a worker serves one call at a time across all drives, and the
// server's choices are made between calls.
//
// Multiplexing many concurrent jobs over one device array is the whole
// point, so the dequeue order is a pluggable QoS policy:
//
//   - FIFO: global arrival order — the baseline, and the policy that
//     lets one bulk job bury everyone else's latency.
//   - FairShare: start-time fair queueing over service bytes — each
//     job accrues virtual time at bytes/weight per byte served, and the
//     backlogged job with the least virtual time goes next, so a
//     request-heavy job cannot starve light ones.
//   - Priority: strict priority (higher JobConfig.Priority first),
//     FIFO within a level — latency-critical jobs overtake bulk
//     traffic at every dispatch.
//
// Orthogonally, JobConfig.BytesPerSec imposes a per-job bandwidth cap
// (a leaky bucket over virtual time): a job at its cap is ineligible
// until its bucket drains, whatever the policy. If every backlogged job
// is capped the worker sleeps until the earliest becomes eligible, and
// a Submit arriving mid-sleep wakes it immediately, so an uncapped
// request never waits out another job's bucket.
//
// Three properties hold for any job mix (TestServerInvariants checks
// them on seeded mixes of call-sized and small requests):
//
//   - Work conservation: no worker is idle while a request of a job
//     that is not at its cap is queued.
//   - The cap is a bound over every window: between two dispatches of a
//     capped job, the bytes dispatched in between are at most
//     BytesPerSec × the time between them.
//   - Bounded unfairness under FairShare (start-time fair queueing's
//     bound): over any interval in which two uncapped jobs f and g both
//     stay backlogged, their weighted service bytes/weight differs by at
//     most maxreq(f)/weight(f) + maxreq(g)/weight(g) — one maximum
//     request each. The bound is in requests, so it scales with what a
//     client submits: with whole collective calls as requests a small
//     job can fall one bulk call behind (in time: that call's service,
//     per worker) where per-domain requests made it one domain.
//
// Every request records its enqueue→completion latency in the job's
// stats.Sample, so per-job p50/p95/p99 come out exact and
// deterministic; JobStats snapshots are comparable structs, which is
// what TestMultijobDeterminism compares across runs.
//
// Everything relies on the engine's strict alternation (one managed
// process runs at a time), like the rest of the sim stack: no locks,
// and modeled times are bit-for-bit reproducible for a fixed job mix.
package ioserver

import (
	"fmt"
	"time"

	"repro/internal/blockio"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Policy selects the scheduler's dequeue discipline.
type Policy int

const (
	// FIFO serves requests in global arrival order.
	FIFO Policy = iota
	// FairShare serves the backlogged job with the least virtual
	// service time (bytes served / weight), arrival order within a job.
	FairShare
	// Priority serves the highest-priority backlogged job first
	// (JobConfig.Priority, larger wins), FIFO within a level.
	Priority
)

// String names the policy for tables and logs.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case FairShare:
		return "fair"
	case Priority:
		return "prio"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config sizes a Server.
type Config struct {
	// Workers is the number of dedicated I/O-server processes (≥1;
	// default 1). Each worker executes one request at a time — for the
	// collective layer one whole call, driving every drive the call
	// touches at once — so Workers is how many calls are in service
	// together, not how many drives are busy: one worker already keeps
	// the whole array streaming, and a second lets the next call's
	// requests queue at the drives behind the first's.
	Workers int
	// Policy is the dequeue discipline (default FIFO).
	Policy Policy
}

// JobConfig declares one client job to the scheduler.
type JobConfig struct {
	Name string
	// Priority orders jobs under the Priority policy (larger = served
	// first). Ignored by other policies.
	Priority int
	// Weight scales the job's fair share (default 1): a weight-2 job
	// accrues virtual time half as fast, so it receives twice the
	// service of a weight-1 job under contention. Ignored by other
	// policies.
	Weight float64
	// BytesPerSec caps the job's dispatch rate in payload bytes per
	// second of virtual time; 0 means uncapped. Applies under every
	// policy.
	BytesPerSec float64
	// QueueDepth bounds the job's pending-request queue; Submit parks
	// once the queue is full (admission control back-pressure). 0
	// means effectively unbounded.
	QueueDepth int
}

// JobStats is a point-in-time accounting snapshot for one job. It is a
// comparable struct: two runs of the same job mix must produce equal
// snapshots (TestMultijobDeterminism).
type JobStats struct {
	Name                 string
	Submitted, Completed int64
	Bytes                int64 // payload bytes served
	Busy                 time.Duration
	P50, P95, P99, Max   time.Duration // enqueue→completion latency
}

// Job is one client's lane into the server: a FIFO request queue plus
// the scheduling state (fair-share virtual time, bandwidth bucket) and
// accounting the policies read.
type Job struct {
	s   *Server
	cfg JobConfig
	q   *sim.Queue // *Request, FIFO within the job

	vtime   float64       // fair-share virtual service time (weighted bytes)
	capFree time.Duration // bandwidth bucket: eligible when now ≥ capFree

	submitted int64
	completed int64
	bytes     int64
	busy      time.Duration
	lat       stats.Sample // seconds, one observation per request

	trk probe.TrackID // flight-recorder lane track (0: detached)
}

// Name reports the job's configured name.
func (j *Job) Name() string { return j.cfg.Name }

// Stats snapshots the job's accounting.
func (j *Job) Stats() JobStats {
	return JobStats{
		Name:      j.cfg.Name,
		Submitted: j.submitted,
		Completed: j.completed,
		Bytes:     j.bytes,
		Busy:      j.busy,
		P50:       j.lat.QuantileDur(0.50),
		P95:       j.lat.QuantileDur(0.95),
		P99:       j.lat.QuantileDur(0.99),
		Max:       j.lat.QuantileDur(1),
	}
}

// Latency exposes the job's raw latency sample (seconds) for quantiles
// the snapshot does not pre-compute.
func (j *Job) Latency() *stats.Sample { return &j.lat }

// Request is the ticket for one submitted plan: Done reports local
// completion without parking (the MPI_Test shape), Wait parks until the
// server finishes and returns the access error.
type Request struct {
	job   *Job
	write bool
	// Window 0 of plan is issued against pbuf. The plan is the client's:
	// validated and merged once, it may back any number of submissions
	// with only the buffer rebound (the collective layer's schedule
	// replay).
	plan  *blockio.BatchPlan
	pbuf  []byte
	bytes int64
	seq   int64 // global arrival order
	enq   time.Duration

	done bool
	err  error
	wq   sim.WaitQueue
}

// Done reports whether the server has completed the request.
func (r *Request) Done() bool { return r.done }

// Err returns the access error once Done; nil before completion.
func (r *Request) Err() error { return r.err }

// Wait parks the caller until the server completes the request and
// returns the access error.
func (r *Request) Wait(p *sim.Proc) error {
	for !r.done {
		r.wq.Wait(p)
	}
	return r.err
}

// Server owns the device array on behalf of its jobs: a fixed pool of
// worker processes executing requests in policy order. Build with New,
// declare jobs with AddJob, Start under an engine, and Stop before the
// engine drains (parked idle workers would otherwise be reported as a
// deadlock — the server is a service, and services are shut down).
type Server struct {
	cfg  Config
	jobs []*Job

	started bool
	closed  bool
	seq     int64
	vnow    float64       // fair-share virtual clock (last dispatch's tag)
	idle    sim.WaitQueue // parked workers waiting for work
	g       sim.Group
	// capSleep lists workers sleeping out an all-jobs-capped interval;
	// submit wakes them early so a newly eligible request is served
	// immediately rather than at the next bucket expiry.
	capSleep []*sim.Proc

	rec *probe.Recorder // flight recorder (nil: detached)
}

// New builds a server; declare jobs with AddJob before submitting.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &Server{cfg: cfg}
}

// Policy reports the configured dequeue discipline.
func (s *Server) Policy() Policy { return s.cfg.Policy }

// Jobs returns the declared jobs in AddJob order.
func (s *Server) Jobs() []*Job { return s.jobs }

// AddJob declares a client job. Jobs may be added any time before
// their first Submit.
func (s *Server) AddJob(cfg JobConfig) *Job {
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 1 << 30 // effectively unbounded
	}
	j := &Job{s: s, cfg: cfg, q: sim.NewQueue(depth)}
	if s.rec != nil {
		j.attachProbe(s.rec)
	}
	s.jobs = append(s.jobs, j)
	return j
}

// SetProbe attaches a flight recorder to the server: one async lane
// track per job ("lane/<name>") carrying an admission instant and
// request/wait/service spans per request, with each job's latency
// sample adopted into the metrics registry. Pass nil to detach. Jobs
// declared after SetProbe are instrumented as they are added.
func (s *Server) SetProbe(r *probe.Recorder) {
	s.rec = r
	for _, j := range s.jobs {
		j.attachProbe(r)
	}
}

func (j *Job) attachProbe(r *probe.Recorder) {
	if r == nil {
		j.trk = 0
		return
	}
	j.trk = r.AsyncTrack("lane/" + j.cfg.Name)
	m := r.Metrics()
	m.ObserveSample("ioserver."+j.cfg.Name+".lat_s", &j.lat)
	m.Gauge("ioserver."+j.cfg.Name+".completed", func() float64 { return float64(j.completed) })
	m.Gauge("ioserver."+j.cfg.Name+".bytes", func() float64 { return float64(j.bytes) })
}

// Start launches the worker processes on the engine. Call once, before
// the first Submit.
func (s *Server) Start(e *sim.Engine) {
	if s.started {
		panic("ioserver: Start called twice")
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.g.Spawn(e, "io-server", s.worker)
	}
}

// Stop drains every queued request, retires the workers and joins
// them. Collective: submitting concurrently with Stop panics (Put on
// the closed lane), like writing on a closed channel.
func (s *Server) Stop(p *sim.Proc) {
	if s.closed {
		return
	}
	s.closed = true
	for _, j := range s.jobs {
		j.q.Close(p)
	}
	s.idle.WakeAll(p.Engine())
	s.g.Wait(p)
}

// SubmitWritePlan enqueues a write issued through a prepared
// blockio.BatchPlan — the worker issues window 0 of the plan bound to
// buf — and returns its ticket. bytes is the payload size the accounting
// and QoS policies charge.
func (j *Job) SubmitWritePlan(p *sim.Proc, plan *blockio.BatchPlan, buf []byte, bytes int64) *Request {
	return j.submit(p, true, plan, buf, bytes)
}

// SubmitReadPlan enqueues a read through a prepared plan — the read
// counterpart of SubmitWritePlan.
func (j *Job) SubmitReadPlan(p *sim.Proc, plan *blockio.BatchPlan, buf []byte, bytes int64) *Request {
	return j.submit(p, false, plan, buf, bytes)
}

func (j *Job) submit(p *sim.Proc, write bool, plan *blockio.BatchPlan, pbuf []byte, bytes int64) *Request {
	s := j.s
	if !s.started {
		panic("ioserver: Submit before Start")
	}
	s.seq++
	r := &Request{
		job:   j,
		write: write,
		plan:  plan,
		pbuf:  pbuf,
		bytes: bytes,
		seq:   s.seq,
		enq:   p.Now(),
	}
	j.submitted++
	j.q.Put(p, r) // parks when the job is at QueueDepth (admission control)
	if s.rec != nil {
		s.rec.Instant(j.trk, "ioserver", "admit", p.Now())
	}
	s.idle.WakeOne(p.Engine())
	// Workers sleeping out an all-jobs-capped interval re-evaluate now:
	// if this request is eligible it is served immediately instead of at
	// the earliest bucket expiry. A spurious wake (the new request's job
	// is itself capped) just re-sleeps to the same expiry.
	for _, w := range s.capSleep {
		p.Engine().Wake(w)
	}
	return r
}

// worker is one dedicated I/O-server process: dequeue in policy order,
// execute, complete, repeat until the server stops.
func (s *Server) worker(p *sim.Proc) {
	for {
		r := s.next(p)
		if r == nil {
			return
		}
		start := p.Now()
		var err error
		if r.write {
			err = r.plan.WriteWindow(p, 0, r.pbuf, 0)
		} else {
			err = r.plan.ReadWindow(p, 0, r.pbuf, 0)
		}
		s.complete(p, r, start, err)
	}
}

// next blocks until a request is eligible under the policy (nil once
// the server is stopped and drained). When every backlogged job is at
// its bandwidth cap, the worker sleeps until the earliest cap expiry —
// registered on capSleep so a mid-sleep Submit can wake it early.
func (s *Server) next(p *sim.Proc) *Request {
	for {
		r, wakeAt := s.pick(p)
		switch {
		case r != nil:
			return r
		case wakeAt > 0:
			s.capSleep = append(s.capSleep, p)
			p.SleepUntil(wakeAt)
			for i, w := range s.capSleep {
				if w == p {
					last := len(s.capSleep) - 1
					s.capSleep[i] = s.capSleep[last]
					s.capSleep[last] = nil
					s.capSleep = s.capSleep[:last]
					break
				}
			}
		case s.closed:
			return nil
		default:
			s.idle.Wait(p)
		}
	}
}

// pick dequeues the next request per the policy, or reports the
// earliest bandwidth-cap expiry when every backlogged job is capped
// (wakeAt 0 when there is simply nothing queued). Job iteration order
// and seq tie-breaks are fixed, so scheduling is deterministic.
func (s *Server) pick(p *sim.Proc) (r *Request, wakeAt time.Duration) {
	now := p.Now()
	var best *Job
	var bestHead *Request
	backlogged := false
	for _, j := range s.jobs {
		head, ok := j.q.Peek()
		if !ok {
			continue
		}
		backlogged = true
		if j.cfg.BytesPerSec > 0 && j.capFree > now {
			if wakeAt == 0 || j.capFree < wakeAt {
				wakeAt = j.capFree
			}
			continue
		}
		hr := head.(*Request)
		if best == nil || s.beats(j, hr, best, bestHead) {
			best, bestHead = j, hr
		}
	}
	if best == nil {
		if !backlogged {
			wakeAt = 0
		}
		return nil, wakeAt
	}
	v, _ := best.q.TryGet(p)
	r = v.(*Request)
	// Charge the QoS state at dispatch: the fair-share virtual clock
	// advances by weighted bytes, the bandwidth bucket by the time this
	// payload takes at the capped rate. A job returning from idle first
	// catches its tag up to the server's virtual clock (the start-time
	// fair queueing rule), so accumulated idleness buys at most one
	// early dispatch, not a monopolizing burst.
	if best.vtime < s.vnow {
		best.vtime = s.vnow
	}
	s.vnow = best.vtime
	if best.cfg.BytesPerSec > 0 {
		busyFor := time.Duration(float64(r.bytes) / best.cfg.BytesPerSec * float64(time.Second))
		from := best.capFree
		if now > from {
			from = now
		}
		best.capFree = from + busyFor
	}
	best.vtime += float64(r.bytes) / best.cfg.Weight
	return r, 0
}

// beats reports whether backlogged job j (head request jr) should be
// served before the current best under the configured policy.
func (s *Server) beats(j *Job, jr *Request, best *Job, br *Request) bool {
	switch s.cfg.Policy {
	case Priority:
		if j.cfg.Priority != best.cfg.Priority {
			return j.cfg.Priority > best.cfg.Priority
		}
	case FairShare:
		if j.vtime != best.vtime {
			return j.vtime < best.vtime
		}
	}
	return jr.seq < br.seq
}

// complete finalizes a request: accounting, spans, then wake its
// waiters.
func (s *Server) complete(p *sim.Proc, r *Request, start time.Duration, err error) {
	j := r.job
	j.completed++
	j.bytes += r.bytes
	j.busy += p.Now() - start
	j.lat.AddDuration(p.Now() - r.enq)
	if s.rec != nil {
		req := s.rec.Span(j.trk, "ioserver", "req", r.enq, p.Now(), r.bytes, 0)
		if start > r.enq {
			s.rec.Span(j.trk, "ioserver", "wait", r.enq, start, 0, req)
		}
		s.rec.Span(j.trk, "ioserver", "service", start, p.Now(), r.bytes, req)
	}
	r.err = err
	r.done = true
	r.wq.WakeAll(p.Engine())
}
