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
// the buffer space its windows bind to — one buffer, or the pieces of
// many (the collective layer's call: the ranks' own buffers, which the
// drives then gather from and scatter into directly). A Request is whatever the client makes
// it — the collective layer submits one per collective call, every
// aggregator domain in one prepared plan, or on the vectored route every
// rank's runs as they are — but the unit of service is the plan's
// window, not the request: a worker is handed the next window of the
// request the policy chose, issues its runs in parallel across
// the drives, and comes back to the policy, which chooses again. A
// request keeps its place at the head of its lane until its last window
// is handed out (two workers may hold two windows of one request) and
// completes once — one latency sample, one error — when the last window
// out returns; a window that fails ends the request there. How a plan is
// cut is the client's choice (collective.Options.ChunkBytes); a plan that
// is not cut is one window, and served whole.
//
// A cut costs the drives a positioning, so the server makes only the cuts
// it can use: when no other job has anything queued there is nobody to
// choose, and under FIFO the choice after any window is the same request
// again, so the worker is handed every window left at once and blockio
// sends windows issued together as the uncut plan's device requests. A
// job alone on the server, or any job under FIFO, is served exactly as if
// its plans had never been cut.
//
// Multiplexing many concurrent jobs over one device array is the whole
// point, so the dequeue order is a pluggable QoS policy:
//
//   - FIFO: global arrival order — the baseline, and the policy that
//     lets one bulk job bury everyone else's latency.
//   - FairShare: start-time fair queueing over service bytes — each
//     job accrues virtual time at one unit per byte served, and the
//     backlogged job with the least virtual time goes next, so a
//     request-heavy job cannot starve light ones.
//   - Priority: strict priority (higher JobConfig.Priority first),
//     FIFO within a level — latency-critical jobs overtake bulk
//     traffic at every dispatch.
//
// A lane's queue is unbounded: Submit never parks.
//
// Two properties hold for any job mix (TestServerInvariants checks
// them on seeded mixes of small requests and call-sized ones cut into
// one to six windows):
//
//   - Work conservation: no worker is idle while a window is waiting.
//   - Bounded unfairness under FairShare (start-time fair queueing's
//     bound): over any interval in which two jobs f and g both stay
//     backlogged, their service bytes differ by at most maxwin(f) +
//     maxwin(g) — one maximum window each. The bound is in what a
//     client lets the server stop between: a small job can fall one
//     bulk window behind (in time: that window's service, per worker),
//     which is a whole bulk call only for a client that does not cut
//     its calls.
//
// Every request records its enqueue→completion latency in the job's
// stats.Sample — one observation a request, however many windows — so
// per-job p50/p95/p99 come out exact and deterministic; JobStats
// snapshots are comparable structs, which is what
// TestMultijobDeterminism compares across runs.
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
	// service time (bytes served), arrival order within a job.
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
	// default 1). Each worker issues one window at a time — for the
	// collective layer a ChunkBytes slice of one call, or the whole call,
	// driving every drive it touches at once — so Workers is how many
	// windows are in service together (of one call or of several), not
	// how many drives are busy: one worker already keeps the whole array
	// streaming, and a second lets the next window's requests queue at
	// the drives behind the first's.
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
}

// JobStats is a point-in-time accounting snapshot for one job. It is a
// comparable struct: two runs of the same job mix must produce equal
// snapshots (TestMultijobDeterminism).
type JobStats struct {
	Name                 string
	Submitted, Completed int64         // requests — for the collective layer, calls
	Dispatches           int64         // times a worker was handed windows of one
	Bytes                int64         // payload bytes of the completed requests
	Busy                 time.Duration // service time, summed over the dispatches
	P50, P95, P99, Max   time.Duration // enqueue→completion latency, per request
}

// Job is one client's lane into the server: a FIFO request queue plus
// the scheduling state (fair-share virtual time) and accounting the
// policies read.
type Job struct {
	s    *Server
	cfg  JobConfig
	q    []*Request // the lane: q[head:] wait, oldest first
	head int
	free []*Request // released tickets, for Submit to reuse

	vtime float64 // fair-share virtual service time (bytes)

	submitted  int64
	completed  int64
	dispatches int64
	bytes      int64
	busy       time.Duration
	lat        stats.Sample // seconds, one observation per request

	trk probe.TrackID // flight-recorder lane track (0: detached)
}

// Name reports the job's configured name.
func (j *Job) Name() string { return j.cfg.Name }

// Stats snapshots the job's accounting.
func (j *Job) Stats() JobStats {
	return JobStats{
		Name:       j.cfg.Name,
		Submitted:  j.submitted,
		Completed:  j.completed,
		Dispatches: j.dispatches,
		Bytes:      j.bytes,
		Busy:       j.busy,
		P50:        j.lat.QuantileDur(0.50),
		P95:        j.lat.QuantileDur(0.95),
		P99:        j.lat.QuantileDur(0.99),
		Max:        j.lat.QuantileDur(1),
	}
}

// Latency exposes the job's raw latency sample (seconds) for quantiles
// the snapshot does not pre-compute.
func (j *Job) Latency() *stats.Sample { return &j.lat }

// Request is the ticket for one submitted plan: Done reports local
// completion without parking (the MPI_Test shape), Wait parks until the
// server finishes and returns the access error. A client that is done
// with a completed ticket may hand it back (Job.Release), and the lane's
// next Submit reuses it, wait queue and all.
type Request struct {
	job   *Job
	write bool
	// The plan's windows are issued against space, in index order. The
	// plan is the client's: validated and merged once, it may back any
	// number of submissions with only the space rebound (the collective
	// layer's schedule replay).
	plan  *blockio.BatchPlan
	space blockio.Space
	bytes int64
	seq   int64 // global arrival order
	enq   time.Duration

	// Service state. The request stays at the head of its lane until its
	// last window is dispatched (win == plan.Windows()) and completes when
	// the last dispatched window returns (inflight == 0 after that).
	win      int   // next window to dispatch
	charged  int64 // bytes of r.bytes the dispatched windows have paid for
	inflight int   // dispatches that have not returned
	first    time.Duration
	svc      []service // one per dispatch, for the recorder only

	done bool
	err  error
	wq   sim.WaitQueue
}

// service is one dispatch of a request as the flight recorder shows it.
type service struct {
	start, end time.Duration
	bytes      int64
}

// Done reports whether the server has completed the request.
func (r *Request) Done() bool { return r.done }

// Err returns the access error once Done; nil before completion.
func (r *Request) Err() error {
	if !r.done {
		return nil
	}
	return r.err
}

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

	rec *probe.Recorder // flight recorder (nil: detached)
}

// New builds a server; declare jobs with AddJob before submitting.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &Server{cfg: cfg}
}

// AddJob declares a client job. Jobs may be added any time before
// their first Submit.
func (s *Server) AddJob(cfg JobConfig) *Job {
	j := &Job{s: s, cfg: cfg}
	j.attachProbe(s.rec)
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
// them. Collective: submitting concurrently with Stop panics, like
// writing on a closed channel.
func (s *Server) Stop(p *sim.Proc) {
	if s.closed {
		return
	}
	s.closed = true
	s.idle.WakeAll(p.Engine())
	s.g.Wait(p)
}

// SubmitWritePlan enqueues a write issued through a prepared
// blockio.BatchPlan from buf, the one-piece space — Submit's contiguous
// case.
func (j *Job) SubmitWritePlan(p *sim.Proc, plan *blockio.BatchPlan, buf []byte, bytes int64) *Request {
	return j.Submit(p, true, plan, blockio.Space{{Buf: buf}}, bytes)
}

// Submit enqueues a write (or a read) issued through a prepared
// blockio.BatchPlan — the workers issue the plan's windows in order,
// bound to the buffer space sp, which must hold still until the request
// is done — and returns its ticket. bytes is the payload size the
// accounting reports and the QoS policies charge, a window at a time.
func (j *Job) Submit(p *sim.Proc, write bool, plan *blockio.BatchPlan, sp blockio.Space, bytes int64) *Request {
	s := j.s
	if !s.started {
		panic("ioserver: Submit before Start")
	}
	if s.closed {
		panic("ioserver: Submit after Stop")
	}
	s.seq++
	var r *Request
	if n := len(j.free); n > 0 {
		r, j.free = j.free[n-1], j.free[:n-1]
	} else {
		r = &Request{job: j}
	}
	r.write, r.plan, r.space, r.bytes = write, plan, sp, bytes
	r.seq, r.enq = s.seq, p.Now()
	j.submitted++
	j.push(r)
	if s.rec != nil {
		s.rec.Instant(j.trk, "ioserver", "admit", p.Now())
	}
	s.idle.WakeOne(p.Engine())
	return r
}

// Release hands a completed ticket back to j's lane, whose next Submit
// reuses it: the caller must hold no other reference to it, since the
// ticket then describes that later request. It panics on a ticket of
// another lane, one not yet completed (waited on or not) and one already
// released. A completed ticket has no waiters: completion woke them all.
func (j *Job) Release(r *Request) {
	if r.job != j || !r.done {
		panic("ioserver: Release of a request that is not a completed one of this lane")
	}
	// Keep what the next request fills again: the wait queue's array and
	// the recorder's service list.
	*r = Request{job: j, svc: r.svc[:0], wq: r.wq}
	j.free = append(j.free, r)
}

// worker is one dedicated I/O-server process: take the next windows in
// policy order, issue them, account, repeat until the server stops.
func (s *Server) worker(p *sim.Proc) {
	for {
		r := s.next(p)
		if r == nil {
			return
		}
		w0, w1, charge := s.dispatch(p, r)
		start := p.Now()
		var err error
		if r.write {
			err = r.plan.WriteWindows(p, w0, w1, r.space)
		} else {
			err = r.plan.ReadWindows(p, w0, w1, r.space)
		}
		s.returned(p, r, start, charge, err)
	}
}

// next blocks until a request has a window waiting and returns the one
// the policy picks — the head of the winning lane, left where it is — or
// nil once the server is stopped and drained. Job iteration order and
// seq tie-breaks are fixed, so scheduling is deterministic.
func (s *Server) next(p *sim.Proc) *Request {
	for {
		var r *Request
		for _, j := range s.jobs {
			if j.pending() == 0 {
				continue
			}
			if hr := j.q[j.head]; r == nil || s.beats(hr, r) {
				r = hr
			}
		}
		if r != nil {
			return r
		}
		if s.closed {
			return nil
		}
		s.idle.Wait(p)
	}
}

// dispatch hands the calling worker r's next windows [w0, w1) and
// charges r's job for them. It is one window when another job is
// backlogged — the policy chooses again when it returns — and every
// window left when none is, or under FIFO, whose choice after any window
// is the same request again (its seq is the lowest there is): a cut the
// policy cannot use is only a positioning paid, and issued together the
// windows are the uncut plan's device requests
// (blockio.BatchPlan.WriteWindows), so a job alone on the server never
// pays for cuts made on other jobs' behalf. r leaves its lane with its
// last window.
func (s *Server) dispatch(p *sim.Proc, r *Request) (w0, w1 int, charge int64) {
	j, n := r.job, r.plan.Windows()
	w0, w1 = r.win, n
	if s.cfg.Policy != FIFO {
		for _, o := range s.jobs {
			if o != j && o.pending() > 0 {
				w1 = w0 + 1
				break
			}
		}
	}
	// A window costs the bytes it moves; the last settles the difference
	// to the payload size the client declared.
	charge = r.bytes - r.charged
	if w1 < n {
		charge = min(charge, r.plan.WindowBytes(w0))
	}
	if w0 == 0 {
		r.first = p.Now()
	}
	r.win, r.charged = w1, r.charged+charge
	r.inflight++
	j.dispatches++
	if w1 == n {
		j.pop()
	}
	// Charge the fair-share virtual clock at dispatch, by the bytes. A
	// job returning from idle first catches its tag up to the server's
	// virtual clock (the start-time fair queueing rule), so accumulated
	// idleness buys at most one early dispatch, not a monopolizing burst.
	if j.vtime < s.vnow {
		j.vtime = s.vnow
	}
	s.vnow = j.vtime
	j.vtime += float64(charge)
	return w0, w1, charge
}

// pending reports how many requests wait in j's lane.
func (j *Job) pending() int { return len(j.q) - j.head }

// push appends r to j's lane. A lane that drains goes back to the start
// of its array, and one that reaches the end of it slides down over the
// taken prefix before it grows, so a busy lane stops allocating.
func (j *Job) push(r *Request) {
	if j.head > 0 && len(j.q) == cap(j.q) {
		n := copy(j.q, j.q[j.head:])
		clear(j.q[n:])
		j.q, j.head = j.q[:n], 0
	}
	j.q = append(j.q, r)
}

// pop takes the head request off j's lane (which must not be empty).
func (j *Job) pop() {
	j.q[j.head] = nil
	if j.head++; j.head == len(j.q) {
		j.q, j.head = j.q[:0], 0
	}
}

// beats reports whether request a, at the head of its lane, should be
// served before b, the best head so far, under the configured policy.
func (s *Server) beats(a, b *Request) bool {
	switch ja, jb := a.job, b.job; s.cfg.Policy {
	case Priority:
		if ja.cfg.Priority != jb.cfg.Priority {
			return ja.cfg.Priority > jb.cfg.Priority
		}
	case FairShare:
		if ja.vtime != jb.vtime {
			return ja.vtime < jb.vtime
		}
	}
	return a.seq < b.seq
}

// returned accounts for one dispatch coming back and, when it was the
// request's last one out, completes the request: accounting, spans, then
// wake its waiters. A failed window is the request's error — the first
// one, if two workers held windows — and takes the request off its lane:
// no window of it is issued after that, and it completes when the windows
// already out have returned.
func (s *Server) returned(p *sim.Proc, r *Request, start time.Duration, charge int64, err error) {
	j, now, n := r.job, p.Now(), r.plan.Windows()
	j.busy += now - start
	if s.rec != nil {
		r.svc = append(r.svc, service{start, now, charge})
	}
	if err != nil && r.err == nil {
		r.err = err
		if r.win < n {
			r.win = n
			j.pop()
		}
	}
	if r.inflight--; r.inflight > 0 || r.win < n {
		return
	}
	j.completed++
	j.bytes += r.bytes
	j.lat.AddDuration(now - r.enq)
	if s.rec != nil {
		req := s.rec.Span(j.trk, "ioserver", "req", r.enq, now, r.bytes, 0)
		if r.first > r.enq {
			s.rec.Span(j.trk, "ioserver", "wait", r.enq, r.first, 0, req)
		}
		for _, sv := range r.svc {
			s.rec.Span(j.trk, "ioserver", "service", sv.start, sv.end, sv.bytes, req)
		}
	}
	r.done = true
	r.wq.WakeAll(p.Engine())
}
