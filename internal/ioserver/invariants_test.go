package ioserver

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/probe"
	"repro/internal/sim"
)

// dispatch is one hand-over of windows to a worker as the flight
// recorder saw it: a "service" span.
type dispatch struct {
	job        int
	start, end time.Duration
	bytes      int64
}

// served is one request: what the client submitted (wins: the plan's
// window sizes in bytes, in index order; burst: which of the client's
// bursts it belongs to) and what the flight recorder saw of it — the
// "req" span (enqueue → completion) and its "service" children in
// dispatch order.
type served struct {
	job      int
	burst    int
	wins     []int64
	enq, end time.Duration
	bytes    int64
	svc      []dispatch
}

// start is the request's first dispatch; last its last.
func (r served) start() time.Duration { return r.svc[0].start }
func (r served) last() time.Duration  { return r.svc[len(r.svc)-1].start }

// cutPlan prepares a write of blocks [first, first+Σwins), cut into
// windows of wins blocks each.
func cutPlan(set *blockio.Set, first int64, wins []int64) *blockio.BatchPlan {
	var n int64
	var cuts []int64
	for _, w := range wins {
		if n += w; len(cuts) < len(wins)-1 {
			cuts = append(cuts, n*int64(set.Store().BlockSize()))
		}
	}
	plan, err := blockio.BatchVec{{Set: set, Vec: blockio.Vec{{Block: first, N: n}}}}.Plan(cuts)
	if err != nil {
		panic(err)
	}
	return plan
}

// invariantMix runs a seeded job mix — call-sized requests (32 blocks,
// cut into one to six windows of unequal sizes) among one- and two-block
// ones, submitted in bursts with think time between, nobody waiting for
// its last burst (Stop must drain it) —
// and returns every request as submitted and as the server's lane spans
// show it, by job in submission order.
func invariantMix(t *testing.T, seed int64, pol Policy) (cfgs []JobConfig, workers int, reqs [][]served, stats []JobStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const region = 64 // blocks per job
	e := sim.NewEngine()
	workers = 1 + rng.Intn(3)
	// Three draws the lanes once took for weights and a bandwidth cap,
	// kept so that each seed's mix stays what it was.
	rng.Intn(4)
	rng.Intn(2)
	rng.Intn(24000)
	cfgs = []JobConfig{
		{Name: "bulk"},
		{Name: "small", Priority: 2},
		{Name: "mixed", Priority: 1},
		{Name: "urgent", Priority: 3},
	}
	set := fixture(t, e, region*int64(len(cfgs)))
	bs := int64(set.Store().BlockSize())
	rec := probe.New()
	s := New(Config{Workers: workers, Policy: pol})
	s.SetProbe(rec)
	jobs := make([]*Job, len(cfgs))
	reqs = make([][]served, len(cfgs))
	var clients sim.Group
	for ji, cfg := range cfgs {
		ji, job := ji, s.AddJob(cfg)
		jobs[ji] = job
		// Every draw happens here, before the engine runs, so the mix
		// depends on the seed alone.
		type burst struct {
			think time.Duration
			wins  [][]int64 // per request, window sizes in blocks
		}
		bursts := make([]burst, 5+rng.Intn(4))
		for b := range bursts {
			bursts[b].think = time.Duration(rng.Int63n(int64(60 * time.Millisecond)))
			for k := 2 + rng.Intn(7); k > 0; k-- {
				wins := []int64{int64(1 + rng.Intn(2))}
				if big := rng.Intn(4); (ji == 0 && big > 0) || (ji == 2 && big > 1) || (ji == 3 && big == 0) {
					// A whole collective call: 32 blocks in 1–6 windows.
					wins = make([]int64, 1+rng.Intn(6))
					left := int64(32)
					for w := range wins {
						wins[w] = 1
						if rest := int64(len(wins) - 1 - w); w == len(wins)-1 {
							wins[w] = left
						} else if left-rest > 1 {
							wins[w] = 1 + rng.Int63n(left-rest-1)
						}
						left -= wins[w]
					}
				}
				bursts[b].wins = append(bursts[b].wins, wins)
			}
		}
		clients.Spawn(e, "client-"+cfg.Name, func(p *sim.Proc) {
			for b, bu := range bursts {
				p.Sleep(bu.think)
				var tickets []*Request
				for _, wins := range bu.wins {
					// A nanosecond apart: (job, enqueue time) names the request.
					p.Sleep(time.Nanosecond)
					sv := served{job: ji, burst: b, enq: p.Now()}
					for _, w := range wins {
						sv.wins = append(sv.wins, w*bs)
						sv.bytes += w * bs
					}
					reqs[ji] = append(reqs[ji], sv)
					tickets = append(tickets, job.SubmitWritePlan(p, cutPlan(set, int64(ji)*region, wins), make([]byte, sv.bytes), sv.bytes))
				}
				if b == len(bursts)-1 {
					return // the server is stopped with these outstanding
				}
				for _, tk := range tickets {
					if err := tk.Wait(p); err != nil {
						t.Error(err)
					}
				}
			}
		})
	}
	s.Start(e)
	e.Go("driver", func(p *sim.Proc) { clients.Wait(p); s.Stop(p) })
	run(t, e)

	// A completed request leaves one "req" span (enqueue → completion) on
	// its lane and one "service" child per dispatch.
	children := map[probe.SpanID][]dispatch{}
	for _, sp := range rec.Spans() {
		if sp.Cat == "ioserver" && sp.Name == "service" {
			children[sp.Parent] = append(children[sp.Parent], dispatch{start: sp.Start, end: sp.End, bytes: sp.Bytes})
		}
	}
	for _, sp := range rec.Spans() {
		if sp.Cat != "ioserver" || sp.Name != "req" {
			continue
		}
		for ji, j := range jobs {
			if j.trk != sp.Track {
				continue
			}
			i := sort.Search(len(reqs[ji]), func(i int) bool { return reqs[ji][i].enq >= sp.Start })
			if i == len(reqs[ji]) || reqs[ji][i].enq != sp.Start || reqs[ji][i].svc != nil {
				t.Fatalf("job %s: a request span enqueued at %v that nobody submitted", cfgs[ji].Name, sp.Start)
			}
			r := &reqs[ji][i]
			r.end, r.svc = sp.End, children[sp.ID]
			if sp.Bytes != r.bytes {
				t.Errorf("job %s: request span of %d bytes, %d submitted", cfgs[ji].Name, sp.Bytes, r.bytes)
			}
			for k := range r.svc {
				r.svc[k].job = ji
			}
			// Record order is return order; dispatch order is what counts.
			sort.SliceStable(r.svc, func(a, b int) bool { return r.svc[a].start < r.svc[b].start })
		}
	}
	for ji, rr := range reqs {
		for _, r := range rr {
			if len(r.svc) == 0 {
				t.Fatalf("job %s: the request enqueued at %v never completed", cfgs[ji].Name, r.enq)
			}
		}
		stats = append(stats, jobs[ji].Stats())
	}
	return cfgs, workers, reqs, stats
}

// inIndexOrder reports whether the dispatches svc, in start order, hand
// out the windows wins in index order: each dispatch the next one or
// more windows, all of them by the end. Dispatches that start together
// (two workers) may have been recorded either way round.
func inIndexOrder(svc []dispatch, wins []int64) bool {
	if len(svc) == 0 {
		return len(wins) == 0
	}
	for i := 0; i < len(svc) && svc[i].start == svc[0].start; i++ {
		var sum int64
		for k, w := range wins {
			if sum += w; sum == svc[i].bytes {
				rest := append(append([]dispatch(nil), svc[:i]...), svc[i+1:]...)
				if inIndexOrder(rest, wins[k+1:]) {
					return true
				}
			}
		}
	}
	return false
}

// TestServerInvariants checks, on seeded mixes of windowed call-sized
// and small requests under every policy, what the package doc promises.
// Per request: its windows are dispatched in index order, all of them
// (a stopped server's too), and it completes when the last one returns;
// the lane counts requests (Completed, Bytes, latency) and dispatches
// (Dispatches, Busy) apart. Per server: it is work-conserving, and under
// FairShare two backlogged jobs' service never drifts apart by more than
// one maximum window each.
func TestServerInvariants(t *testing.T) {
	for _, pol := range []Policy{FIFO, FairShare, Priority} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", pol, seed), func(t *testing.T) {
				cfgs, workers, reqs, stats := invariantMix(t, seed, pol)
				var all []served
				byJob := make([][]dispatch, len(cfgs)) // in dispatch order
				cut := 0
				for ji, rr := range reqs {
					all = append(all, rr...)
					want := JobStats{Name: cfgs[ji].Name, Submitted: int64(len(rr)), Completed: int64(len(rr))}
					var slowest time.Duration
					for i, r := range rr {
						if !inIndexOrder(r.svc, r.wins) {
							t.Errorf("%s: windows %v dispatched as %+v", cfgs[ji].Name, r.wins, r.svc)
						}
						if len(r.svc) > 1 {
							cut++
						}
						if pol == FIFO && len(r.svc) > 1 {
							t.Errorf("%s: FIFO cut a request into %d dispatches", cfgs[ji].Name, len(r.svc))
						}
						var done time.Duration
						for _, d := range r.svc {
							done = max(done, d.end)
							want.Busy += d.end - d.start
							if d.start < r.enq {
								t.Errorf("%s: a window dispatched at %v of a request enqueued at %v", cfgs[ji].Name, d.start, r.enq)
							}
						}
						if r.end != done {
							t.Errorf("%s: request completed at %v, its last window returned at %v", cfgs[ji].Name, r.end, done)
						}
						if i > 0 && r.start() < rr[i-1].last() {
							t.Errorf("%s: request %d dispatched at %v, before the last window of the one ahead (%v)",
								cfgs[ji].Name, i, r.start(), rr[i-1].last())
						}
						want.Dispatches += int64(len(r.svc))
						want.Bytes += r.bytes
						slowest = max(slowest, r.end-r.enq)
						byJob[ji] = append(byJob[ji], r.svc...)
					}
					got := stats[ji]
					// The sample holds float seconds: a nanosecond of rounding.
					if d := got.Max - slowest; d < -1 || d > 1 || got.P50 == 0 {
						t.Errorf("%s: latency max %v (p50 %v), the slowest request took %v", cfgs[ji].Name, got.Max, got.P50, slowest)
					}
					got.P50, got.P95, got.P99, got.Max = 0, 0, 0, 0
					if got != want {
						t.Errorf("lane accounting:\n got %+v\nwant %+v", got, want)
					}
				}
				if pol != FIFO && cut == 0 {
					t.Error("no request was served in more than one dispatch: the mix does not exercise windows")
				}

				// Work conservation: over every interval between two
				// events, a request has windows waiting only if every
				// worker is busy.
				var times []time.Duration
				for _, r := range all {
					times = append(times, r.enq)
					for _, d := range r.svc {
						times = append(times, d.start, d.end)
					}
				}
				sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
				for i := 0; i+1 < len(times); i++ {
					at, next := times[i], times[i+1]
					if at == next {
						continue
					}
					busy := 0
					for _, dd := range byJob {
						for _, d := range dd {
							if d.start <= at && at < d.end {
								busy++
							}
						}
					}
					if busy > workers {
						t.Fatalf("%d dispatches in service at %v with %d workers", busy, at, workers)
					}
					if busy == workers {
						continue
					}
					for _, r := range all {
						if r.enq <= at && at < r.last() {
							t.Errorf("%s request has windows queued over [%v, %v) with %d of %d workers busy",
								cfgs[r.job].Name, at, next, busy, workers)
						}
					}
				}

				if pol != FairShare {
					return
				}
				// Fair share: a job is backlogged from a burst's first
				// enqueue until the burst's last dispatch. While two jobs
				// are, every dispatch of either is one window, so over any
				// interval in which two jobs both stay backlogged the
				// difference of their service is within one maximum
				// window each.
				type backlog struct{ from, to time.Duration }
				maxWin := make([]float64, len(cfgs))
				backlogs := make([][]backlog, len(cfgs))
				for ji, rr := range reqs {
					for i, r := range rr {
						for _, w := range r.wins {
							maxWin[ji] = math.Max(maxWin[ji], float64(w))
						}
						if i > 0 && rr[i-1].burst == r.burst {
							backlogs[ji][len(backlogs[ji])-1].to = r.last()
						} else {
							backlogs[ji] = append(backlogs[ji], backlog{r.enq, r.last()})
						}
					}
				}
				service := func(ji int, from, to time.Duration) (n float64) {
					for _, d := range byJob[ji] {
						if from <= d.start && d.start < to {
							n += float64(d.bytes)
						}
					}
					return n
				}
				for f := range cfgs {
					for g := f + 1; g < len(cfgs); g++ {
						bound := maxWin[f] + maxWin[g]
						for _, bf := range backlogs[f] {
							for _, bg := range backlogs[g] {
								from, to := max(bf.from, bg.from), min(bf.to, bg.to)
								// Instants strictly after both bursts were
								// enqueued, up to the first burst to drain.
								var cuts []time.Duration
								for _, at := range times {
									if from < at && at <= to && (len(cuts) == 0 || cuts[len(cuts)-1] != at) {
										cuts = append(cuts, at)
									}
								}
								for i, t1 := range cuts {
									for _, t2 := range cuts[i+1:] {
										if lag := math.Abs(service(f, t1, t2) - service(g, t1, t2)); lag > bound {
											t.Errorf("%s vs %s over [%v, %v): service differs by %.0f, bound %.0f",
												cfgs[f].Name, cfgs[g].Name, t1, t2, lag, bound)
										}
									}
								}
							}
						}
					}
				}
			})
		}
	}
}
