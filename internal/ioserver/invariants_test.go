package ioserver

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
)

// served is one request as the flight recorder saw it.
type served struct {
	job             int
	enq, start, end time.Duration
	bytes           int64
}

// invariantMix runs a seeded job mix — call-sized requests (32 blocks)
// among one- and two-block ones, submitted in bursts with think time
// between, one job under a bandwidth cap — and returns every request's
// (enqueue, dispatch, completion) from the server's lane spans, by job
// in submission order.
func invariantMix(t *testing.T, seed int64, pol Policy) (cfgs []JobConfig, workers int, reqs [][]served) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const region = 64 // blocks per job
	e := sim.NewEngine()
	workers = 1 + rng.Intn(3)
	cfgs = []JobConfig{
		{Name: "bulk", Weight: 1},
		{Name: "small", Weight: float64(1 + rng.Intn(4)), Priority: 2},
		{Name: "mixed", Weight: float64(2 + rng.Intn(2)), Priority: 1},
		{Name: "capped", Weight: 1, Priority: 3, BytesPerSec: float64(8000 + rng.Intn(24000))},
	}
	set := fixture(t, e, region*int64(len(cfgs)))
	bs := int64(set.BlockSize())
	rec := probe.New()
	s := New(Config{Workers: workers, Policy: pol})
	s.SetProbe(rec)
	jobs := make([]*Job, len(cfgs))
	var clients sim.Group
	for ji, cfg := range cfgs {
		ji, job := ji, s.AddJob(cfg)
		jobs[ji] = job
		// Every draw happens here, before the engine runs, so the mix
		// depends on the seed alone.
		type burst struct {
			think  time.Duration
			blocks []int64
		}
		bursts := make([]burst, 5+rng.Intn(4))
		for b := range bursts {
			bursts[b].think = time.Duration(rng.Int63n(int64(60 * time.Millisecond)))
			for k := 2 + rng.Intn(7); k > 0; k-- {
				n := int64(1 + rng.Intn(2))
				if big := rng.Intn(4); (ji == 0 && big > 0) || (ji == 2 && big > 1) || (ji == 3 && big == 0) {
					n = 32 // a whole collective call
				}
				bursts[b].blocks = append(bursts[b].blocks, n)
			}
		}
		clients.Spawn(e, "client-"+cfg.Name, func(p *sim.Proc) {
			for _, b := range bursts {
				p.Sleep(b.think)
				var tickets []*Request
				for _, n := range b.blocks {
					buf := make([]byte, n*bs)
					tickets = append(tickets, job.SubmitWritePlan(p, batchFor(set, int64(ji)*region, n), buf, n*bs))
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

	// A completed request leaves a "req" span (enqueue → completion) on
	// its lane and a "service" child (dispatch → completion).
	dispatched := map[probe.SpanID]time.Duration{}
	for _, sp := range rec.Spans() {
		if sp.Cat == "ioserver" && sp.Name == "service" {
			dispatched[sp.Parent] = sp.Start
		}
	}
	reqs = make([][]served, len(cfgs))
	for _, sp := range rec.Spans() {
		if sp.Cat != "ioserver" || sp.Name != "req" {
			continue
		}
		for ji, j := range jobs {
			if j.trk == sp.Track {
				reqs[ji] = append(reqs[ji], served{job: ji, enq: sp.Start, start: dispatched[sp.ID], end: sp.End, bytes: sp.Bytes})
			}
		}
	}
	for ji, rr := range reqs {
		// Completion order → submission order: a lane is FIFO.
		sort.SliceStable(rr, func(a, b int) bool {
			if rr[a].start != rr[b].start {
				return rr[a].start < rr[b].start
			}
			return rr[a].enq < rr[b].enq
		})
		if int64(len(rr)) != jobs[ji].Stats().Completed {
			t.Fatalf("job %s: %d request spans, %d completed", cfgs[ji].Name, len(rr), jobs[ji].Stats().Completed)
		}
	}
	return cfgs, workers, reqs
}

// capBusy is how long a request of n bytes holds a capped job's bucket.
func capBusy(n int64, bps float64) time.Duration {
	return time.Duration(float64(n) / bps * float64(time.Second))
}

// TestServerInvariants checks, on seeded mixes of call-sized and small
// requests under every policy, the three properties the package doc
// promises: the server is work-conserving, a bandwidth cap is never
// exceeded over any window, and under FairShare two backlogged jobs'
// weighted service never drifts apart by more than one maximum request ÷
// weight each.
func TestServerInvariants(t *testing.T) {
	for _, pol := range []Policy{FIFO, FairShare, Priority} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", pol, seed), func(t *testing.T) {
				cfgs, workers, reqs := invariantMix(t, seed, pol)
				var all []served
				for _, rr := range reqs {
					all = append(all, rr...)
				}

				// When each job is at its cap: from a dispatch until the
				// bucket has drained what was dispatched so far.
				capped := make([][][2]time.Duration, len(cfgs))
				for ji, rr := range reqs {
					bps := cfgs[ji].BytesPerSec
					if bps == 0 {
						continue
					}
					var free time.Duration
					for _, r := range rr {
						if r.start < free {
							t.Errorf("%s: dispatched at %v, capped until %v", cfgs[ji].Name, r.start, free)
						}
						free = max(free, r.start) + capBusy(r.bytes, bps)
						capped[ji] = append(capped[ji], [2]time.Duration{r.start, free})
					}
					// No window holds more than rate × length: between
					// dispatch i and dispatch k the bucket drained
					// everything dispatched in [i, k).
					for i := range rr {
						var sum int64
						for k := i + 1; k < len(rr); k++ {
							sum += rr[k-1].bytes
							if win := rr[k].start - rr[i].start; capBusy(sum, bps) > win+time.Duration(k-i) {
								t.Errorf("%s: %d bytes dispatched in a %v window, cap %.0f B/s", cfgs[ji].Name, sum, win, bps)
							}
						}
					}
				}
				isCapped := func(ji int, at time.Duration) bool {
					for _, iv := range capped[ji] {
						if iv[0] <= at && at < iv[1] {
							return true
						}
					}
					return false
				}

				// Work conservation: over every interval between two
				// events, a request sits queued only if every worker is
				// busy or its job is at its cap.
				var times []time.Duration
				for _, r := range all {
					times = append(times, r.enq, r.start, r.end)
				}
				for ji := range capped {
					for _, iv := range capped[ji] {
						times = append(times, iv[1])
					}
				}
				sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
				for i := 0; i+1 < len(times); i++ {
					at, next := times[i], times[i+1]
					if at == next {
						continue
					}
					busy := 0
					for _, r := range all {
						if r.start <= at && at < r.end {
							busy++
						}
					}
					if busy > workers {
						t.Fatalf("%d requests in service at %v with %d workers", busy, at, workers)
					}
					if busy == workers {
						continue
					}
					for _, r := range all {
						if r.enq <= at && at < r.start && !isCapped(r.job, at) {
							t.Errorf("%s request queued over [%v, %v) with %d of %d workers busy",
								cfgs[r.job].Name, at, next, busy, workers)
						}
					}
				}

				if pol != FairShare {
					return
				}
				// Fair share: a job is backlogged from a burst's enqueue
				// until the burst's last dispatch. Over any interval in
				// which two uncapped jobs both stay backlogged, the
				// difference of their weighted service is within one
				// maximum request ÷ weight each.
				type backlog struct{ from, to time.Duration }
				maxReq := make([]float64, len(cfgs))
				backlogs := make([][]backlog, len(cfgs))
				for ji, rr := range reqs {
					for i, r := range rr {
						maxReq[ji] = math.Max(maxReq[ji], float64(r.bytes))
						if i > 0 && rr[i-1].enq == r.enq {
							backlogs[ji][len(backlogs[ji])-1].to = r.start
						} else {
							backlogs[ji] = append(backlogs[ji], backlog{r.enq, r.start})
						}
					}
				}
				service := func(ji int, from, to time.Duration) (n float64) {
					for _, r := range reqs[ji] {
						if from <= r.start && r.start < to {
							n += float64(r.bytes)
						}
					}
					return n / cfgs[ji].Weight
				}
				for f := range cfgs {
					for g := f + 1; g < len(cfgs); g++ {
						if cfgs[f].BytesPerSec > 0 || cfgs[g].BytesPerSec > 0 {
							continue
						}
						bound := maxReq[f]/cfgs[f].Weight + maxReq[g]/cfgs[g].Weight
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
											t.Errorf("%s vs %s over [%v, %v): weighted service differs by %.0f, bound %.0f",
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
