package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	pario "repro"
	"repro/internal/probe"
)

// Job is one parallel program of a Multijob mix: Ranks ranks moving the
// job's own Blocks-block file, each its share, Calls nonblocking
// collectives through the job's lane of the shared I/O server.
type Job struct {
	Name     string
	Ranks    int // 0: 4
	Blocks   int64
	Calls    int
	Backlog  bool          // start every call, then wait for them in order (else one at a time)
	Forever  bool          // repeat the Calls until every job without Forever has finished
	ReadBack bool          // every second call reads the file back and checks it
	Delay    time.Duration // compute before the first call
	Think    time.Duration // compute before every call: seeded, uniform below Think
	Priority int           // the lane's, for the Priority policy
}

func (j Job) ranks() int {
	if j.Ranks == 0 {
		return 4
	}
	return j.Ranks
}

// Multijob describes independent jobs sharing one I/O server over a
// fresh machine.
type Multijob struct {
	Drives int
	// Profile configures the drive queues, the collective handles
	// (Profile.Collective) and the interconnect, whose bisection all the
	// jobs share as one pool. Zero: the paper's machine.
	Profile pario.Profile
	Workers int // 0: 1
	Policy  pario.IOPolicy
	// Strided has rank r's k-th block be k·Ranks + r of its job's file —
	// every file domain holds every rank's bytes, so each call is a real
	// exchange — where by default a rank moves its own slab.
	Strided bool
	Seed    int64 // of the think times
	Jobs    []Job
	Rec     *probe.Recorder // nil: detached
	Scope   string
}

// MultijobResult is what one Multijob run measured.
type MultijobResult struct {
	Makespan time.Duration
	Lanes    []pario.IOJobStats // one per job, in Jobs order
	LaneP98  []time.Duration    // the lanes' enqueue→completion p98
	// Calls[j] holds job j's calls as its rank 0 saw them, entry to
	// Wait's return, in completion order.
	Calls    [][]time.Duration
	Requests int64 // device requests, whole run
}

// Run executes the mix and verifies every job's file and lane: each
// block holds its stamp, each read saw them, each submitted request
// completed.
func (c Multijob) Run() (MultijobResult, error) {
	var res MultijobResult
	m := pario.NewProfiledMachine(c.Drives, c.Profile)
	if c.Rec != nil {
		c.Rec.SetScope(c.Scope)
		m.SetProbe(c.Rec)
	}
	srv := pario.NewIOServer(pario.IOServerConfig{Workers: max(c.Workers, 1), Policy: c.Policy})
	srv.SetProbe(c.Rec)
	files := make([]*pario.File, len(c.Jobs))
	lanes := make([]*pario.IOJob, len(c.Jobs))
	cols := make([]*pario.Collective, len(c.Jobs))
	thinks := make([][]time.Duration, len(c.Jobs))
	res.Calls = make([][]time.Duration, len(c.Jobs))
	finite := 0 // jobs that end by themselves
	for j, job := range c.Jobs {
		if !job.Forever {
			finite++
		}
		f, err := m.Volume.Create(pario.Spec{
			Name: job.Name, Org: pario.OrgGlobalDirect,
			RecordSize: 4096, BlockRecords: 1, NumRecords: job.Blocks,
			Placement: pario.PlaceStriped, StripeUnitFS: 1,
		})
		if err != nil {
			return res, err
		}
		g, err := m.Volume.OpenGroup(job.Name)
		if err != nil {
			return res, err
		}
		files[j] = f
		lanes[j] = srv.AddJob(pario.IOJobConfig{Name: job.Name, Priority: job.Priority})
		opts := c.Profile.Collective
		opts.Service = lanes[j]
		if cols[j], err = pario.OpenCollective(g, job.ranks(), opts); err != nil {
			return res, err
		}
		// Every draw happens here, before the engine runs.
		rng := rand.New(rand.NewSource(c.Seed + int64(j)))
		thinks[j] = make([]time.Duration, job.Calls)
		for i := 0; job.Think > 0 && i < job.Calls; i++ {
			thinks[j][i] = time.Duration(rng.Int63n(int64(job.Think)))
		}
	}
	srv.Start(m.Engine)

	var pool *pario.Bisection
	if c.Profile.Bisection > 0 {
		pool = pario.NewBisection(c.Profile.Bisection)
	}
	var rankErr error
	var done pario.Group
	stop := 0.0 // 1 once the last finite job has finished
	for j, job := range c.Jobs {
		j, col, ranks := j, cols[j], int64(job.ranks())
		done.Add(job.ranks())
		g := m.GoRanks(job.ranks(), job.Name, func(r *pario.Rank) {
			defer done.Done(r.Proc)
			fail := func(err error) { rankErr = fmt.Errorf("%s rank %d: %w", job.Name, r.Rank(), err) }
			r.Compute(job.Delay)
			per := job.Blocks / ranks
			blockOf := func(k int64) int64 { return int64(r.Rank())*per + k }
			vec := pario.Vec{{Block: blockOf(0), N: per}}
			if c.Strided {
				blockOf = func(k int64) int64 { return k*ranks + int64(r.Rank()) }
				vec = make(pario.Vec, per)
				for k := range vec {
					vec[k] = pario.VecSeg{Block: blockOf(int64(k)), N: 1, BufOff: int64(k) * 4096}
				}
			}
			buf := make([]byte, per*4096) // the server holds it until Wait
			for k := int64(0); k < per; k++ {
				stamp(buf[k*4096:][:4096], blockOf(k), 0)
			}
			var rd []byte
			if job.ReadBack {
				rd = make([]byte, len(buf))
			}
			reqs := []pario.VecReq{{File: 0, Vec: vec}}
			type call struct {
				h    *pario.IOHandle
				read bool
				t0   time.Duration
			}
			var pending []call
			for epoch := 0; epoch == 0 || (job.Forever && r.ReduceMax(stop) == 0); epoch++ {
				for i := 0; i < job.Calls; i++ {
					if t := thinks[j][i]; t > 0 {
						r.Compute(t)
					}
					cl := call{read: job.ReadBack && i%2 == 1, t0: r.Now()}
					var err error
					if cl.read {
						cl.h, err = col.IReadAll(r, reqs, rd)
					} else {
						cl.h, err = col.IWriteAll(r, reqs, buf)
					}
					if err != nil {
						fail(err)
						return
					}
					if pending = append(pending, cl); job.Backlog && i < job.Calls-1 {
						continue
					}
					for _, cl := range pending {
						if err := cl.h.Wait(r); err != nil {
							fail(err)
						} else if cl.read && !bytes.Equal(rd, buf) {
							fail(fmt.Errorf("read back other bytes than it wrote"))
						}
						if r.Rank() == 0 {
							res.Calls[j] = append(res.Calls[j], r.Now()-cl.t0)
						}
					}
					pending = pending[:0]
				}
			}
			if r.Rank() == 0 && !job.Forever {
				if finite--; finite == 0 {
					stop = 1
				}
			}
		})
		c.Profile.ConfigureRanks(g)
		if pool != nil {
			g.SetBisectionPool(pool) // one interconnect for all the jobs
		}
	}
	m.Go("driver", func(p *pario.Proc) {
		done.Wait(p)
		srv.Stop(p)
		res.Makespan = p.Now()
	})
	if err := m.Run(); err != nil {
		return res, err
	}
	if rankErr != nil {
		return res, rankErr
	}

	for _, d := range m.Disks {
		res.Requests += d.Stats().Requests()
	}
	want := make([]byte, 4096)
	for j, job := range c.Jobs {
		st := lanes[j].Stats()
		if st.Submitted != st.Completed {
			return res, fmt.Errorf("lane %s unfinished: %+v", job.Name, st)
		}
		res.Lanes = append(res.Lanes, st)
		res.LaneP98 = append(res.LaneP98, lanes[j].Latency().QuantileDur(0.98))
		img := make([]byte, job.Blocks*4096)
		if err := files[j].Set().ReadVec(pario.NewWall(), pario.Vec{{Block: 0, N: job.Blocks}}, img); err != nil {
			return res, err
		}
		for b := int64(0); b < job.Blocks; b++ {
			if stamp(want, b, 0); !bytes.Equal(img[b*4096:][:4096], want) {
				return res, fmt.Errorf("%s block %d corrupt", job.Name, b)
			}
		}
	}
	return res, nil
}
