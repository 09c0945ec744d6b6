package experiments

import (
	"bytes"
	"fmt"
	"time"

	pario "repro"
	"repro/internal/probe"
)

// Job is one parallel program of a Multijob mix: mjRanks ranks rewriting
// their slabs of the job's own Blocks-block file, Calls nonblocking
// collectives through the job's lane of the shared I/O server.
type Job struct {
	Name     string
	Blocks   int64
	Calls    int
	Backlog  bool          // start every call, then wait for them in order (else one at a time)
	Delay    time.Duration // compute before the first call
	Priority int           // the lane's, for the Priority policy
}

// mjRanks is the size of every job's rank group.
const mjRanks = 4

// Multijob describes independent jobs sharing one single-worker I/O
// server over a fresh paper-profile machine.
type Multijob struct {
	Drives int
	Policy pario.IOPolicy
	Jobs   []Job
	Rec    *probe.Recorder // nil: detached
	Scope  string
}

// MultijobResult is what one Multijob run measured.
type MultijobResult struct {
	Makespan time.Duration
	Lanes    []pario.IOJobStats // one per job, in Jobs order
	Requests int64              // device requests, whole run
}

// Run executes the mix and verifies every job's file and lane: each
// block holds its stamp, each submitted request completed.
func (c Multijob) Run() (MultijobResult, error) {
	var res MultijobResult
	m := pario.NewMachine(c.Drives)
	if c.Rec != nil {
		c.Rec.SetScope(c.Scope)
		m.SetProbe(c.Rec)
	}
	srv := pario.NewIOServer(pario.IOServerConfig{Workers: 1, Policy: c.Policy})
	srv.SetProbe(c.Rec)
	files := make([]*pario.File, len(c.Jobs))
	lanes := make([]*pario.IOJob, len(c.Jobs))
	cols := make([]*pario.Collective, len(c.Jobs))
	for j, job := range c.Jobs {
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
		if cols[j], err = pario.OpenCollective(g, mjRanks, pario.CollectiveOptions{Service: lanes[j]}); err != nil {
			return res, err
		}
	}
	srv.Start(m.Engine)

	var rankErr error
	var done pario.Group
	done.Add(len(c.Jobs) * mjRanks)
	for j, job := range c.Jobs {
		col := cols[j]
		m.GoRanks(mjRanks, job.Name, func(r *pario.Rank) {
			defer done.Done(r.Proc)
			r.Compute(job.Delay)
			per := job.Blocks / mjRanks
			first := int64(r.Rank()) * per
			buf := make([]byte, per*4096) // the server holds it until Wait
			for k := int64(0); k < per; k++ {
				stamp(buf[k*4096:][:4096], first+k, 0)
			}
			reqs := []pario.VecReq{{File: 0, Vec: pario.Vec{{Block: first, N: per}}}}
			var pending []*pario.IOHandle
			for i := 0; i < job.Calls; i++ {
				h, err := col.IWriteAll(r, reqs, buf)
				if err != nil {
					rankErr = fmt.Errorf("%s rank %d: %w", job.Name, r.Rank(), err)
					return
				}
				if pending = append(pending, h); job.Backlog && i < job.Calls-1 {
					continue
				}
				for _, h := range pending {
					if err := h.Wait(r); err != nil {
						rankErr = fmt.Errorf("%s rank %d: %w", job.Name, r.Rank(), err)
					}
				}
				pending = pending[:0]
			}
		})
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
