// Multijob differential phase: several jobs — each its own rank group,
// its own files, its own QoS lane on one shared I/O server — run
// nonblocking collectives concurrently, and the final byte image must
// match (a) the same workload executed job-after-job through the
// blocking path with no server at all, and (b) the flat serial
// reference model. Jobs' file footprints are disjoint by construction,
// so any QoS policy's interleaving of their device batches must be
// data-invisible; a divergence localizes a bug in the scheduler or the
// split-collective plumbing (stale domain buffers, misrouted tickets,
// exchange-after-submit races).
//
// Failures print the scenario seed; replay with
//
//	go test -run 'TestDifferentialMultijob/seed=N' ./internal/collective
package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/ioserver"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// mjJob is one generated job: its geometry, two write phases (the
// second overwrites part of the first), one read-back phase, and its
// QoS lane configuration.
type mjJob struct {
	nRanks  int
	opts    Options // per-job collective options (Service filled at run time)
	geom    *fileGroupInfo
	names   []string
	lane    ioserver.JobConfig
	arrival time.Duration // staggered job start
	compute time.Duration // overlapped work between issue and Wait

	writes []diffPhase // kind ignored; write request lists
	read   diffPhase   // read-back with expected buffers
	ref    []byte      // this job's files' expected final image
}

// mjScenario is a seeded multijob workload over one shared store and
// one shared I/O server.
type mjScenario struct {
	seed    int64
	kind    storeKind
	place   int
	policy  ioserver.Policy
	workers int
	jobs    []*mjJob
}

func genMultijob(seed int64) *mjScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &mjScenario{
		seed:    seed,
		kind:    storeKind(seed % 3),
		place:   int(seed/3) % 3,
		policy:  ioserver.Policy(rng.Intn(3)),
		workers: 1 + rng.Intn(3),
	}
	nJobs := 2 + rng.Intn(3)
	for j := 0; j < nJobs; j++ {
		job := &mjJob{
			nRanks: 2 + rng.Intn(4),
			opts: Options{
				Aggregators: rng.Intn(5),
				Locality:    rng.Intn(2) == 1,
			},
		}
		// Four draws once set last-writer-wins and the lane's weight,
		// bandwidth cap and queue depth; they are made and discarded so
		// that every seed's other fields stay what they were.
		rng.Intn(2)
		job.lane = ioserver.JobConfig{Name: fmt.Sprintf("job%d", j), Priority: rng.Intn(3)}
		rng.Intn(3)
		rng.Intn(4)
		rng.Intn(3)
		job.arrival = time.Duration(rng.Intn(4)) * 500 * time.Microsecond
		job.compute = time.Duration(rng.Intn(3)) * time.Millisecond
		g := &fileGroupInfo{nFiles: 1 + rng.Intn(2)}
		for f := 0; f < g.nFiles; f++ {
			g.offs = append(g.offs, g.total)
			size := int64(8 + rng.Intn(24))
			g.sizes = append(g.sizes, size)
			g.total += size
			job.names = append(job.names, fmt.Sprintf("j%df%d", j, f))
		}
		job.geom = g
		job.ref = make([]byte, g.total*testBS)
		sc.jobs = append(sc.jobs, job)
		for ph := 0; ph < 2; ph++ {
			sc.genJobWrite(rng, job, j, ph)
		}
		sc.genJobRead(rng, job, j)
	}
	return sc
}

// genJobWrite assigns a random subset of the job's blocks to its ranks,
// one rank a block, fills the buffers, and folds them into the job's
// reference image.
func (sc *mjScenario) genJobWrite(rng *rand.Rand, job *mjJob, j, ph int) {
	g := job.geom
	density := 0.3 + 0.5*rng.Float64()
	owners := make([][]int, g.total)
	for gb := int64(0); gb < g.total; gb++ {
		if rng.Float64() >= density {
			continue
		}
		owners[gb] = []int{rng.Intn(job.nRanks)}
	}
	reqs, bufs := rankSegments(rng, g, owners, job.nRanks)
	phase := 1000*int(sc.seed) + 10*j + ph // any deterministic content tag
	for r := range reqs {
		for _, q := range reqs[r] {
			for _, sg := range q.Vec {
				gb0 := g.offs[q.File] + sg.Block
				for b := int64(0); b < sg.N; b++ {
					for i := int64(0); i < testBS; i++ {
						bufs[r][sg.BufOff+b*testBS+i] = diffContent(sc.seed, phase, r, gb0+b, i)
					}
				}
			}
		}
	}
	for gb := int64(0); gb < g.total; gb++ {
		if len(owners[gb]) == 0 {
			continue
		}
		for i := int64(0); i < testBS; i++ {
			job.ref[gb*testBS+i] = diffContent(sc.seed, phase, owners[gb][0], gb, i)
		}
	}
	job.writes = append(job.writes, diffPhase{reqs: reqs, bufs: bufs})
}

// genJobRead snapshots random segments of the job's final image as the
// read-back phase's expected buffers.
func (sc *mjScenario) genJobRead(rng *rand.Rand, job *mjJob, j int) {
	g := job.geom
	reqs := make([][]VecReq, job.nRanks)
	bufs := make([][]byte, job.nRanks)
	expect := make([][]byte, job.nRanks)
	for r := 0; r < job.nRanks; r++ {
		var off int64
		for s := 0; s < rng.Intn(3); s++ {
			f := rng.Intn(g.nFiles)
			blk := rng.Int63n(g.sizes[f])
			n := 1 + rng.Int63n(4)
			if blk+n > g.sizes[f] {
				n = g.sizes[f] - blk
			}
			reqs[r] = append(reqs[r], VecReq{File: f, Vec: blockio.Vec{{Block: blk, N: n, BufOff: off}}})
			off += n * testBS
		}
		bufs[r] = make([]byte, off)
		expect[r] = make([]byte, off)
		for _, q := range reqs[r] {
			for _, sg := range q.Vec {
				gb0 := (g.offs[q.File] + sg.Block) * testBS
				copy(expect[r][sg.BufOff:sg.BufOff+sg.N*testBS], job.ref[gb0:gb0+sg.N*testBS])
			}
		}
	}
	job.read = diffPhase{reqs: reqs, bufs: bufs, expect: expect}
}

// build creates the scenario's volume and one collective per job, plus
// a group over every file (in job order) for whole-image capture.
func (sc *mjScenario) build(t *testing.T, e *sim.Engine, service []*ioserver.Job, chunk int64) (cols []*Collective, all *pfs.FileGroup) {
	t.Helper()
	store, _ := newTestStore(t, e, sc.kind)
	vol := pfs.NewVolume(store)
	var allNames []string
	for j, job := range sc.jobs {
		for f, name := range job.names {
			if _, err := vol.Create(testPlacements[sc.place].spec(name, job.geom.sizes[f])); err != nil {
				t.Fatalf("seed %d: %v", sc.seed, err)
			}
			allNames = append(allNames, name)
		}
		g, err := vol.OpenGroup(job.names...)
		if err != nil {
			t.Fatalf("seed %d: %v", sc.seed, err)
		}
		opts := job.opts
		opts.ChunkBytes = chunk
		if service != nil {
			opts.Service = service[j]
		}
		col, err := Open(g, job.nRanks, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", sc.seed, err)
		}
		cols = append(cols, col)
	}
	all, err := vol.OpenGroup(allNames...)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.seed, err)
	}
	return cols, all
}

// runScheduled executes every job concurrently through the shared
// server, every handle at ChunkBytes chunk — the server may stop a call
// after every chunk bytes of it and serve another job — and returns the
// final whole-store image and in how many dispatches beyond one a call
// the server did it.
func (sc *mjScenario) runScheduled(t *testing.T, chunk int64) (img []byte, cut int64) {
	e := sim.NewEngine()
	srv := ioserver.New(ioserver.Config{Workers: sc.workers, Policy: sc.policy})
	lanes := make([]*ioserver.Job, len(sc.jobs))
	for j, job := range sc.jobs {
		lanes[j] = srv.AddJob(job.lane)
	}
	cols, all := sc.build(t, e, lanes, chunk)
	srv.Start(e)
	var joins []*sim.Group
	for j, job := range sc.jobs {
		j, job, col := j, job, cols[j]
		_, join := mpp.Run(e, job.nRanks, fmt.Sprintf("job%d", j), func(p *mpp.Proc) {
			r := p.Rank()
			p.Compute(job.arrival)
			for wi, w := range job.writes {
				h, err := col.IWriteAll(p, w.reqs[r], w.bufs[r])
				if err != nil {
					t.Errorf("seed %d job %d write %d rank %d: %v", sc.seed, j, wi, r, err)
					return
				}
				p.Compute(job.compute)
				if err := h.Wait(p); err != nil {
					t.Errorf("seed %d job %d write %d rank %d: %v", sc.seed, j, wi, r, err)
					return
				}
			}
			h, err := col.IReadAll(p, job.read.reqs[r], job.read.bufs[r])
			if err != nil {
				t.Errorf("seed %d job %d read rank %d: %v", sc.seed, j, r, err)
				return
			}
			p.Compute(job.compute)
			if err := h.Wait(p); err != nil {
				t.Errorf("seed %d job %d read rank %d: %v", sc.seed, j, r, err)
				return
			}
			if !bytes.Equal(job.read.bufs[r], job.read.expect[r]) {
				t.Errorf("seed %d job %d rank %d: scheduled read diverged from reference model", sc.seed, j, r)
			}
		})
		joins = append(joins, join)
	}
	e.Go("driver", func(sp *sim.Proc) {
		for _, jn := range joins {
			jn.Wait(sp)
		}
		srv.Stop(sp)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d: %v", sc.seed, err)
	}
	for j, lane := range lanes {
		st := lane.Stats()
		if st.Submitted == 0 || st.Submitted != st.Completed || st.Dispatches < st.Completed || (chunk == 0 && st.Dispatches != st.Completed) {
			t.Fatalf("seed %d job %d: server accounting %+v", sc.seed, j, st)
		}
		cut += st.Dispatches - st.Completed
	}
	return readAllBlocks(t, all), cut
}

// runSerialized executes the same workload job-after-job (job j+1's
// ranks gate on job j's join) through the blocking path with no server,
// and returns the final image.
func (sc *mjScenario) runSerialized(t *testing.T) []byte {
	e := sim.NewEngine()
	cols, all := sc.build(t, e, nil, 0)
	joins := make([]*sim.Group, len(sc.jobs))
	for j, job := range sc.jobs {
		j, job, col := j, job, cols[j]
		_, join := mpp.Run(e, job.nRanks, fmt.Sprintf("job%d", j), func(p *mpp.Proc) {
			if j > 0 {
				joins[j-1].Wait(p.Proc)
			}
			r := p.Rank()
			for wi, w := range job.writes {
				if err := col.WriteAll(p, w.reqs[r], w.bufs[r]); err != nil {
					t.Errorf("seed %d job %d write %d rank %d: %v", sc.seed, j, wi, r, err)
					return
				}
			}
			// Fresh buffers so the serialized run's read checks are
			// independent of the scheduled run's.
			buf := make([]byte, len(job.read.bufs[r]))
			if err := col.ReadAll(p, job.read.reqs[r], buf); err != nil {
				t.Errorf("seed %d job %d read rank %d: %v", sc.seed, j, r, err)
				return
			}
			if !bytes.Equal(buf, job.read.expect[r]) {
				t.Errorf("seed %d job %d rank %d: serialized read diverged from reference model", sc.seed, j, r)
			}
		})
		joins[j] = join
	}
	e.Go("driver", func(sp *sim.Proc) { joins[len(joins)-1].Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d: %v", sc.seed, err)
	}
	return readAllBlocks(t, all)
}

// TestDifferentialMultijob: 18 seeded scenarios sweeping store kind ×
// layout × policy × worker count × lane configs. Scheduled and
// serialized executions must produce byte-identical images, both equal
// to the serial reference model — with every call one server request,
// and again with every handle at ChunkBytes of two blocks, so that a
// call of any size is three windows or more and the server interleaves
// the jobs inside their calls.
func TestDifferentialMultijob(t *testing.T) {
	var cut int64
	for seed := int64(0); seed < 18; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := genMultijob(seed)
			scheduled, _ := sc.runScheduled(t, 0)
			windowed, n := sc.runScheduled(t, 2*testBS)
			cut += n
			serialized := sc.runSerialized(t)
			if !bytes.Equal(scheduled, serialized) {
				t.Fatalf("seed %d: scheduled image diverges from serialized image", seed)
			}
			if !bytes.Equal(windowed, serialized) {
				t.Fatalf("seed %d: image of the run served in windows diverges from serialized image", seed)
			}
			var ref []byte
			for _, job := range sc.jobs {
				ref = append(ref, job.ref...)
			}
			if !bytes.Equal(scheduled, ref) {
				t.Fatalf("seed %d: scheduled image diverges from reference model", seed)
			}
		})
	}
	t.Logf("windowed runs: %d dispatches beyond one a call", cut)
	if cut < 100 {
		t.Errorf("the windowed runs were served in %d dispatches beyond one a call: the sweep does not interleave jobs inside calls", cut)
	}
}
