package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	pario "repro"
)

// multijob_qos: eight parallel programs share one I/O server and one
// interconnect. The bully checkpoints through back-to-back nonblocking
// collectives; seven small victims interleave small writes and read-backs
// with think time. An op is one victim collective call.
const (
	mjDrives       = 16
	mjBullyRanks   = 64
	mjBullyBlocks  = 16 // per rank per call; two calls per epoch
	mjVictims      = 7
	mjVictimRanks  = 8
	mjVictimBlocks = 4 // per rank per call
	mjEpochCalls   = 4 // victim calls per epoch: write, read, write, read
	mjEpochOps     = mjVictims * mjEpochCalls
	mjMaxThink     = 20 * time.Millisecond
)

// mjJob is one parallel program: its file, lane, collective handle and
// per-rank buffers.
type mjJob struct {
	name   string
	ranks  int
	blocks int // per rank per call
	file   *pario.File
	at     int64 // reference-model index of the file's block 0
	lane   *pario.IOJob
	col    *pario.Collective
	pay    [][]byte           // per rank
	rd     [][]byte           // per rank (victims)
	slot0  int                // payload slot of rank 0, block 0
	reqv   [][][]pario.VecReq // [call region][rank], built at set-up
}

type mjFixture struct {
	seed    uint64
	w       *world
	pf      pario.Profile
	srv     *pario.IOServer
	pool    *pario.Bisection
	bully   *mjJob
	victims []*mjJob
	calls   int               // per victim
	think   [][]time.Duration // [victim][call]
	ref     *refModel
	jobs    []*mjJob // bully first
}

func (fx *mjFixture) world() *world { return fx.w }
func (fx *mjFixture) attach(rec *pario.Recorder) {
	fx.w.attach(rec)
	fx.srv.SetProbe(rec)
}

// newMultijob is the set-up: machine, server and lanes, one file and one
// collective handle per job, seeded think times and payloads. total is
// the number of victim calls over all victims.
func newMultijob(seed uint64, total int) (fixture, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	pf := pario.TunedProfile()
	m := pario.NewProfiledMachine(mjDrives, pf)
	fx := &mjFixture{seed: seed, w: &world{m: m}, pf: pf, calls: total / mjVictims,
		pool: pario.NewBisection(pf.Bisection)}
	if _, err := m.Volume.Create(pario.Spec{Name: "pad", RecordSize: blockSize, BlockRecords: 1,
		NumRecords: int64(mjDrives * (64 + rng.Intn(64*8)))}); err != nil {
		return nil, err
	}
	fx.srv = pario.NewIOServer(pario.IOServerConfig{Workers: 2, Policy: pario.IOFairShare})
	var nextBlock int64
	nextSlot := 0
	add := func(name string, ranks, blocks, calls int) (*mjJob, error) {
		j := &mjJob{name: name, ranks: ranks, blocks: blocks, at: nextBlock, slot0: nextSlot}
		n := int64(ranks * blocks * calls)
		var err error
		if j.file, err = m.Volume.Create(pario.Spec{Name: name, Org: pario.OrgGlobalDirect,
			RecordSize: blockSize, BlockRecords: 1, NumRecords: n,
			Placement: pario.PlaceStriped, StripeUnitFS: 1}); err != nil {
			return nil, err
		}
		g, err := m.Volume.OpenGroup(name)
		if err != nil {
			return nil, err
		}
		j.lane = fx.srv.AddJob(pario.IOJobConfig{Name: name})
		opts := pf.Collective
		opts.Service = j.lane
		if j.col, err = pario.OpenCollective(g, ranks, opts); err != nil {
			return nil, err
		}
		j.pay = make([][]byte, ranks)
		j.rd = make([][]byte, ranks)
		for r := range j.pay {
			j.pay[r] = make([]byte, blocks*blockSize)
			j.rd[r] = make([]byte, blocks*blockSize)
			for k := 0; k < blocks; k++ {
				newPayload(j.pay[r][k*blockSize:][:blockSize], seed, nextSlot)
				nextSlot++
			}
		}
		j.reqv = make([][][]pario.VecReq, calls)
		for half := range j.reqv {
			j.reqv[half] = make([][]pario.VecReq, ranks)
			for r := range j.reqv[half] {
				j.reqv[half][r] = j.reqs(r, half)
			}
		}
		nextBlock += n
		fx.jobs = append(fx.jobs, j)
		fx.w.lanes = append(fx.w.lanes, j.lane)
		fx.w.cols = append(fx.w.cols, j.col)
		return j, nil
	}
	var err error
	// The bully's two calls per epoch write the two halves of its file.
	if fx.bully, err = add("bully", mjBullyRanks, mjBullyBlocks, 2); err != nil {
		return nil, err
	}
	for v := 0; v < mjVictims; v++ {
		j, err := add(fmt.Sprintf("v%d", v), mjVictimRanks, mjVictimBlocks, 1)
		if err != nil {
			return nil, err
		}
		fx.victims = append(fx.victims, j)
		th := make([]time.Duration, fx.calls)
		for i := range th {
			th[i] = time.Duration(rng.Int63n(int64(mjMaxThink)))
		}
		fx.think = append(fx.think, th)
	}
	fx.ref = newRefModel(nextBlock, blockSize, func(slot int) []byte {
		for _, j := range fx.jobs {
			if n := slot - j.slot0; n >= 0 && n < j.ranks*j.blocks {
				return j.pay[n/j.blocks][n%j.blocks*blockSize:][:blockSize]
			}
		}
		return nil
	})
	return fx, nil
}

// reqs is rank's share of the job's half-th call region: block k of the
// rank's buffer is the rank-th block of row k, so rows — the aggregator
// domains — interleave every rank's bytes and each call is a real
// exchange through the shared pool.
func (j *mjJob) reqs(rank, half int) []pario.VecReq {
	vec := make(pario.Vec, j.blocks)
	for k := range vec {
		vec[k] = pario.VecSeg{Block: j.blockOf(rank, half, k), N: 1, BufOff: int64(k) * blockSize}
	}
	return []pario.VecReq{{File: 0, Vec: vec}}
}

func (j *mjJob) blockOf(rank, half, k int) int64 {
	return int64((half*j.blocks+k)*j.ranks + rank)
}

func (j *mjJob) stampPay(rank int, st uint64) {
	for k := 0; k < j.blocks; k++ {
		binary.BigEndian.PutUint64(j.pay[rank][k*blockSize:], st)
	}
}

// learn tells the reference model that rank's share of region half now
// holds its payload stamped st.
func (fx *mjFixture) learn(j *mjJob, rank, half int, st uint64) {
	for k := 0; k < j.blocks; k++ {
		fx.ref.wrote(j.at+j.blockOf(rank, half, k), j.slot0+rank*j.blocks+k, st)
	}
}

func (fx *mjFixture) run(c *clock) error {
	m := fx.w.m
	fx.srv.Start(m.Engine)
	total := fx.calls * mjVictims
	// Ops (victim calls) that errored or read back wrong bytes on some
	// rank; a failed bully call is charged to slot 0 of victim 0.
	bad := make([][]bool, mjVictims)
	for v := range bad {
		bad[v] = make([]bool, fx.calls)
	}
	var stop float64
	var done pario.Group
	done.Add(mjBullyRanks + mjVictims*mjVictimRanks)
	launch := func(j *mjJob, fn func(r *pario.Rank)) {
		g := m.GoRanks(j.ranks, j.name, func(r *pario.Rank) {
			defer done.Done(r.Proc)
			fn(r)
		})
		g.SetLink(fx.pf.LinkMsg, fx.pf.LinkBytes)
		g.SetBisectionPool(fx.pool) // one interconnect for all eight jobs
		fx.w.groups = append(fx.w.groups, g)
	}

	bully := fx.bully
	launch(bully, func(r *pario.Rank) {
		rank := r.Rank()
		// Every rank must leave the loop in the same epoch, so the stop
		// flag is agreed on collectively.
		for epoch := 0; r.ReduceMax(stop) == 0; epoch++ {
			timed := rank == 0 && c.timing()
			st := stamp(fx.seed, epoch)
			bully.stampPay(rank, st)
			var hs [2]*pario.IOHandle
			for half := range hs {
				h, err := bully.col.IWriteAll(r, bully.reqv[half][rank], bully.pay[rank])
				if err != nil {
					if rank == 0 {
						fmt.Fprintf(logw, "bully epoch %d: %v\n", epoch, err)
					}
					bad[0][0] = true
					return
				}
				hs[half] = h
				if timed {
					c.coll.observe(bully.col, false)
					c.payload += int64(mjBullyRanks * mjBullyBlocks * blockSize)
				}
			}
			for half, h := range hs {
				if err := h.Wait(r); err != nil {
					if rank == 0 {
						fmt.Fprintf(logw, "bully epoch %d: %v\n", epoch, err)
					}
					bad[0][0] = true
				}
				fx.learn(bully, rank, half, st)
			}
		}
	})

	for v, j := range fx.victims {
		v, j := v, j
		launch(j, func(r *pario.Rank) {
			rank := r.Rank()
			pay, rd := j.pay[rank], j.rd[rank]
			reqs := j.reqv[0][rank]
			if v == 0 && rank == 0 {
				c.arm(r.Now())
			}
			for call := 0; call < fx.calls; call++ {
				r.Compute(fx.think[v][call])
				timed := rank == 0 && c.timing()
				t0 := r.Now()
				var h *pario.IOHandle
				var err error
				write := call%2 == 0
				if write {
					j.stampPay(rank, stamp(fx.seed, call))
					h, err = j.col.IWriteAll(r, reqs, pay)
				} else {
					h, err = j.col.IReadAll(r, reqs, rd)
				}
				if err == nil {
					if timed {
						c.coll.observe(j.col, false)
					}
					err = h.Wait(r)
				}
				ok := err == nil
				switch {
				case !ok:
				case write:
					fx.learn(j, rank, 0, stamp(fx.seed, call))
				default:
					// The rank wrote these blocks itself in the previous
					// call, so its own payload buffer is the expectation.
					v0 := time.Now()
					ok = bytes.Equal(rd, pay)
					if c.timing() {
						c.verify += time.Since(v0)
					}
				}
				if !ok {
					if !bad[v][call] {
						fmt.Fprintf(logw, "%s call %d rank %d: err=%v\n", j.name, call, rank, err)
					}
					bad[v][call] = true
				}
				if rank != 0 {
					continue
				}
				if timed {
					c.payload += int64(mjVictimRanks * mjVictimBlocks * blockSize)
				}
				now := r.Now()
				c.tick(now, now-t0)
				if c.seen == total {
					stop = 1
				}
			}
		})
	}
	m.Go("driver", func(p *pario.Proc) {
		done.Wait(p)
		fx.srv.Stop(p)
	})
	if err := m.Run(); err != nil {
		return err
	}
	for _, b := range bad {
		c.failed += countTrue(b)
	}
	for _, j := range fx.jobs {
		if err := fx.ref.verifyFile(j.file, j.at, c); err != nil {
			return err
		}
	}
	return nil
}
