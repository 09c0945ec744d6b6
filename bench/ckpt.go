package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	pario "repro"
)

// Both checkpoint workloads run on the same modeled machine; only the
// collective options and the request lists differ.
const (
	ckptRanks   = 512
	ckptDrives  = 32
	ckptPerRank = 8    // 4 KiB blocks a rank moves per op
	blockSize   = 4096 // fs block = record size on every benchmark file
	// ckpt_fresh: each rank owns a 32-block slice of the partitioned file
	// and one column of the 32-row striped file.
	freshSlice = 32
	freshRows  = 32

	ckptMaxJitter = 4 * time.Millisecond
)

// ckptFixture is everything set-up builds for a checkpoint workload.
type ckptFixture struct {
	seed   uint64
	fresh  bool
	w      *world
	files  []*pario.File
	fbase  []int64 // reference-model index of each file's block 0 (its group offset)
	col    *pario.Collective
	pf     pario.Profile
	reqs   [][][]pario.VecReq // [op or 0][rank]
	writes []bool             // per op
	jitter []time.Duration    // per op: seeded compute rank 0 does before the call
	pay    [][]byte           // per rank: ckptPerRank seeded records
	rd     [][]byte           // per rank read buffer
	ref    *refModel
}

func (fx *ckptFixture) reqsOf(op, rank int) []pario.VecReq {
	if !fx.fresh {
		op = 0
	}
	return fx.reqs[op][rank]
}

// newCkpt is the set-up of ckpt_replay (fresh=false) and ckpt_fresh: the
// machine, the files, the collective handle, every op's request lists and
// the per-rank seeded payloads.
func newCkpt(seed uint64, total int, fresh bool) (*ckptFixture, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	pf := pario.TunedProfile()
	m := pario.NewProfiledMachine(ckptDrives, pf)
	fx := &ckptFixture{seed: seed, fresh: fresh, w: &world{m: m}, pf: pf}

	// A seeded pad file shifts where the checkpoint lands on every drive,
	// so seek distances (and modeled time) depend on the seed.
	if _, err := m.Volume.Create(pario.Spec{
		Name: "pad", Org: pario.OrgSequential, RecordSize: blockSize, BlockRecords: 1,
		NumRecords: int64(ckptDrives * (64 + rng.Intn(64*8))),
	}); err != nil {
		return nil, err
	}
	create := func(spec pario.Spec) error {
		spec.RecordSize, spec.BlockRecords = blockSize, 1
		f, err := m.Volume.Create(spec)
		if err != nil {
			return err
		}
		fx.files = append(fx.files, f)
		return nil
	}
	opts := pf.Collective
	var names []string
	if fresh {
		opts.ChunkBytes = 0 // single-shot executor
		if err := create(pario.Spec{Name: "part", Org: pario.OrgPartitioned, Parts: ckptDrives,
			NumRecords: ckptRanks * freshSlice}); err != nil {
			return nil, err
		}
		if err := create(pario.Spec{Name: "striped", Org: pario.OrgGlobalDirect,
			Placement: pario.PlaceStriped, StripeUnitFS: 1, NumRecords: ckptRanks * freshRows}); err != nil {
			return nil, err
		}
		names = []string{"part", "striped"}
	} else {
		if err := create(pario.Spec{Name: "chk", Org: pario.OrgGlobalDirect,
			Placement: pario.PlaceStriped, StripeUnitFS: 1, NumRecords: ckptRanks * ckptPerRank}); err != nil {
			return nil, err
		}
		names = []string{"chk"}
	}
	group, err := m.Volume.OpenGroup(names...)
	if err != nil {
		return nil, err
	}
	if fx.col, err = pario.OpenCollective(group, ckptRanks, opts); err != nil {
		return nil, err
	}
	fx.w.cols = []*pario.Collective{fx.col}
	for i := range fx.files {
		fx.fbase = append(fx.fbase, group.Offset(i))
	}
	fx.ref = newRefModel(group.TotalFSBlocks(), blockSize, func(slot int) []byte {
		return fx.pay[slot/ckptPerRank][slot%ckptPerRank*blockSize:][:blockSize]
	})

	fx.writes = make([]bool, total)
	// The program computes a little between checkpoints, a seeded amount
	// per op. One rank doing it is enough to delay the collective, and it
	// makes every op's modeled latency depend on the seed.
	fx.jitter = make([]time.Duration, total)
	for op := range fx.jitter {
		fx.jitter[op] = time.Duration(rng.Int63n(int64(ckptMaxJitter)))
	}
	if fresh {
		fx.reqs = make([][][]pario.VecReq, total)
		for op := range fx.reqs {
			fx.writes[op] = op%2 == 0 // WriteAll / ReadAll alternate
			// A write and the read after it draw from the same family, so
			// every family is exercised in both directions.
			fx.reqs[op] = freshReqs(rng, (op/2)%3)
		}
	} else {
		fx.reqs = [][][]pario.VecReq{make([][]pario.VecReq, ckptRanks)}
		for r := 0; r < ckptRanks; r++ {
			vec := make(pario.Vec, ckptPerRank)
			for k := range vec {
				vec[k] = pario.VecSeg{Block: int64(k*ckptRanks + r), N: 1, BufOff: int64(k) * blockSize}
			}
			fx.reqs[0][r] = []pario.VecReq{{File: 0, Vec: vec}}
		}
		for op := range fx.writes {
			fx.writes[op] = op%8 != 7 // 7 checkpoints : 1 restart
		}
	}

	fx.pay = make([][]byte, ckptRanks)
	fx.rd = make([][]byte, ckptRanks)
	for r := range fx.pay {
		fx.pay[r] = make([]byte, ckptPerRank*blockSize)
		fx.rd[r] = make([]byte, ckptPerRank*blockSize)
		for k := 0; k < ckptPerRank; k++ {
			newPayload(fx.pay[r][k*blockSize:(k+1)*blockSize], seed, r*ckptPerRank+k)
		}
	}
	return fx, nil
}

// freshReqs draws one op's request lists, all ranks from one family:
//
//	0 dense:       every other block of a 15-block window at a per-rank
//	               seeded offset of the rank's partitioned slice → sieved
//	1 sparse:      one 8-block run at a per-rank seeded offset → vectored
//	2 interleaved: the rank's column of 8 seeded rows of the striped file,
//	               so only the union footprint coalesces → two-phase
//
// The per-rank offsets make a repeat of a whole op's lists vanishingly
// unlikely; collective.plan_hit_frac reports it (0 expected).
func freshReqs(rng *rand.Rand, family int) [][]pario.VecReq {
	out := make([][]pario.VecReq, ckptRanks)
	var rows []int
	if family == 2 {
		rows = rng.Perm(freshRows)[:ckptPerRank]
	}
	for r := range out {
		base := int64(r * freshSlice)
		var vec pario.Vec
		file := 0
		switch family {
		case 0:
			off := base + int64(rng.Intn(freshSlice-2*ckptPerRank+2))
			for i := 0; i < ckptPerRank; i++ {
				vec = append(vec, pario.VecSeg{Block: off + int64(2*i), N: 1, BufOff: int64(i) * blockSize})
			}
		case 1:
			off := base + int64(rng.Intn(freshSlice-ckptPerRank+1))
			vec = pario.Vec{{Block: off, N: ckptPerRank}}
		default:
			file = 1
			for i, row := range rows {
				vec = append(vec, pario.VecSeg{Block: int64(row*ckptRanks + r), N: 1, BufOff: int64(i) * blockSize})
			}
		}
		out[r] = []pario.VecReq{{File: file, Vec: vec}}
	}
	return out
}

// eachBlock calls fn(model index, buffer offset) for every block of reqs.
func (fx *ckptFixture) eachBlock(reqs []pario.VecReq, fn func(idx, off int64)) {
	for _, q := range reqs {
		for _, sg := range q.Vec {
			for i := int64(0); i < sg.N; i++ {
				fn(fx.fbase[q.File]+sg.Block+i, sg.BufOff+i*blockSize)
			}
		}
	}
}

// run executes warm-up + timed ops in one engine run, then verifies the
// whole image through the global view.
func (fx *ckptFixture) run(c *clock) error {
	m := fx.w.m
	total := len(fx.writes)
	bad := make([]bool, total) // op errored, or read back wrong bytes on some rank
	g := m.GoRanks(ckptRanks, "ck", func(r *pario.Rank) {
		rank := r.Rank()
		pay, rd := fx.pay[rank], fx.rd[rank]
		if rank == 0 {
			c.arm(r.Now())
		}
		vlast := r.Now()
		for op := 0; op < total; op++ {
			reqs := fx.reqsOf(op, rank)
			timed := rank == 0 && c.timing()
			if rank == 0 {
				r.Compute(fx.jitter[op])
			}
			var err error
			if fx.writes[op] {
				st := stamp(fx.seed, op)
				for k := 0; k < ckptPerRank; k++ {
					binary.BigEndian.PutUint64(pay[k*blockSize:], st)
				}
				err = fx.col.WriteAll(r, reqs, pay)
				// The reference model learns the write only once it has
				// completed: a slower rank may still be checking the
				// previous read against it.
				fx.eachBlock(reqs, func(idx, off int64) {
					fx.ref.wrote(idx, rank*ckptPerRank+int(off/blockSize), st)
				})
			} else {
				err = fx.col.ReadAll(r, reqs, rd)
				t0 := time.Now()
				fx.eachBlock(reqs, func(idx, off int64) {
					if e := fx.ref.expect(idx, rd[off:off+blockSize]); e != nil && !bad[op] {
						bad[op] = true
						fmt.Fprintf(logw, "op %d rank %d: %v\n", op, rank, e)
					}
				})
				if c.timing() {
					c.verify += time.Since(t0)
				}
			}
			if rank != 0 {
				continue
			}
			if err != nil {
				bad[op] = true
				fmt.Fprintf(logw, "op %d: %v\n", op, err)
			}
			if timed {
				c.coll.observe(fx.col, true)
				c.payload += ckptRanks * ckptPerRank * blockSize
			}
			now := r.Now()
			c.tick(now, now-vlast)
			vlast = now
		}
	})
	fx.pf.ConfigureRanks(g)
	fx.w.groups = []*pario.RankGroup{g}
	if err := m.Run(); err != nil {
		return err
	}
	c.failed = countTrue(bad)
	for i, f := range fx.files {
		if err := fx.ref.verifyFile(f, fx.fbase[i], c); err != nil {
			return err
		}
	}
	return nil
}

func (fx *ckptFixture) world() *world              { return fx.w }
func (fx *ckptFixture) attach(rec *pario.Recorder) { fx.w.attach(rec) }
