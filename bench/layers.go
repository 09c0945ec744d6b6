package main

import (
	"math/rand"
	"runtime"
	"time"

	pario "repro"
	"repro/internal/mpp"
)

// Layer drivers: small loops that time one layer's public functions from
// outside, fed the workload's own shapes, with as little of the other
// layers underneath as the API allows (every timed path still runs on the
// engine, which is the only way to drive a device queue or an exchange).
// They give the host_* per-layer numbers; iteration counts are constants.

// shape is what a workload tells the drivers about itself.
type shape struct {
	procs      int            // simulated processes alive during an op (sim driver)
	set        *pario.Set     // the file one process's request addresses …
	vec        pario.Vec      // … and that request (Set.MapVec driver)
	domain     pario.BatchVec // one aggregator domain's batch (BatchVec.Plan, IOJob drivers); nil: none
	ranks      int            // exchange shape (Rank.AlltoallvSparse driver); 0: no rank group
	fanout     int            // messages a rank sends per round
	msgBytes   int
	recordSize int  // core driver; 0: the workload does not use the access methods
	server     bool // IOJob.SubmitWritePlan driver
}

func (fx *ckptFixture) shape() shape {
	return shape{
		procs: ckptRanks, set: fx.files[fx.reqs[0][0][0].File].Set(), vec: fx.reqs[0][0][0].Vec,
		domain: domainBatch(fx.files, func(r int) []pario.VecReq { return fx.reqs[0][r] }, ckptRanks/ckptDrives),
		ranks:  ckptRanks, fanout: ckptPerRank, msgBytes: blockSize,
	}
}

func (fx *scanFixture) shape() shape {
	return shape{
		procs: scanProcs, set: fx.ps.f.Set(), vec: pario.Vec{{Block: 0, N: int64(fx.opts.ExtentBlocks)}},
		recordSize: scanRecSize,
	}
}

func (fx *mjFixture) shape() shape {
	files := []*pario.File{fx.bully.file}
	return shape{
		procs: mjBullyRanks + mjVictims*mjVictimRanks, set: fx.bully.file.Set(), vec: fx.bully.reqv[0][0][0].Vec,
		domain: domainBatch(files, func(r int) []pario.VecReq { return fx.bully.reqv[0][r] }, mjBullyRanks/mjDrives),
		ranks:  mjBullyRanks, fanout: 1, msgBytes: mjBullyBlocks * blockSize, server: true,
	}
}

// domainBatch stands in for one aggregator's file domain: the first n
// ranks' requests as one cross-file batch over a shared buffer space.
func domainBatch(files []*pario.File, reqs func(rank int) []pario.VecReq, n int) pario.BatchVec {
	var b pario.BatchVec
	var base int64
	for r := 0; r < n; r++ {
		var span int64
		for _, q := range reqs(r) {
			vec := make(pario.Vec, len(q.Vec))
			for i, sg := range q.Vec {
				vec[i] = pario.VecSeg{Block: sg.Block, N: sg.N, BufOff: base + sg.BufOff}
				if end := sg.BufOff + sg.N*blockSize; end > span {
					span = end
				}
			}
			b = append(b, pario.BatchItem{Set: files[q.File].Set(), Vec: vec})
		}
		base += span
	}
	return b
}

// perIter times fn, scaled to the reference core like every host time, and
// divides by n.
func perIter(n int, unit time.Duration, fn func()) float64 {
	return float64(timeScaled(fn)) / float64(unit) / float64(n)
}

// driveSim: procs processes doing nothing but sleeping in lock step, so
// every instant releases a procs-wide batch, like a barrier. Host ns per
// dispatched event.
func driveSim(procs, div int) float64 {
	// Hand-offs between goroutines across cores are the noisiest thing the
	// benchmark measures: median of three.
	return median([]float64{driveSimOnce(procs, div), driveSimOnce(procs, div), driveSimOnce(procs, div)})
}

func driveSimOnce(procs, div int) float64 {
	const events = 200_000
	per := events/div/procs + 1
	e := pario.NewEngine()
	for i := 0; i < procs; i++ {
		e.Go("p", func(p *pario.Proc) {
			for k := 0; k < per; k++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	return perIter(per*procs, time.Nanosecond, func() { _ = e.Run() })
}

// driveSim2P is the same driver with one P: the engine hands control
// between goroutines on every event, which costs more across cores.
func driveSim2P(procs, div int) float64 {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	return driveSim(procs, div)
}

// driveDevice: eight processes queue alternating vectored writes and reads
// of runBlocks blocks at seeded addresses on one profile-configured drive.
// Host ns per request (the engine dispatches underneath).
func driveDevice(pf pario.Profile, runBlocks, div int) float64 {
	const procs = 8
	per := 4000 / div
	e := pario.NewEngine()
	d := pario.NewDisk(pario.DiskConfig{Name: "d", Engine: e, Sched: pf.Sched, MergeQueued: pf.MergeQueued})
	limit := d.Geometry().Blocks() - int64(runBlocks)
	for i := 0; i < procs; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		e.Go("p", func(p *pario.Proc) {
			bufs := make([][]byte, runBlocks)
			for b := range bufs {
				bufs[b] = make([]byte, blockSize)
			}
			for k := 0; k < per; k++ {
				// Errors cannot occur: addresses are in range, the drive
				// never fails.
				if blk := rng.Int63n(limit); k%2 == 0 {
					_ = d.WriteBlocksVec(p, blk, runBlocks, bufs)
				} else {
					_ = d.ReadBlocksVec(p, blk, runBlocks, bufs)
				}
			}
		})
	}
	return perIter(procs*per, time.Nanosecond, func() { _ = e.Run() })
}

// driveMapVec: Set.MapVec on one process's request. Host µs per call.
func driveMapVec(sh shape, div int) float64 {
	n := 20_000 / div
	return perIter(n, time.Microsecond, func() {
		for i := 0; i < n; i++ {
			_, _ = sh.set.MapVec(sh.vec)
		}
	})
}

// drivePlan: BatchVec.Plan on one aggregator domain. Host µs per call.
func drivePlan(sh shape, div int) float64 {
	if sh.domain == nil {
		return 0
	}
	n := 5_000 / div
	return perIter(n, time.Microsecond, func() {
		for i := 0; i < n; i++ {
			_, _ = sh.domain.Plan(nil)
		}
	})
}

// driveCore: the stream access methods under a wall context (devices
// complete instantly): write then read a file record by record. Host ns
// per record.
func driveCore(sh shape, opts pario.Options, div int) float64 {
	if sh.recordSize == 0 {
		return 0
	}
	recs := 1 << 16 / div
	m := pario.NewMachine(4)
	f, err := m.Volume.Create(pario.Spec{Name: "core", RecordSize: sh.recordSize, BlockRecords: scanBlkRecs, NumRecords: int64(recs)})
	if err != nil {
		return 0
	}
	wall := pario.NewWall()
	rec := make([]byte, sh.recordSize)
	return perIter(2*recs, time.Nanosecond, func() {
		if w, err := pario.OpenWriter(f, opts); err == nil {
			for i := 0; i < recs; i++ {
				_, _ = w.WriteRecord(wall, rec)
			}
			_ = w.Close(wall)
		}
		if r, err := pario.OpenReader(f, opts); err == nil {
			for i := 0; i < recs; i++ {
				_, _, _ = r.ReadRecord(wall)
			}
			_ = r.Close(wall)
		}
	})
}

// driveExchange: the workload's rank count doing sparse all-to-all rounds
// of fanout messages each under the profile's link model, nothing else.
// Host µs per round (all ranks).
func driveExchange(sh shape, pf pario.Profile, div int) float64 {
	if sh.ranks == 0 {
		return 0
	}
	rounds := 64/div + 1
	m := pario.NewMachine(1)
	payload := make([]byte, sh.msgBytes)
	g := m.GoRanks(sh.ranks, "x", func(r *pario.Rank) {
		send := make([]mpp.Msg, sh.fanout) // the facade does not re-export the message type
		for k := 0; k < rounds; k++ {
			for i := range send {
				send[i] = mpp.Msg{Dst: (r.Rank() + (i+1)*(k+1)) % sh.ranks, Data: payload}
			}
			r.RecycleRecv(r.AlltoallvSparse(send))
		}
	})
	pf.ConfigureRanks(g)
	return perIter(rounds, time.Microsecond, func() { _ = m.Run() })
}

// driveServer: client processes submit the domain batch as a prepared
// plan to a two-worker fair-share server on a fresh fixture's machine and
// wait. Host µs per request (blockio, device and engine run underneath;
// there is no way to drive a lane without them).
func driveServer(sh shape, m *pario.Machine, div int) float64 {
	if !sh.server {
		return 0
	}
	const clients = 8
	per := 500/div + 1
	plan, err := sh.domain.Plan(nil)
	if err != nil {
		return 0
	}
	bytes := plan.WindowBlocks(0) * blockSize
	srv := pario.NewIOServer(pario.IOServerConfig{Workers: 2, Policy: pario.IOFairShare})
	lane := srv.AddJob(pario.IOJobConfig{Name: "driver"})
	srv.Start(m.Engine)
	var done pario.Group
	done.Add(clients)
	for i := 0; i < clients; i++ {
		m.Go("client", func(p *pario.Proc) {
			defer done.Done(p)
			buf := make([]byte, bytes)
			for k := 0; k < per; k++ {
				_ = lane.SubmitWritePlan(p, plan, buf, bytes).Wait(p)
			}
		})
	}
	m.Go("stop", func(p *pario.Proc) {
		done.Wait(p)
		srv.Stop(p)
	})
	return perIter(clients*per, time.Microsecond, func() { _ = m.Run() })
}
