// Server-directed nonblocking collectives acceptance: the unit of I/O
// server work is the collective call, not the aggregator domain.
//
// The shape is multijob_qos's bully on its own: 64 ranks × 16 tuned
// drives, a unit-1 striped (declustered) file, every rank writing its
// column of 16 rows — 4 MiB a call, four calls started back to back and
// then waited for, through an I/O server with two workers. With one file
// domain per rank a domain is 16 consecutive blocks: one 4 KiB block on
// every drive. Submitted a domain at a time — what istart did before
// ISSUE 16, rebuilt here from the public pieces as the baseline — a call
// is 64 lane requests of 16 one-block device writes, 1 024 requests each
// paying controller overhead and half a rotation, and a worker serves
// one of them at a time. Submitted as one call-wide plan, blockio's
// sort/merge across the domains leaves one 256 KiB sequential run per
// drive: 1 lane request and 16 device requests a call, all drives
// streaming at once (the paper's §4: dedicated I/O processors doing the
// transfers, given enough of the request to order it for the disks).
//
// The baseline gets its domain buffers for free — no exchange — while
// the collective pays the real one over the tuned interconnect, so the
// enforced 3× is the conservative side of the comparison. Everything is
// virtual time and counters; nothing depends on the host clock.
package pario_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	pario "repro"
	"repro/internal/experiments"
)

const (
	swDrives  = 16
	swRanks   = 64
	swPerRank = 16 // 4 KiB blocks a rank moves per call
	swCalls   = 4
	swBlocks  = swRanks * swPerRank
)

// serverRun is one measured run of swCalls checkpoint calls.
type serverRun struct {
	makespan time.Duration
	lane     pario.IOJobStats
	perDrive []int64 // device requests per drive
}

// swStamp is the content of block b in call c: enough to tell a block
// landed in the wrong place, or from the wrong call.
func swStamp(blk []byte, b int64, c int) {
	blk[0], blk[1], blk[2] = byte(b), byte(b>>8), byte(c)
}

// runServerCheckpoint writes the checkpoint swCalls times through one
// I/O-server lane — as nonblocking collectives (perDomain false), or as
// the per-domain submissions they used to be — and verifies the image.
func runServerCheckpoint(tb testing.TB, perDomain bool) serverRun {
	tb.Helper()
	pf := pario.TunedProfile()
	m := pario.NewProfiledMachine(swDrives, pf)
	f, err := m.Volume.Create(pario.Spec{
		Name: "chk", Org: pario.OrgGlobalDirect,
		RecordSize: 4096, BlockRecords: 1, NumRecords: swBlocks,
		Placement: pario.PlaceStriped, StripeUnitFS: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv := pario.NewIOServer(pario.IOServerConfig{Workers: 2, Policy: pario.IOFairShare})
	lane := srv.AddJob(pario.IOJobConfig{Name: "chk"})
	srv.Start(m.Engine)
	var res serverRun

	if perDomain {
		// One prepared plan per file domain (domain a is blocks
		// [16a, 16a+16)), each submitted on its own, every call.
		m.Go("aggregators", func(p *pario.Proc) {
			var tickets []*pario.IORequest
			for c := 0; c < swCalls; c++ {
				for a := int64(0); a < swRanks; a++ {
					plan, err := pario.BatchVec{{Set: f.Set(), Vec: pario.Vec{{Block: a * swPerRank, N: swPerRank}}}}.Plan(nil)
					if err != nil {
						tb.Error(err)
						return
					}
					dom := make([]byte, swPerRank*4096)
					for k := int64(0); k < swPerRank; k++ {
						swStamp(dom[k*4096:], a*swPerRank+k, c)
					}
					tickets = append(tickets, lane.SubmitWritePlan(p, plan, dom, int64(len(dom))))
				}
			}
			for _, tk := range tickets {
				if err := tk.Wait(p); err != nil {
					tb.Error(err)
				}
			}
			res.makespan = p.Now()
			srv.Stop(p)
		})
	} else {
		group, err := m.Volume.OpenGroup("chk")
		if err != nil {
			tb.Fatal(err)
		}
		opts := pf.Collective
		opts.Service = lane
		opts.Aggregators = swRanks // one file domain per rank: the baseline's 64
		col, err := pario.OpenCollective(group, swRanks, opts)
		if err != nil {
			tb.Fatal(err)
		}
		var done pario.Group
		done.Add(swRanks)
		rg := m.GoRanks(swRanks, "ck", func(r *pario.Rank) {
			defer done.Done(r.Proc)
			rank := int64(r.Rank())
			vec := make(pario.Vec, swPerRank)
			for k := range vec {
				vec[k] = pario.VecSeg{Block: int64(k)*swRanks + rank, N: 1, BufOff: int64(k) * 4096}
			}
			reqs := []pario.VecReq{{File: 0, Vec: vec}}
			var hs [swCalls]*pario.IOHandle
			for c := range hs {
				buf := make([]byte, swPerRank*4096) // the server holds it until Wait
				for k, sg := range vec {
					swStamp(buf[k*4096:], sg.Block, c)
				}
				if hs[c], err = col.IWriteAll(r, reqs, buf); err != nil {
					tb.Errorf("rank %d: %v", rank, err)
					return
				}
			}
			for _, h := range hs {
				if err := h.Wait(r); err != nil {
					tb.Errorf("rank %d: %v", rank, err)
				}
			}
		})
		pf.ConfigureRanks(rg)
		m.Go("driver", func(p *pario.Proc) {
			done.Wait(p)
			res.makespan = p.Now()
			srv.Stop(p)
		})
	}
	if err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	res.lane = lane.Stats()
	for _, d := range m.Disks {
		res.perDrive = append(res.perDrive, d.Stats().Requests())
	}
	ctx := pario.NewWall()
	blk, want := make([]byte, 4096), make([]byte, 3)
	for b := int64(0); b < swBlocks; b++ {
		if err := f.Set().ReadVec(ctx, pario.Vec{{Block: b, N: 1}}, blk); err != nil {
			tb.Fatal(err)
		}
		if swStamp(want, b, swCalls-1); string(blk[:3]) != string(want) {
			tb.Fatalf("block %d holds %v, want %v (perDomain=%v)", b, blk[:3], want, perDomain)
		}
	}
	return res
}

// TestServerDirectedWin enforces the ISSUE 16 acceptance numbers.
func TestServerDirectedWin(t *testing.T) {
	old := runServerCheckpoint(t, true)
	now := runServerCheckpoint(t, false)
	sum := func(v []int64) (n int64) {
		for _, x := range v {
			n += x
		}
		return n
	}
	ratio := old.makespan.Seconds() / now.makespan.Seconds()
	t.Logf("%d calls: %v -> %v (%.2fx), lane requests %d -> %d, device requests %d -> %d",
		swCalls, old.makespan, now.makespan, ratio, old.lane.Completed, now.lane.Completed, sum(old.perDrive), sum(now.perDrive))
	if old.lane.Completed != swCalls*swRanks || sum(old.perDrive) != swCalls*swBlocks {
		t.Errorf("baseline is not the per-domain shape: %d lane requests, %d device requests, want %d and %d",
			old.lane.Completed, sum(old.perDrive), swCalls*swRanks, swCalls*swBlocks)
	}
	if now.lane.Submitted != swCalls || now.lane.Completed != swCalls {
		t.Errorf("lane saw %d requests (%d completed) for %d calls, want one a call", now.lane.Submitted, now.lane.Completed, swCalls)
	}
	// The tuned ChunkBytes cuts each 4 MiB call into four server windows,
	// but a job alone on the server is handed them all at once: the run is
	// what it was before the server knew windows (ISSUE 23), to the
	// nanosecond.
	if now.lane.Dispatches != swCalls || now.makespan != 814_556_664 {
		t.Errorf("a lone job was served in %d dispatches, %v: want one a call and the uncut 814.556664ms", now.lane.Dispatches, now.makespan)
	}
	for d, n := range now.perDrive {
		if n > swCalls {
			t.Errorf("drive %d served %d requests over %d calls, want at most one a call", d, n, swCalls)
		}
	}
	if now.lane.Bytes != swCalls*swBlocks*4096 {
		t.Errorf("lane accounted %d bytes, want %d", now.lane.Bytes, swCalls*swBlocks*4096)
	}
	if ratio < 3 {
		t.Errorf("modeled makespan improvement %.2fx < 3x", ratio)
	}
}

// qosMix is the multijob_qos shape on the experiments fixture: 16 tuned
// drives behind two fair-share workers, one interconnect; a 64-rank
// bully keeping two 4 MiB checkpoint calls outstanding, and seven 8-rank
// victims alternating a 128 KiB write and its read-back, thinking a
// seeded 0–20 ms before each. chunk is the handles' ChunkBytes: the tuned
// profile's 1 MiB cuts a bully call into four server windows, 0 leaves it
// the one request it was before ISSUE 23.
func qosMix(chunk int64, rec *pario.Recorder) experiments.Multijob {
	pf := pario.TunedProfile()
	pf.Collective.ChunkBytes = chunk
	mix := experiments.Multijob{
		Drives: 16, Profile: pf, Workers: 2, Policy: pario.IOFairShare,
		Strided: true, Seed: 1, Rec: rec,
		Jobs: []experiments.Job{{Name: "bully", Ranks: 64, Blocks: 1024, Calls: 2, Backlog: true, Forever: true}},
	}
	for v := 0; v < 7; v++ {
		mix.Jobs = append(mix.Jobs, experiments.Job{
			Name: fmt.Sprintf("v%d", v), Ranks: 8, Blocks: 32, Calls: 96, ReadBack: true, Think: 20 * time.Millisecond,
		})
	}
	return mix
}

// qosRun is what TestServerWindowsWin compares.
type qosRun struct {
	victimP98 time.Duration // over every victim call, entry to Wait's return: the benchmark's op
	bullyP98  time.Duration // the bully lane's enqueue→completion
	makespan  time.Duration
	bully     pario.IOJobStats
	calls     int64 // lane requests, all jobs
	requests  int64 // device requests
}

func runQoSMix(tb testing.TB, chunk int64, rec *pario.Recorder) qosRun {
	tb.Helper()
	res, err := qosMix(chunk, rec).Run()
	if err != nil {
		tb.Fatal(err)
	}
	run := qosRun{bullyP98: res.LaneP98[0], makespan: res.Makespan, bully: res.Lanes[0], requests: res.Requests}
	for _, st := range res.Lanes {
		run.calls += st.Completed
	}
	victims := slices.Concat(res.Calls[1:]...)
	slices.Sort(victims)
	run.victimP98 = victims[(len(victims)*98+99)/100-1] // nearest rank
	return run
}

// TestServerWindowsWin enforces the ISSUE 23 acceptance numbers: the
// server runs windows, not calls. The baseline is the whole-call server:
// with ChunkBytes 0 every call is one window, and the mix must reproduce
// its numbers to the nanosecond. They were captured when the victims'
// calls became priced (vectored, with no exchange: victim p98 275.02 →
// 277.04 ms, makespan 10.457 → 10.373 s); before that, at the commit
// before windows, they ran two-phase.
func TestServerWindowsWin(t *testing.T) {
	parent := qosRun{
		victimP98: 277_038_979, bullyP98: 6_613_677_116, makespan: 10_373_438_061,
		calls: 676, requests: 10_816,
	}
	whole := runQoSMix(t, 0, nil)
	whole.bully = pario.IOJobStats{}
	if whole != parent {
		t.Errorf("ChunkBytes 0 moved:\n got %+v\nwant %+v", whole, parent)
	}

	rec := pario.NewRecorder()
	cut := runQoSMix(t, 1<<20, rec)
	t.Logf("victim p98 %v -> %v (%.2fx), bully p98 %v -> %v, makespan %v -> %v, device requests %d -> %d over %d calls",
		parent.victimP98, cut.victimP98, float64(cut.victimP98)/float64(parent.victimP98),
		parent.bullyP98, cut.bullyP98, parent.makespan, cut.makespan, parent.requests, cut.requests, cut.calls)
	if float64(cut.victimP98) > 0.62*float64(parent.victimP98) {
		t.Errorf("victim p98 %v, want at most 0.62 x the parent's %v", cut.victimP98, parent.victimP98)
	}
	if float64(cut.makespan) > 1.03*float64(parent.makespan) {
		t.Errorf("makespan %v, want at most 1.03 x the parent's %v", cut.makespan, parent.makespan)
	}
	if float64(cut.bullyP98) > 1.10*float64(parent.bullyP98) {
		t.Errorf("bully p98 %v, want at most 1.10 x the parent's %v", cut.bullyP98, parent.bullyP98)
	}
	// A 4 MiB call is four windows, a dispatch issues at most one request
	// per drive (windows issued together merge), and a victim call is one
	// window: so at most four requests per drive per bully call.
	if cut.calls != parent.calls || cut.bully.Dispatches > 4*cut.bully.Completed || cut.bully.Dispatches <= cut.bully.Completed {
		t.Errorf("%d calls, the bully's %d in %d dispatches: want %d calls, the bully's cut, in at most 4 dispatches each",
			cut.calls, cut.bully.Completed, cut.bully.Dispatches, parent.calls)
	}
	dispatches := cut.calls - cut.bully.Completed + cut.bully.Dispatches
	if cut.requests > 16*dispatches {
		t.Errorf("%d device requests over %d dispatches, want at most one per drive per dispatch", cut.requests, dispatches)
	}

	// Window boundaries are virtual-time decisions like any other: the same
	// mix again exports the same trace, byte for byte.
	again := pario.NewRecorder()
	if r := runQoSMix(t, 1<<20, again); r != cut {
		t.Errorf("second run differs:\n%+v\n%+v", r, cut)
	}
	var a, b bytes.Buffer
	if err := rec.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := again.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two runs of the windowed mix exported different traces")
	}
}

// TestServerVectoredVictim: a nonblocking call is priced like a blocking
// one. multijob_qos's victim call — 8 ranks each writing its 4 blocks of
// a unit-1 striped file on 16 tuned drives, two blocks on each of two
// drives — puts one 2-block run on every drive either way, so the
// exchange buys nothing: StrategyAuto prices it vectored, below
// two-phase, and the call goes to the server with no exchange round and
// no delivery round. Alone on the server it issues exactly the device
// requests the blocking vectored call of the same lists does, and the
// server's service time is the vectored price to within 1 %.
func TestServerVectoredVictim(t *testing.T) {
	const ranks, blocks, drives = 8, 4, 16
	type run struct {
		route    string
		prices   pario.RoutePrices
		price    time.Duration
		service  time.Duration
		requests int64
	}
	// one writes the victim's call, then reads it back, through the server
	// (nonblocking) or with the blocking vectored call.
	one := func(nonblocking bool) (w, r run) {
		pf := pario.TunedProfile()
		m := pario.NewProfiledMachine(drives, pf)
		if _, err := m.Volume.Create(pario.Spec{
			Name: "v", Org: pario.OrgGlobalDirect, RecordSize: 4096, BlockRecords: 1,
			NumRecords: ranks * blocks, Placement: pario.PlaceStriped, StripeUnitFS: 1,
		}); err != nil {
			t.Fatal(err)
		}
		g, err := m.Volume.OpenGroup("v")
		if err != nil {
			t.Fatal(err)
		}
		srv := pario.NewIOServer(pario.IOServerConfig{Workers: 2, Policy: pario.IOFairShare})
		lane := srv.AddJob(pario.IOJobConfig{Name: "v"})
		opts := pf.Collective
		if nonblocking {
			opts.Service = lane
			srv.Start(m.Engine)
		} else {
			opts.Strategy = pario.StrategyVectored
		}
		col, err := pario.OpenCollective(g, ranks, opts)
		if err != nil {
			t.Fatal(err)
		}
		requests := func() (n int64) {
			for _, d := range m.Disks {
				n += d.Stats().Requests()
			}
			return n
		}
		var done pario.Group
		done.Add(ranks)
		rg := m.GoRanks(ranks, "v", func(rk *pario.Rank) {
			defer done.Done(rk.Proc)
			rank := rk.Rank()
			vec := make(pario.Vec, blocks)
			pay, back := make([]byte, blocks*4096), make([]byte, blocks*4096)
			for k := range vec {
				vec[k] = pario.VecSeg{Block: int64(k*ranks + rank), N: 1, BufOff: int64(k) * 4096}
				swStamp(pay[k*4096:], vec[k].Block, 1)
			}
			reqs := []pario.VecReq{{File: 0, Vec: vec}}
			for _, write := range []bool{true, false} {
				rk.Barrier()
				busy, n0 := lane.Stats().Busy, requests()
				var err error
				switch {
				case !nonblocking && write:
					err = col.WriteAll(rk, reqs, pay)
				case !nonblocking:
					err = col.ReadAll(rk, reqs, back)
				default:
					var h *pario.IOHandle
					if write {
						h, err = col.IWriteAll(rk, reqs, pay)
					} else {
						h, err = col.IReadAll(rk, reqs, back)
					}
					if err == nil {
						err = h.Wait(rk)
					}
				}
				if err != nil {
					t.Errorf("rank %d: %v", rank, err)
					return
				}
				rk.Barrier()
				if rank == 0 {
					res := run{col.LastRoute(), col.LastPrices(), col.LastPredicted(), lane.Stats().Busy - busy, requests() - n0}
					if write {
						w = res
					} else {
						r = res
					}
				}
			}
			if !bytes.Equal(back, pay) {
				t.Errorf("rank %d read back other bytes than it wrote", rank)
			}
		})
		pf.ConfigureRanks(rg)
		m.Go("join", func(p *pario.Proc) {
			done.Wait(p)
			if nonblocking {
				srv.Stop(p)
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return w, r
	}
	bw, br := one(false)
	nw, nr := one(true)
	for _, c := range []struct {
		op          string
		blocking    run
		nonblocking run
	}{{"write", bw, nw}, {"read", br, nr}} {
		nb := c.nonblocking
		t.Logf("%s: %s, priced vectored %v against two-phase %v; served in %v, %d device requests (blocking vectored: %d)",
			c.op, nb.route, nb.prices.Vectored, nb.prices.TwoPhase, nb.service, nb.requests, c.blocking.requests)
		if nb.route != "vectored" || nb.prices.Vectored <= 0 || nb.prices.Vectored >= nb.prices.TwoPhase || nb.price != nb.prices.Vectored {
			t.Errorf("%s: route %s, prices %+v, predicted %v: want vectored, priced below two-phase", c.op, nb.route, nb.prices, nb.price)
		}
		if nb.prices.Sieved != 0 || nb.prices.Aligned != 0 {
			t.Errorf("%s: prices %+v: a nonblocking call is offered no sieved or aligned route", c.op, nb.prices)
		}
		if nb.requests != c.blocking.requests || nb.requests != drives {
			t.Errorf("%s: %d device requests, the blocking vectored call %d: want one a drive both", c.op, nb.requests, c.blocking.requests)
		}
		if d := nb.service - nb.price; d < -nb.price/100 || d > nb.price/100 {
			t.Errorf("%s: served in %v, priced %v: want within 1 %%", c.op, nb.service, nb.price)
		}
	}
}
