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
	"testing"
	"time"

	pario "repro"
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
		if err := f.Set().ReadBlock(ctx, b, blk); err != nil {
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
