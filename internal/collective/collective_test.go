package collective

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

const testBS = 256 // fs block size for all collective tests

// storeKind selects the redundancy wrapper under test.
type storeKind int

const (
	storeDirect storeKind = iota
	storeParity
	storeMirror
)

func (k storeKind) String() string {
	return [...]string{"direct", "parity", "mirror"}[k]
}

// newTestStore builds a 4-data-device store of the given kind attached to
// e (nil for untimed), returning the store and every physical drive.
func newTestStore(t *testing.T, e *sim.Engine, kind storeKind) (blockio.Store, []*device.Disk) {
	t.Helper()
	geom := device.Geometry{BlockSize: testBS, BlocksPerCyl: 8, Cylinders: 64}
	mk := func(n int, pfx string) []*device.Disk {
		out := make([]*device.Disk, n)
		for i := range out {
			out[i] = device.New(device.Config{
				Name: fmt.Sprintf("%s%d", pfx, i), Geometry: geom, Engine: e,
			})
		}
		return out
	}
	switch kind {
	case storeParity:
		disks := mk(5, "d")
		st, err := stripe.NewParity(disks, true)
		if err != nil {
			t.Fatal(err)
		}
		return st, disks
	case storeMirror:
		primary, shadow := mk(4, "p"), mk(4, "s")
		st, err := stripe.NewMirror(primary, shadow)
		if err != nil {
			t.Fatal(err)
		}
		return st, append(primary, shadow...)
	default:
		disks := mk(4, "d")
		st, err := blockio.NewDirect(disks)
		if err != nil {
			t.Fatal(err)
		}
		return st, disks
	}
}

// testPlacements names the three layout families exercised by the
// equivalence tests. Every file's spec uses RecordSize == testBS, so one
// record is one fs block.
var testPlacements = []struct {
	name string
	spec func(name string, recs int64) pfs.Spec
}{
	{"striped-unit1", func(name string, recs int64) pfs.Spec {
		return pfs.Spec{Name: name, Org: pfs.OrgSequential, RecordSize: testBS,
			NumRecords: recs, Placement: pfs.PlaceStriped, StripeUnitFS: 1}
	}},
	{"partitioned", func(name string, recs int64) pfs.Spec {
		return pfs.Spec{Name: name, Org: pfs.OrgPartitioned, RecordSize: testBS,
			NumRecords: recs, Parts: 4}
	}},
	{"interleaved", func(name string, recs int64) pfs.Spec {
		return pfs.Spec{Name: name, Org: pfs.OrgInterleaved, RecordSize: testBS,
			NumRecords: recs, Parts: 4}
	}},
}

// pattern is the deterministic content of global block gb.
func pattern(gb int64, buf []byte) {
	for i := range buf {
		buf[i] = byte(gb*37 + int64(i)*11 + 5)
	}
}

// strideReqs builds rank's requests: every 8th block of both files
// (blocks ≡ rank mod 8 in the group's concatenated space), packed
// sequentially into the rank buffer. Returns the reqs, the buffer, and
// the global block each buffer slot holds.
func strideReqs(g *pfs.FileGroup, rank, nRanks int) ([]VecReq, []byte, []int64) {
	var reqs []VecReq
	var slots []int64
	var off int64
	for f := 0; f < g.Len(); f++ {
		total := g.File(f).Mapper().TotalFSBlocks()
		var vec blockio.Vec
		for b := int64(rank); b < total; b += int64(nRanks) {
			vec = append(vec, blockio.VecSeg{Block: b, N: 1, BufOff: off})
			slots = append(slots, g.Offset(f)+b)
			off += testBS
		}
		if len(vec) > 0 {
			reqs = append(reqs, VecReq{File: f, Vec: vec})
		}
	}
	return reqs, make([]byte, off), slots
}

// collectiveFixture builds engine + store + a 2-file group (40 and 23
// blocks — the second deliberately odd so domains are ragged).
func collectiveFixture(t *testing.T, kind storeKind, placement func(string, int64) pfs.Spec) (*sim.Engine, *pfs.FileGroup, []*device.Disk) {
	t.Helper()
	e := sim.NewEngine()
	store, disks := newTestStore(t, e, kind)
	vol := pfs.NewVolume(store)
	if _, err := vol.Create(placement("a", 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := vol.Create(placement("b", 23)); err != nil {
		t.Fatal(err)
	}
	g, err := vol.OpenGroup("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	return e, g, disks
}

// readAllBlocks reads every block of every group file through the
// independent path (Wall context, per-file ReadVec).
func readAllBlocks(t *testing.T, g *pfs.FileGroup) []byte {
	t.Helper()
	out, err := groupImage(sim.NewWall(), g)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// groupImage reads every block of the group under ctx, in global order.
func groupImage(ctx sim.Context, g *pfs.FileGroup) ([]byte, error) {
	out := make([]byte, g.TotalFSBlocks()*testBS)
	for f := 0; f < g.Len(); f++ {
		total := g.File(f).Mapper().TotalFSBlocks()
		buf := out[g.Offset(f)*testBS : (g.Offset(f)+total)*testBS]
		if err := g.File(f).Set().ReadVec(ctx, blockio.Vec{{Block: 0, N: total}}, buf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestCollectiveWriteEquivalence checks, for every store kind × layout,
// that a collective strided write lands exactly the bytes the
// independent vectored path lands.
func TestCollectiveWriteEquivalence(t *testing.T) {
	for _, kind := range []storeKind{storeDirect, storeParity, storeMirror} {
		for _, pl := range testPlacements {
			for _, locality := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/locality=%v", kind, pl.name, locality), func(t *testing.T) {
					const nRanks = 8
					// Collective run.
					e, g, _ := collectiveFixture(t, kind, pl.spec)
					col, err := Open(g, nRanks, Options{Locality: locality})
					if err != nil {
						t.Fatal(err)
					}
					mg, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
						reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
						for i, gb := range slots {
							pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
						}
						if err := col.WriteAll(p, reqs, buf); err != nil {
							t.Errorf("rank %d: %v", p.Rank(), err)
						}
					})
					mg.SetLink(0, 100e6)
					e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
					if err := e.Run(); err != nil {
						t.Fatal(err)
					}
					gotCollective := readAllBlocks(t, g)

					// Independent run on a twin setup.
					e2, g2, _ := collectiveFixture(t, kind, pl.spec)
					_, join2 := mpp.Run(e2, nRanks, "iw", func(p *mpp.Proc) {
						reqs, buf, slots := strideReqs(g2, p.Rank(), nRanks)
						for i, gb := range slots {
							pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
						}
						for _, q := range reqs {
							if err := g2.File(q.File).Set().WriteVec(p.Proc, q.Vec, buf); err != nil {
								t.Errorf("rank %d: %v", p.Rank(), err)
							}
						}
					})
					e2.Go("join", func(sp *sim.Proc) { join2.Wait(sp) })
					if err := e2.Run(); err != nil {
						t.Fatal(err)
					}
					gotIndependent := readAllBlocks(t, g2)

					if !bytes.Equal(gotCollective, gotIndependent) {
						t.Fatal("collective and independent writes landed different bytes")
					}
					// And both match the intended pattern on every written block.
					want := make([]byte, testBS)
					for gb := int64(0); gb < g.TotalFSBlocks(); gb++ {
						pattern(gb, want)
						if !bytes.Equal(gotCollective[gb*testBS:(gb+1)*testBS], want) {
							t.Fatalf("global block %d corrupt after collective write", gb)
						}
					}
				})
			}
		}
	}
}

// TestCollectiveReadEquivalence seeds the files independently, reads
// them back collectively (including cross-rank overlapping reads), and
// checks every rank's buffer.
func TestCollectiveReadEquivalence(t *testing.T) {
	for _, kind := range []storeKind{storeDirect, storeParity, storeMirror} {
		for _, pl := range testPlacements {
			for _, locality := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/locality=%v", kind, pl.name, locality), func(t *testing.T) {
					const nRanks = 8
					e, g, _ := collectiveFixture(t, kind, pl.spec)
					// Seed through the independent path, untimed.
					ctx := sim.NewWall()
					blk := make([]byte, testBS)
					for f := 0; f < g.Len(); f++ {
						total := g.File(f).Mapper().TotalFSBlocks()
						for b := int64(0); b < total; b++ {
							pattern(g.Offset(f)+b, blk)
							if err := g.File(f).Set().WriteVec(ctx, blockio.Vec{{Block: b, N: 1}}, blk); err != nil {
								t.Fatal(err)
							}
						}
					}
					col, err := Open(g, nRanks, Options{Locality: locality})
					if err != nil {
						t.Fatal(err)
					}
					mg, join := mpp.Run(e, nRanks, "r", func(p *mpp.Proc) {
						reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
						// Every rank also reads block 0 of file 0 — a
						// cross-rank overlap, legal for reads.
						reqs = append(reqs, VecReq{File: 0, Vec: blockio.Vec{{Block: 0, N: 1, BufOff: int64(len(buf))}}})
						buf = append(buf, make([]byte, testBS)...)
						slots = append(slots, 0)
						if err := col.ReadAll(p, reqs, buf); err != nil {
							t.Errorf("rank %d: %v", p.Rank(), err)
							return
						}
						want := make([]byte, testBS)
						for i, gb := range slots {
							pattern(gb, want)
							if !bytes.Equal(buf[int64(i)*testBS:int64(i+1)*testBS], want) {
								t.Errorf("rank %d: slot %d (global block %d) mismatch", p.Rank(), i, gb)
								return
							}
						}
					})
					mg.SetLink(0, 100e6)
					e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
					if err := e.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestCollectiveDegradedRead fails one parity data drive and checks a
// collective read still reconstructs every requested block.
func TestCollectiveDegradedRead(t *testing.T) {
	const nRanks = 4
	e, g, disks := collectiveFixture(t, storeParity, testPlacements[0].spec)
	ctx := sim.NewWall()
	blk := make([]byte, testBS)
	for f := 0; f < g.Len(); f++ {
		total := g.File(f).Mapper().TotalFSBlocks()
		for b := int64(0); b < total; b++ {
			pattern(g.Offset(f)+b, blk)
			if err := g.File(f).Set().WriteVec(ctx, blockio.Vec{{Block: b, N: 1}}, blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	disks[1].Fail()
	col, err := Open(g, nRanks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, join := mpp.Run(e, nRanks, "r", func(p *mpp.Proc) {
		reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
		if err := col.ReadAll(p, reqs, buf); err != nil {
			t.Errorf("rank %d: %v", p.Rank(), err)
			return
		}
		want := make([]byte, testBS)
		for i, gb := range slots {
			pattern(gb, want)
			if !bytes.Equal(buf[int64(i)*testBS:int64(i+1)*testBS], want) {
				t.Errorf("rank %d: global block %d wrong under degraded read", p.Rank(), gb)
				return
			}
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveRaggedDomain uses a footprint that does not divide by the
// aggregator count (10 blocks over 4 aggregators → 3+3+3+1) and a group
// whose second file ends mid-domain.
func TestCollectiveRaggedDomain(t *testing.T) {
	const nRanks = 4
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	col, err := Open(g, nRanks, Options{Aggregators: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 10 blocks straddling the a/b file boundary: a[36,40) ∪ b[0,6) =
	// global [36,46), split 3/3/3/1 across the aggregators.
	_, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
		r := int64(p.Rank())
		var vecA, vecB blockio.Vec
		buf := make([]byte, 0, 3*testBS)
		for gb := int64(36) + r; gb < 46; gb += nRanks {
			off := int64(len(buf))
			buf = append(buf, make([]byte, testBS)...)
			pattern(gb, buf[off:])
			if gb < 40 {
				vecA = append(vecA, blockio.VecSeg{Block: gb, N: 1, BufOff: off})
			} else {
				vecB = append(vecB, blockio.VecSeg{Block: gb - 40, N: 1, BufOff: off})
			}
		}
		var reqs []VecReq
		if len(vecA) > 0 {
			reqs = append(reqs, VecReq{File: 0, Vec: vecA})
		}
		if len(vecB) > 0 {
			reqs = append(reqs, VecReq{File: 1, Vec: vecB})
		}
		if err := col.WriteAll(p, reqs, buf); err != nil {
			t.Errorf("rank %d: %v", p.Rank(), err)
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := readAllBlocks(t, g)
	want := make([]byte, testBS)
	for gb := int64(36); gb < 46; gb++ {
		pattern(gb, want)
		if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], want) {
			t.Fatalf("global block %d corrupt after ragged collective write", gb)
		}
	}
	// Untouched blocks stayed zero.
	zero := make([]byte, testBS)
	for _, gb := range []int64{0, 35, 46, g.TotalFSBlocks() - 1} {
		if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], zero) {
			t.Fatalf("global block %d touched outside the footprint", gb)
		}
	}
}

// TestCollectiveEmptyRanks lets some ranks participate with no requests.
func TestCollectiveEmptyRanks(t *testing.T) {
	const nRanks = 4
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	col, err := Open(g, nRanks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
		if p.Rank() != 2 {
			if err := col.WriteAll(p, nil, nil); err != nil {
				t.Errorf("rank %d empty write: %v", p.Rank(), err)
			}
			return
		}
		buf := make([]byte, 4*testBS)
		for i := 0; i < 4; i++ {
			pattern(int64(i), buf[i*testBS:(i+1)*testBS])
		}
		if err := col.WriteAll(p, []VecReq{{File: 0, Vec: blockio.Vec{{Block: 0, N: 4}}}}, buf); err != nil {
			t.Errorf("rank 2: %v", err)
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := readAllBlocks(t, g)
	want := make([]byte, testBS)
	for gb := int64(0); gb < 4; gb++ {
		pattern(gb, want)
		if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], want) {
			t.Fatalf("block %d corrupt", gb)
		}
	}
}

// TestCollectiveErrorsPropagate: every rank receives the plan error.
func TestCollectiveErrorsPropagate(t *testing.T) {
	const nRanks = 2
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	col, err := Open(g, nRanks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, nRanks)
	_, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
		// Both ranks write block 0: a cross-rank write overlap.
		buf := make([]byte, testBS)
		errs[p.Rank()] = col.WriteAll(p, []VecReq{{File: 0, Vec: blockio.Vec{{Block: 0, N: 1}}}}, buf)
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "write overlapping") {
			t.Fatalf("rank %d error = %v, want cross-rank overlap", r, err)
		}
	}
}

// TestCollectiveRequestReduction is the subsystem-level coalescing
// check: an 8-rank stride over both files must cost at most one device
// request per aggregator per device, versus one per block independently.
func TestCollectiveRequestReduction(t *testing.T) {
	const nRanks = 8
	e, g, disks := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	col, err := Open(g, nRanks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mg, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
		reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
		for i, gb := range slots {
			pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
		}
		if err := col.WriteAll(p, reqs, buf); err != nil {
			t.Errorf("rank %d: %v", p.Rank(), err)
		}
	})
	mg.SetLink(0, 100e6)
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var reqs int64
	for _, d := range disks {
		reqs += d.Stats().Requests()
	}
	// 63 blocks, 4 aggregators × 4 devices bounds the request count.
	if max := int64(col.naggs * len(disks)); reqs > max {
		t.Fatalf("collective write issued %d device requests, want ≤ %d", reqs, max)
	}
	got := readAllBlocks(t, g)
	want := make([]byte, testBS)
	for gb := int64(0); gb < g.TotalFSBlocks(); gb++ {
		pattern(gb, want)
		if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], want) {
			t.Fatalf("global block %d corrupt", gb)
		}
	}
}

// TestCollectiveReuseErrorVisibility is the regression for the
// cross-call error race: on a reused handle, a rank returning from one
// collective and immediately entering the next must not clear its error
// slot before slower ranks have joined the previous call's errors.
// Every rank must see the aggregator's device error from call 1, and
// call 2 (after repair) must succeed for all.
func TestCollectiveReuseErrorVisibility(t *testing.T) {
	const nRanks = 4
	e, g, disks := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	// A single aggregator makes the failing rank the last barrier
	// arriver — the schedule in which it re-enters first and, without
	// the trailing barrier in run(), clears its error slot before the
	// other ranks join.
	col, err := Open(g, nRanks, Options{Aggregators: 1})
	if err != nil {
		t.Fatal(err)
	}
	disks[2].Fail()
	errs1 := make([]error, nRanks)
	errs2 := make([]error, nRanks)
	_, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
		reqs, buf, slots := strideReqs(g, p.Rank(), nRanks)
		for i, gb := range slots {
			pattern(gb, buf[int64(i)*testBS:int64(i+1)*testBS])
		}
		errs1[p.Rank()] = col.WriteAll(p, reqs, buf)
		if p.Rank() == 0 {
			disks[2].Repair()
		}
		errs2[p.Rank()] = col.WriteAll(p, reqs, buf)
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r, err := range errs1 {
		if err == nil || !strings.Contains(err.Error(), "drive failed") {
			t.Errorf("rank %d call 1 error = %v, want the aggregator's drive failure", r, err)
		}
	}
	for r, err := range errs2 {
		if err != nil {
			t.Errorf("rank %d call 2 error = %v, want nil", r, err)
		}
	}
}

// TestCollectiveLocalityKeepsBytesLocal is the subsystem-level locality
// check: 4 ranks write 10-block slabs of file a shifted by one slab
// (rank r writes slab (r+1) mod 4), so under round-robin assignment
// every byte crosses the interconnect while locality assignment keeps
// every byte on its writing rank. Verified three ways: the plan's
// ExchangeStats, the measured mpp link traffic, and the landed bytes.
func TestCollectiveLocalityKeepsBytesLocal(t *testing.T) {
	const nRanks = 4
	run := func(locality bool) (ExchangeStats, int64) {
		e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
		col, err := Open(g, nRanks, Options{Aggregators: 4, Locality: locality})
		if err != nil {
			t.Fatal(err)
		}
		mg, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
			slab := int64((p.Rank() + 1) % nRanks)
			buf := make([]byte, 10*testBS)
			for i := int64(0); i < 10; i++ {
				pattern(slab*10+i, buf[i*testBS:(i+1)*testBS])
			}
			reqs := []VecReq{{File: 0, Vec: blockio.Vec{{Block: slab * 10, N: 10, BufOff: 0}}}}
			if err := col.WriteAll(p, reqs, buf); err != nil {
				t.Errorf("rank %d: %v", p.Rank(), err)
			}
		})
		e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		got := readAllBlocks(t, g)
		want := make([]byte, testBS)
		for gb := int64(0); gb < 40; gb++ {
			pattern(gb, want)
			if !bytes.Equal(got[gb*testBS:(gb+1)*testBS], want) {
				t.Fatalf("locality=%v: global block %d corrupt", locality, gb)
			}
		}
		_, linkBytes := mg.Traffic()
		return col.LastStats(), linkBytes
	}

	const totalBytes = int64(40 * testBS)
	naive, naiveLink := run(false)
	if naive.BytesMoved != totalBytes || naive.BytesLocal != 0 {
		t.Errorf("round-robin stats = %+v, want all %d bytes moved", naive, totalBytes)
	}
	if naiveLink != totalBytes {
		t.Errorf("round-robin link traffic = %d bytes, want %d", naiveLink, totalBytes)
	}
	local, localLink := run(true)
	if local.BytesMoved != 0 || local.BytesLocal != totalBytes {
		t.Errorf("locality stats = %+v, want all %d bytes local", local, totalBytes)
	}
	if localLink != 0 {
		t.Errorf("locality link traffic = %d bytes, want 0", localLink)
	}
}

// TestCollectiveExchangeStatsRead checks LastStats on the read path and
// that reads and writes of one footprint report the same split.
func TestCollectiveExchangeStatsRead(t *testing.T) {
	const nRanks = 2
	e, g, _ := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	col, err := Open(g, nRanks, Options{Aggregators: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 touches blocks [4,8), rank 1 blocks [0,4): under round-robin
	// assignment domain 0 ([0,4), read by rank 1) belongs to rank 0 and
	// vice versa, so every byte crosses the link.
	_, join := mpp.Run(e, nRanks, "rw", func(p *mpp.Proc) {
		lo := int64(4 * (1 - p.Rank()))
		buf := make([]byte, 4*testBS)
		reqs := []VecReq{{File: 0, Vec: blockio.Vec{{Block: lo, N: 4}}}}
		if err := col.WriteAll(p, reqs, buf); err != nil {
			t.Errorf("rank %d write: %v", p.Rank(), err)
		}
		wst := col.LastStats()
		if err := col.ReadAll(p, reqs, buf); err != nil {
			t.Errorf("rank %d read: %v", p.Rank(), err)
		}
		if rst := col.LastStats(); rst.BytesMoved != wst.BytesMoved || rst.BytesLocal != wst.BytesLocal {
			t.Errorf("rank %d: read stats %+v != write stats %+v", p.Rank(), rst, wst)
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := col.LastStats()
	if want := int64(8 * testBS); st.BytesMoved != want || st.BytesLocal != 0 {
		t.Fatalf("stats = %+v, want %d moved / 0 local", st, want)
	}
}

// TestCollectiveErrorReachesEveryRank: rank 0 joins the call's errors
// once, and every rank returns that one error — also a rank that is the
// last out of the call's work, here the only rank with anything to
// write, whose blocks lie on a failed drive. It must wait for rank 0's
// join rather than read the error before it is made.
func TestCollectiveErrorReachesEveryRank(t *testing.T) {
	const nRanks = 4
	e, g, disks := collectiveFixture(t, storeDirect, testPlacements[0].spec)
	col, err := Open(g, nRanks, Options{Strategy: blockio.StrategyVectored})
	if err != nil {
		t.Fatal(err)
	}
	disks[2].Fail()
	errs := make([]error, nRanks)
	_, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
		var reqs []VecReq
		buf := make([]byte, 8*testBS)
		if p.Rank() == nRanks-1 {
			reqs = []VecReq{{File: 0, Vec: blockio.Vec{{Block: 0, N: 8}}}}
		}
		errs[p.Rank()] = col.WriteAll(p, reqs, buf)
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("rank %d: ", nRanks-1)
	for r, err := range errs {
		if err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, device.ErrFailed) {
			t.Errorf("rank %d: error %v, want rank %d's drive failure", r, err, nRanks-1)
		}
	}
}
