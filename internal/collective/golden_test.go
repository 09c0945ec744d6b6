// One-round goldens: the modeled times (and, on the small fixtures, the
// final file images) of calls that ran on the single-shot executor before
// it was deleted, captured there to the nanosecond. A two-phase call with
// nothing to overlap is now the one-round case of runPipelined; these
// constants are what holds that round to the schedule it replaced — same
// exchange charges, same request order at the drives, same overlap
// resolution.

package collective

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// goldenMachine is n default 1989 drives (4 KiB blocks) under one Direct
// store, with one unit-1 striped file of recs one-block records: the root
// win tests' machine, built without the facade.
func goldenMachine(t *testing.T, n int, sched device.Sched, merge bool, recs int64) (*sim.Engine, *pfs.FileGroup) {
	t.Helper()
	e := sim.NewEngine()
	disks := make([]*device.Disk, n)
	for i := range disks {
		disks[i] = device.New(device.Config{Name: fmt.Sprintf("d%d", i), Engine: e, Sched: sched, MergeQueued: merge})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	vol := pfs.NewVolume(store)
	if _, err := vol.Create(pfs.Spec{
		Name: "ckpt", Org: pfs.OrgGlobalDirect, RecordSize: 4096, BlockRecords: 1,
		NumRecords: recs, Placement: pfs.PlaceStriped, StripeUnitFS: 1,
	}); err != nil {
		t.Fatal(err)
	}
	g, err := vol.OpenGroup("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

// goldenStrided has every rank write its column of a recs-block striped
// file calls times — block k·nRanks + rank at buffer slot k — and returns
// the modeled time of the last call.
func goldenStrided(t *testing.T, e *sim.Engine, g *pfs.FileGroup, nRanks int, recs int64, calls int, opts Options,
	configure func(*mpp.Group)) time.Duration {
	t.Helper()
	col, err := Open(g, nRanks, opts)
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	mg, join := mpp.Run(e, nRanks, "rank", func(p *mpp.Proc) {
		rank := int64(p.Rank())
		var vec blockio.Vec
		for b := rank; b < recs; b += int64(nRanks) {
			vec = append(vec, blockio.VecSeg{Block: b, N: 1, BufOff: int64(len(vec)) * 4096})
		}
		buf := make([]byte, len(vec)*4096)
		for call := 0; call < calls; call++ {
			t0 := p.Now()
			if err := col.WriteAll(p, []VecReq{{File: 0, Vec: vec}}, buf); err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
			if rank == 0 {
				last = p.Now() - t0
			}
		}
	})
	configure(mg)
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return last
}

// goldenSmall runs one write and one read-back of per-rank request lists
// on the 4-drive, 2-file fixture (ragged domains, a file boundary inside
// one) under a contended interconnect and
// returns the final modeled time and the hash of the final image.
func goldenSmall(t *testing.T, kind storeKind, placement func(string, int64) pfs.Spec, nRanks int, opts Options,
	reqsOf func(g *pfs.FileGroup, rank int) ([]VecReq, []byte)) (time.Duration, uint64) {
	t.Helper()
	e, g, _ := collectiveFixture(t, kind, placement)
	col, err := Open(g, nRanks, opts)
	if err != nil {
		t.Fatal(err)
	}
	mg, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
		reqs, buf := reqsOf(g, p.Rank())
		for i := range buf {
			buf[i] = byte(p.Rank()*29 + i*7 + 3)
		}
		if err := col.WriteAll(p, reqs, buf); err != nil {
			t.Errorf("rank %d write: %v", p.Rank(), err)
		}
		if err := col.ReadAll(p, reqs, make([]byte, len(buf))); err != nil {
			t.Errorf("rank %d read: %v", p.Rank(), err)
		}
	})
	mg.SetLink(2*time.Microsecond, 100e6)
	mg.SetBisection(500e6)
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(readAllBlocks(t, g))
	return e.Now(), h.Sum64()
}

// TestOneRoundGoldens pins the one-round executor to the single-shot
// executor it replaced.
func TestOneRoundGoldens(t *testing.T) {
	tunedLink := func(mg *mpp.Group) {
		mg.SetLink(10*time.Microsecond, 100e6)
		mg.SetBisection(50e6)
	}
	// TestPipelineWin's checkpoint: the single-shot baseline in both regimes,
	// and the four-round pipeline beside it (unchanged code, same fixture).
	for _, tc := range []struct {
		name      string
		bisection float64
		chunk     int64
		want      time.Duration
	}{
		{"link-bound", 3.5e6, 0, 7105463192},
		{"disk-bound", 6e6, 0, 5357836525},
		{"link-bound-4-rounds", 3.5e6, 256 * 4096, 5004773844},
	} {
		t.Run("pipeline-win/"+tc.name, func(t *testing.T) {
			e, g := goldenMachine(t, 4, device.FCFS, false, 4096)
			got := goldenStrided(t, e, g, 8, 4096, 1, Options{ChunkBytes: tc.chunk}, func(mg *mpp.Group) {
				mg.SetLink(10*time.Microsecond, 100e6)
				mg.SetBisection(tc.bisection)
			})
			if got != tc.want {
				t.Errorf("call took %v (%d ns), want %v", got, got, tc.want)
			}
		})
	}
	for _, chunk := range []int64{0, 1 << 20} {
		t.Run(fmt.Sprintf("aligned-win-logical/chunk=%d", chunk), func(t *testing.T) {
			// TestAlignedDomainsWin's logical baseline, second call: 512 ranks
			// × 32 tuned drives, a 512 KiB domain the 1 MiB bound never cuts.
			e, g := goldenMachine(t, 32, device.SCAN, true, 512*8)
			got := goldenStrided(t, e, g, 512, 512*8, 2, Options{Locality: true, ChunkBytes: chunk}, tunedLink)
			if want := 728562311 * time.Nanosecond; got != want {
				t.Errorf("call took %v (%d ns), single-shot took %v", got, got, want)
			}
		})
	}
	t.Run("determinism-512", func(t *testing.T) {
		for _, tc := range []struct {
			chunk int64
			want  time.Duration
		}{{16 * testBS, 1784117070}, {0, goldenDet512Unbounded}} {
			if got := runDeterminismScenario(t, 512, Options{ChunkBytes: tc.chunk}, nil).now; got != tc.want {
				t.Errorf("ChunkBytes %d: scenario took %v (%d ns), want %v", tc.chunk, got, got, tc.want)
			}
		}
	})
	small := []struct {
		name    string
		kind    storeKind
		nRanks  int
		opts    Options
		reqsOf  func(g *pfs.FileGroup, rank int) ([]VecReq, []byte)
		now     time.Duration
		imgHash uint64
	}{
		// Two ranks hold the whole footprint, so Locality gives each of them
		// two of the four domains: several owned domains per aggregator.
		{"locality-multi-domain", storeDirect, 8, Options{Locality: true, Aggregators: 4},
			func(g *pfs.FileGroup, rank int) ([]VecReq, []byte) {
				switch rank {
				case 0:
					return []VecReq{{File: 0, Vec: blockio.Vec{{Block: 0, N: 30}}}}, make([]byte, 30*testBS)
				case 1:
					return []VecReq{
						{File: 0, Vec: blockio.Vec{{Block: 30, N: 10}}},
						{File: 1, Vec: blockio.Vec{{Block: 0, N: 23, BufOff: 10 * testBS}}},
					}, make([]byte, 33*testBS)
				}
				return nil, nil
			}, goldenLocalityNow, goldenLocalityImg},
		{"parity", storeParity, 8, Options{},
			func(g *pfs.FileGroup, rank int) ([]VecReq, []byte) {
				reqs, buf, _ := strideReqs(g, rank, 8)
				return reqs, buf
			}, goldenParityNow, goldenParityImg},
	}
	for _, tc := range small {
		t.Run(tc.name, func(t *testing.T) {
			now, img := goldenSmall(t, tc.kind, testPlacements[0].spec, tc.nRanks, tc.opts, tc.reqsOf)
			if now != tc.now || img != tc.imgHash {
				t.Errorf("write + read-back took %v (%d ns), image %#x; single-shot took %v, image %#x",
					now, now, img, tc.now, tc.imgHash)
			}
		})
	}
	// Every store kind × layout × owner election on the strided footprint.
	stride := func(g *pfs.FileGroup, rank int) ([]VecReq, []byte) {
		reqs, buf, _ := strideReqs(g, rank, 8)
		return reqs, buf
	}
	i := 0
	for _, kind := range []storeKind{storeDirect, storeParity, storeMirror} {
		for _, pl := range testPlacements {
			for _, locality := range []bool{false, true} {
				want := goldenMatrix[i]
				i++
				t.Run(fmt.Sprintf("matrix/%s/%s/locality=%v", kind, pl.name, locality), func(t *testing.T) {
					if now, _ := goldenSmall(t, kind, pl.spec, 8, Options{Locality: locality}, stride); now != want {
						t.Errorf("write + read-back took %v (%d ns), single-shot took %v", now, now, want)
					}
				})
			}
		}
	}
}

// Captured on the single-shot executor (the parent of the commit that
// deleted it).
const (
	goldenDet512Unbounded = 478813420 * time.Nanosecond
	goldenLocalityNow     = 120964496 * time.Nanosecond
	goldenLocalityImg     = 0xc0b754d457847225
	goldenParityNow       = 688510375 * time.Nanosecond
	goldenParityImg       = 0x4a0ffb39d5b0d325
)

// goldenMatrix is the matrix subtests' modeled times, in loop order.
var goldenMatrix = [18]time.Duration{
	101949008, 101949008, 127555730, 127555730, 101949008, 101949008, // direct
	688510375, 688510375, 727775829, 727775829, 688510375, 688510375, // parity
	101949008, 101949008, 127555730, 127555730, 101949008, 101949008, // mirror
}
