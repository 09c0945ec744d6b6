package collective

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
)

// detResult is everything observable about one contended pipelined
// collective run: if any field differs between two runs of the same
// scenario, the simulation is non-deterministic.
type detResult struct {
	now          time.Duration
	stats        ExchangeStats
	msgs, bytes  int64
	rankSums     []uint64
	writeErr     error
	readErr      error
	readBackDiff int
}

// detOpts is the determinism fences' handle: four 16-block rounds.
var detOpts = Options{ChunkBytes: 16 * testBS}

// runDeterminismScenario executes one 512-rank contended pipelined
// collective (strided write + read-back) on a fresh engine and 16-drive
// store, and returns the full observable state. A non-nil rec is
// attached across every layer (engine, disks, store, rank group) before
// the run; recording must not change any modeled observable.
func runDeterminismScenario(t *testing.T, nRanks int, opts Options, rec *probe.Recorder) detResult {
	t.Helper()
	e := sim.NewEngine()
	geom := device.Geometry{BlockSize: testBS, BlocksPerCyl: 8, Cylinders: 64}
	disks := make([]*device.Disk, 16)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name: fmt.Sprintf("d%d", i), Geometry: geom, Engine: e,
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	vol := pfs.NewVolume(store)
	nBlocks := int64(2 * nRanks)
	if _, err := vol.Create(pfs.Spec{
		Name: "chk", Org: pfs.OrgSequential, RecordSize: testBS,
		NumRecords: nBlocks, Placement: pfs.PlaceStriped, StripeUnitFS: 1,
	}); err != nil {
		t.Fatal(err)
	}
	g, err := vol.OpenGroup("chk")
	if err != nil {
		t.Fatal(err)
	}
	col, err := Open(g, nRanks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		e.SetProbe(rec)
		for _, d := range disks {
			d.SetProbe(rec)
		}
		store.SetProbe(rec)
	}
	res := detResult{rankSums: make([]uint64, nRanks)}
	mg, join := mpp.Run(e, nRanks, "w", func(p *mpp.Proc) {
		r := int64(p.Rank())
		// Blocks r and r+nRanks: two domains per rank, ~2·nRanks/naggs
		// source ranks per aggregator — contended but sparse.
		reqs := []VecReq{{File: 0, Vec: blockio.Vec{
			{Block: r, N: 1, BufOff: 0},
			{Block: r + int64(nRanks), N: 1, BufOff: testBS},
		}}}
		buf := make([]byte, 2*testBS)
		pattern(r, buf[:testBS])
		pattern(r+int64(nRanks), buf[testBS:])
		if err := col.WriteAll(p, reqs, buf); err != nil {
			res.writeErr = err
			return
		}
		rbuf := make([]byte, len(buf))
		if err := col.ReadAll(p, reqs, rbuf); err != nil {
			res.readErr = err
			return
		}
		if !bytes.Equal(rbuf, buf) {
			res.readBackDiff++
		}
		h := fnv.New64a()
		h.Write(rbuf)
		res.rankSums[p.Rank()] = h.Sum64()
	})
	mg.SetLink(2*time.Microsecond, 100e6)
	mg.SetBisection(500e6)
	if rec != nil {
		mg.SetProbe(rec, "w")
	}
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res.now = e.Now()
	res.stats = col.LastStats()
	res.msgs, res.bytes = mg.Traffic()
	return res
}

// TestPipelinedDeterminism512 runs the same 512-rank contended pipelined
// collective twice on fresh engines and requires every modeled
// observable — final virtual time, LastStats, Traffic, per-rank data —
// to be bit-identical. This is the regression fence for the engine's
// pooled proc shells, the sparse exchange's by-reference delivery and
// the pooled pack scratch: none of that machinery may leak wall-clock
// scheduling into virtual time. The CI race job runs this package, so
// the same scenario is also exercised under -race.
func TestPipelinedDeterminism512(t *testing.T) {
	const nRanks = 512
	a := runDeterminismScenario(t, nRanks, detOpts, nil)
	b := runDeterminismScenario(t, nRanks, detOpts, nil)
	if a.writeErr != nil || a.readErr != nil {
		t.Fatalf("collective failed: write=%v read=%v", a.writeErr, a.readErr)
	}
	if a.readBackDiff != 0 {
		t.Fatalf("%d ranks read back different bytes than written", a.readBackDiff)
	}
	if a.now != b.now {
		t.Errorf("final virtual time differs between runs: %v vs %v", a.now, b.now)
	}
	if a.stats != b.stats {
		t.Errorf("LastStats differs between runs:\n  %+v\n  %+v", a.stats, b.stats)
	}
	if a.msgs != b.msgs || a.bytes != b.bytes {
		t.Errorf("Traffic differs between runs: (%d msgs, %d bytes) vs (%d msgs, %d bytes)",
			a.msgs, a.bytes, b.msgs, b.bytes)
	}
	for r := range a.rankSums {
		if a.rankSums[r] != b.rankSums[r] {
			t.Fatalf("rank %d read different data between runs", r)
		}
	}
}
