// Drive-aligned two-phase acceptance: on the paper's declustered
// checkpoint — 512 ranks × 32 default drives, a unit-1 striped file,
// every rank moving 8 strided blocks — TunedProfile's StrategyAuto must
// put the collective on the drive-aligned partition through a pipeline
// as deep as it prices cheapest and win ≥ 1.3× modeled time over the
// same options on logical file domains (Locality, 1 MiB chunks), with
// each drive seeing one long sequential request per round instead of one
// short piece per file domain, and its head never travelling further
// than the next cylinder.
//
// (The 512 KiB a drive holds span two 64-block cylinders, so one round
// in the middle of a call starts one cylinder on and the next call one
// cylinder back: track-to-track steps, which is what "sequential" means
// on this drive. TestPipelineDepthPriced holds the depth itself to the
// fastest one.)
//
// Logical file domains are contiguous in the file, so on a declustered
// file each of the 32 domains holds a 16 KiB piece of every drive: 1 024
// device requests per 16 MiB call, each paying controller overhead and
// half a rotation, and a 512 KiB domain that the 1 MiB chunk never cuts,
// so nothing overlaps. Aligned, domain a IS drive a's footprint — one
// sequential 512 KiB run, cut in chunks so the exchange of each overlaps
// the write of the one before (the paper's §5: one process driving each
// device with long transfers, all devices at once).
//
// The choice is priced per call, not a replacement: on TestLocalityWin's
// shifted slabs each rank already holds most of a logical domain, the
// aligned partition would ship seven eighths of the bytes across a
// 2.5 MB/s link to save three requests a drive, and Auto must keep off
// it. Everything here is virtual time and counters; nothing depends on
// the host clock.
package pario_test

import (
	"testing"
	"time"

	pario "repro"
	"repro/internal/experiments"
)

const (
	alignRanks   = 512
	alignDrives  = 32
	alignPerRank = 8 // 4 KiB blocks a rank moves per call
)

// alignedCheckpoint is the declustered checkpoint on pf's machine,
// interconnect and handle options: every rank's eight strided blocks,
// calls times.
func alignedCheckpoint(pf pario.Profile, calls int) experiments.Checkpoint {
	return experiments.Checkpoint{
		Drives: alignDrives, Ranks: alignRanks, Blocks: alignRanks * alignPerRank,
		Profile: pf, Calls: calls,
	}
}

// alignedResult is one measured steady-state checkpoint call.
type alignedResult struct {
	elapsed          time.Duration
	requests, seeks  int64 // device requests; cylinders the heads travelled
	aligned, logical int64 // two-phase calls per partition, whole run
	rounds           float64
}

// runAlignedCheckpoint issues the strided checkpoint twice through a
// collective with the given options on the tuned machine and measures
// the second call (the first plans, and leaves the heads where a
// checkpoint loop leaves them); the fixture verifies the landed bytes.
func runAlignedCheckpoint(tb testing.TB, opts pario.CollectiveOptions) alignedResult {
	tb.Helper()
	pf := pario.TunedProfile()
	pf.Collective = opts
	rec := pario.NewRecorder()
	second := mustRun(tb, alignedCheckpoint(pf, 2).Traced(rec, "")).Calls[1]
	mt := rec.Metrics()
	return alignedResult{
		elapsed: second.Modeled, requests: second.Requests, seeks: second.SeekCyls,
		aligned: mt.Counter("collective.rank.plan.aligned").Value(),
		logical: mt.Counter("collective.rank.plan.logical").Value(),
		rounds:  mt.Histogram("collective.rank.plan.rounds").Sample().Max(),
	}
}

// TestAlignedDomainsWin enforces the ISSUE 15 acceptance numbers.
func TestAlignedDomainsWin(t *testing.T) {
	tuned := pario.TunedProfile().Collective
	before := tuned
	before.Strategy = pario.StrategyDefault // the logical partition, as before ISSUE 15
	old := runAlignedCheckpoint(t, before)
	now := runAlignedCheckpoint(t, tuned)
	ratio := old.elapsed.Seconds() / now.elapsed.Seconds()
	t.Logf("per call: %v -> %v (%.2fx), device requests %d -> %d, cylinders travelled %d -> %d, rounds %.0f -> %.0f",
		old.elapsed, now.elapsed, ratio, old.requests, now.requests, old.seeks, now.seeks, old.rounds, now.rounds)
	if old.aligned != 0 || old.logical != 2 {
		t.Errorf("Strategy default ran %d aligned / %d logical calls, want 0 / 2", old.aligned, old.logical)
	}
	if now.aligned != 2 || now.logical != 0 {
		t.Errorf("StrategyAuto ran %d aligned / %d logical calls, want 2 / 0", now.aligned, now.logical)
	}
	if now.rounds < 2 {
		t.Errorf("aligned schedule ran %.0f rounds, want a pipeline (≥ 2)", now.rounds)
	}
	if want := int64(now.rounds) * alignDrives; now.requests != want {
		t.Errorf("aligned call issued %d device requests, want %d (one per drive per round)", now.requests, want)
	}
	if now.seeks > now.requests {
		t.Errorf("aligned call moved the heads %d cylinders over %d requests, want at most one each", now.seeks, now.requests)
	}
	if ratio < 1.3 {
		t.Errorf("modeled time improvement %.2fx < 1.3x", ratio)
	}

	// Not a replacement: on the shifted slabs (as many domains as
	// drives, so the aligned candidate IS offered and priced) Auto must
	// not go two-phase on the aligned partition, and must do no worse
	// than locality-aware logical domains.
	shifted := pario.CollectiveOptions{Locality: true}
	logical := mustRun(t, experiments.ShiftedCheckpoint(8, 10e6, shifted))
	shifted.Strategy = pario.StrategyAuto
	rec := pario.NewRecorder()
	auto := mustRun(t, experiments.ShiftedCheckpoint(8, 10e6, shifted).Traced(rec, ""))
	if n := rec.Metrics().Counter("collective.rank.plan.aligned").Value(); n != 0 {
		t.Errorf("Auto put the shifted slabs on the aligned partition (%d calls)", n)
	}
	if auto.Elapsed > logical.Elapsed {
		t.Errorf("Auto took %v on the shifted slabs, logical domains %v", auto.Elapsed, logical.Elapsed)
	}
	t.Logf("shifted slabs: logical %v, auto %v", logical.Elapsed, auto.Elapsed)
}
