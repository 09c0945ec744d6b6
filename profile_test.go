// Profile acceptance: the ROADMAP's "modern defaults" bundle
// (TunedProfile — extents, SCAN, queue merging, a real interconnect,
// locality-aware chunked collectives) must beat the paper's
// configuration on the checkpoint scenario, even though the paper's
// interconnect is free: the pipelined collective hides the tuned
// profile's real exchange cost behind the drives, and the extent
// read-back collapses the paper's block-at-a-time scan.
package pario_test

import (
	"testing"
	"time"

	pario "repro"
	"repro/internal/experiments"
)

// runProfileCheckpoint runs the checkpoint scenario under a profile
// (experiments.ProfileCheckpoint: an 8-rank strided collective write,
// then one sequential scan validating it — the restart read) and returns
// its modeled time.
func runProfileCheckpoint(tb testing.TB, pf pario.Profile) time.Duration {
	tb.Helper()
	return mustRun(tb, experiments.ProfileCheckpoint(pf)).Elapsed
}

// TestTunedProfileWins asserts the modern-defaults bundle beats the
// paper configuration on the checkpoint scenario.
func TestTunedProfileWins(t *testing.T) {
	paper := runProfileCheckpoint(t, pario.PaperProfile())
	tuned := runProfileCheckpoint(t, pario.TunedProfile())
	ratio := paper.Seconds() / tuned.Seconds()
	t.Logf("checkpoint write + restart scan: paper %v -> tuned %v (%.2fx)", paper, tuned, ratio)
	if tuned >= paper {
		t.Errorf("tuned profile (%v) does not beat paper defaults (%v)", tuned, paper)
	}
	if ratio < 1.5 {
		t.Errorf("tuned profile wins only %.2fx, want ≥1.5x", ratio)
	}
}
