// Ramped-round acceptance: on the 512-rank declustered checkpoint
// (alignedCheckpoint, TunedProfile), a write's pipeline is exchange then
// access, and nothing hides its first exchange round: with eight equal
// rounds that round moves an eighth of the call across the bisection
// while all 32 drives wait. StrategyAuto prices a ramped cut beside the
// equal one at every depth — round k's chunk in proportion to k+1, so
// the first exchange is a few blocks and each later one fits under the
// access of the round before — and must take it here: at least 5 %
// faster than the equal rounds at the same depth, its price within 2 %
// of what the call then takes, one request per drive per round still.
package pario_test

import "testing"

func TestRampWin(t *testing.T) {
	priced := runDepthCheckpoint(t, 0, 0)
	equal := runDepthCheckpoint(t, 0, priced.rounds)
	ratio := priced.elapsed.Seconds() / equal.elapsed.Seconds()
	resid := priced.predicted.Seconds() / priced.elapsed.Seconds()
	t.Logf("%d rounds: equal %v per call, priced %v (ramped %v, chunks %v blocks): %.3f of equal; predicted %v, %.4f of realised",
		priced.rounds, equal.elapsed, priced.elapsed, priced.ramped, priced.cut, ratio, priced.predicted, resid)
	if !priced.ramped || equal.ramped {
		t.Fatalf("priced call ramped %v, forced depth ramped %v: want a ramp priced, equal rounds forced", priced.ramped, equal.ramped)
	}
	if c := priced.cut; c[0] >= c[len(c)-1] {
		t.Errorf("a write's ramp runs %v: the first round must be the smallest", c)
	}
	if ratio > 0.95 {
		t.Errorf("ramped rounds take %.3f of equal ones at depth %d, want ≤ 0.95", ratio, priced.rounds)
	}
	if resid < 0.98 || resid > 1.02 {
		t.Errorf("ramped rounds priced at %.4f of what they took, want within [0.98, 1.02]", resid)
	}
	if priced.requests != int64(alignDrives*priced.rounds) {
		t.Errorf("ramped call issued %d device requests, want one per drive per round (%d)", priced.requests, alignDrives*priced.rounds)
	}
}
