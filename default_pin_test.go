// Default-model pinning: the free-link, round-robin configuration must
// stay bit-identical as the interconnect and placement models grow.
// These golden durations were recorded when the shared-link model and
// locality-aware domains landed (ISSUE 4); any future change that
// perturbs default timings — a stray charge on the free link, a changed
// exchange order, a different domain assignment — fails here before it
// can silently shift the paper's modeled shapes.
package pario_test

import (
	"testing"
	"time"

	pario "repro"
)

// The pinned checkpoint's shape, frozen here on purpose: this file keeps
// its own fixture so a change to the shared one cannot move the pins.
const (
	ckptRanks   = 8
	ckptRecords = 1024 // 4 KiB records = fs blocks (unit-1 declustered)
)

// pinnedCheckpoint runs the PR 3 strided checkpoint write (8 ranks, 1024
// records, unit-1 declustered over 4 default drives) with the given link
// configuration and returns the modeled elapsed time.
func pinnedCheckpoint(t *testing.T, collective bool, configure func(*pario.RankGroup)) time.Duration {
	t.Helper()
	m := pario.NewMachine(4)
	// Live flight recorder: the pinned golden times below must hold with
	// tracing on — recording reads the virtual clock only.
	m.SetProbe(pario.NewRecorder())
	f, err := m.Volume.Create(pario.Spec{
		Name: "ckpt", Org: pario.OrgGlobalDirect,
		RecordSize: 4096, BlockRecords: 1, NumRecords: ckptRecords,
		Placement: pario.PlaceStriped, StripeUnitFS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	group, err := m.Volume.OpenGroup("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	col, err := pario.OpenCollective(group, ckptRanks, pario.CollectiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rg := m.GoRanks(ckptRanks, "rank", func(r *pario.Rank) {
		rank := int64(r.Rank())
		var vec pario.Vec
		var off int64
		for b := rank; b < ckptRecords; b += ckptRanks {
			vec = append(vec, pario.VecSeg{Block: b, N: 1, BufOff: off})
			off += 4096
		}
		buf := make([]byte, off)
		if collective {
			if err := col.WriteAll(r, []pario.VecReq{{File: 0, Vec: vec}}, buf); err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
			return
		}
		if err := f.Set().WriteVec(r.Proc, vec, buf); err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	})
	if configure != nil {
		configure(rg)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.Engine.Now()
}

// TestDefaultModelPinned asserts exact golden elapsed times for the
// default configurations: the free link (nothing configured — the
// paper's model) and the PR 3 per-process link (SetLink only), each for
// the independent and collective paths. Bit-identical means equal, not
// approximately equal.
func TestDefaultModelPinned(t *testing.T) {
	free := func(*pario.RankGroup) {}
	pr3 := func(rg *pario.RankGroup) { rg.SetLink(10*time.Microsecond, 100e6) }
	cases := []struct {
		name       string
		collective bool
		configure  func(*pario.RankGroup)
		want       time.Duration
	}{
		{"independent/free-link", false, free, 2988389208 * time.Nanosecond},
		{"collective/free-link", true, free, 746086164 * time.Nanosecond},
		{"independent/per-process-link", false, pr3, 2988389208 * time.Nanosecond},
		{"collective/per-process-link", true, pr3, 765833008 * time.Nanosecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := pinnedCheckpoint(t, tc.collective, tc.configure)
			if got != tc.want {
				t.Errorf("elapsed = %v (%d ns), want pinned %v — default-model timing drifted",
					got, got.Nanoseconds(), tc.want)
			}
		})
	}
}
