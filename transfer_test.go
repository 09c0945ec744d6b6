// One transfer primitive: what the pipeline below every access method
// (describe → map → transform → issue, internal/blockio) costs the
// allocator against the entry points it replaced, and that every
// transfer — a stream's extents, a direct-access fault — now shows on
// the flight recorder's blockio track.
package pario_test

import (
	"io"
	"testing"

	pario "repro"
)

// stripedFile creates a striped file of 4 KiB records, one per block,
// on a fresh four-drive machine.
func stripedFile(tb testing.TB, org pario.Organization, records int64) (*pario.Machine, *pario.File) {
	tb.Helper()
	m := pario.NewMachine(4)
	f, err := m.Volume.Create(pario.Spec{
		Name: "f", Org: org,
		RecordSize: 4096, BlockRecords: 1, NumRecords: records,
		Placement: pario.PlaceStriped, StripeUnitFS: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m, f
}

// TestTransferAllocs gates the allocations of the two transfers the
// access methods are made of. The "before" counts were measured on this
// fixture at the commit before the vectored run became the only Store
// transfer:
//
//   - Set.ReadBlock/WriteBlock went store.ReadBlock → disk.ReadBlock and
//     allocated nothing. They now issue a one-run transfer whose
//     one-buffer list is recycled: still nothing.
//   - A steady-state one-segment ReadVec of 64 blocks (one merged run
//     per drive) allocated 36 objects — validation's index copies and
//     sort closures, the mapper's growing piece list, a Segs slice and a
//     scatter list per run. The pooled mapper and recycled lists leave
//     the result, the parallel branches and nothing else.
func TestTransferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const blockBefore, vecBefore = 0, 36
	_, f := stripedFile(t, pario.OrgSequential, 64)
	set := f.Set()
	ctx := pario.NewWall()
	blk := make([]byte, set.BlockSize())
	buf := make([]byte, 64*set.BlockSize())
	vec := pario.Vec{{Block: 0, N: 64}}
	if err := set.WriteVec(ctx, vec, buf); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { _ = set.ReadBlock(ctx, 5, blk) }); got > blockBefore {
		t.Errorf("Set.ReadBlock allocates %v objects per call, %d before", got, blockBefore)
	}
	if got := testing.AllocsPerRun(200, func() { _ = set.WriteBlock(ctx, 5, blk) }); got > blockBefore {
		t.Errorf("Set.WriteBlock allocates %v objects per call, %d before", got, blockBefore)
	}
	got := testing.AllocsPerRun(200, func() { _ = set.ReadVec(ctx, vec, buf) })
	if got >= vecBefore {
		t.Errorf("one-segment ReadVec allocates %v objects per call, %d before", got, vecBefore)
	}
	t.Logf("one-segment ReadVec over 4 drives: %v objects per call (%d before)", got, vecBefore)
}

// TestEveryTransferRecorded: with a recorder attached, the blockio layer
// accounts for every byte the drives move, whichever access method asked
// — a sequential stream's extents and a direct-access handle's faults
// alike.
func TestEveryTransferRecorded(t *testing.T) {
	const records = 256
	cases := []struct {
		name string
		org  pario.Organization
		run  func(t *testing.T, p *pario.Proc, f *pario.File)
	}{
		{"S-stream scan", pario.OrgSequential, func(t *testing.T, p *pario.Proc, f *pario.File) {
			r, err := pario.OpenReader(f, pario.Options{NBufs: 2, IOProcs: 1, ExtentBlocks: 32})
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, _, err := r.ReadRecord(p); err == io.EOF {
					break
				} else if err != nil {
					t.Error(err)
					return
				}
			}
			if err := r.Close(p); err != nil {
				t.Error(err)
			}
		}},
		{"GDA fault", pario.OrgGlobalDirect, func(t *testing.T, p *pario.Proc, f *pario.File) {
			d, err := pario.OpenDirect(f, pario.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 4096)
			for _, rec := range []int64{7, 200, 8, 41} {
				if err := d.ReadRecordAt(p, rec, buf); err != nil {
					t.Error(err)
					return
				}
			}
			if err := d.Close(p); err != nil {
				t.Error(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, f := stripedFile(t, tc.org, records)
			rec := pario.NewRecorder()
			m.SetProbe(rec)
			m.Go("io", func(p *pario.Proc) { tc.run(t, p, f) })
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			var devBytes int64
			for _, d := range m.Disks {
				devBytes += d.Stats().Bytes()
			}
			batches := rec.Metrics().Counter("blockio.batches").Value()
			bytes := rec.Metrics().Counter("blockio.bytes").Value()
			if batches == 0 || devBytes == 0 {
				t.Fatalf("blockio.batches = %d beside %d device bytes, want both > 0", batches, devBytes)
			}
			if bytes != devBytes {
				t.Errorf("blockio.bytes = %d, the drives moved %d", bytes, devBytes)
			}
			spans := 0
			for _, sp := range rec.Spans() {
				if sp.Cat == "blockio" {
					spans++
				}
			}
			if int64(spans) != batches {
				t.Errorf("%d blockio spans for %d batches", spans, batches)
			}
		})
	}
}
