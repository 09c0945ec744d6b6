// One transfer primitive: what the pipeline below every access method
// (describe → map → transform → issue, internal/blockio) costs the
// allocator and the host against the entry points it replaced — one
// block is its one-segment descriptor — and that every transfer — a
// stream's extents, a direct-access fault — shows on the flight
// recorder's blockio track.
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

// TestTransferAllocs gates the allocations of the transfers the access
// methods are made of: the one-segment descriptor of one block (a cache
// miss or write-back) and of 64 blocks (a stream's extent), outside an
// engine. The "before" counts were measured on this fixture:
//
//   - One block. Set.ReadBlock/WriteBlock, the one-block entry points the
//     one-segment descriptor replaced, allocated nothing; the same block
//     through ReadVec or ReadVecStrategy(Auto) allocated 2 objects, the
//     mapped run and its segment list.
//   - 64 blocks, one merged run per drive: 36 objects before the pooled
//     mapper and recycled scatter lists (validation's index copies and
//     sort closures, the mapper's growing piece list, a Segs slice and a
//     scatter list per run), then 2, the mapped runs and their segments.
//
// A transfer now maps into scratch that is recycled once its issue
// returns, so every one of them allocates nothing.
func TestTransferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, f := stripedFile(t, pario.OrgSequential, 64)
	set := f.Set()
	ctx := pario.NewWall()
	blk := make([]byte, set.BlockSize())
	buf := make([]byte, 64*set.BlockSize())
	vec := pario.Vec{{Block: 0, N: 64}}
	if err := set.WriteVec(ctx, vec, buf); err != nil {
		t.Fatal(err)
	}
	one := pario.Vec{{Block: 5, N: 1}}
	for _, tc := range []struct {
		name   string
		before int
		call   func()
	}{
		{"one-block ReadVec", 2, func() { _ = set.ReadVec(ctx, one, blk) }},
		{"one-block WriteVec", 2, func() { _ = set.WriteVec(ctx, one, blk) }},
		{"one-block ReadVecStrategy(Auto)", 2, func() { _ = set.ReadVecStrategy(ctx, pario.StrategyAuto, one, blk) }},
		{"64-block ReadVec", 2, func() { _ = set.ReadVec(ctx, vec, buf) }},
	} {
		if got := testing.AllocsPerRun(200, tc.call); got > 0 {
			t.Errorf("%s allocates %v objects per call, want 0 (%d before)", tc.name, got, tc.before)
		}
	}
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

// BenchmarkOneBlockTransfer is the host cost of the transfer a cache
// miss or an eviction's write-back is made of: one block, the
// one-segment descriptor, read (vectored, and under StrategyAuto as a
// direct-access handle's fault path may ask) and written through the Set
// outside an engine, where the drives complete at once (ns/op,
// allocs/op).
func BenchmarkOneBlockTransfer(b *testing.B) {
	_, f := stripedFile(b, pario.OrgSequential, 64)
	set := f.Set()
	ctx := pario.NewWall()
	blk := make([]byte, set.BlockSize())
	one := pario.Vec{{Block: 5, N: 1}}
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"read", func() error { return set.ReadVec(ctx, one, blk) }},
		{"read-auto", func() error { return set.ReadVecStrategy(ctx, pario.StrategyAuto, one, blk) }},
		{"write", func() error { return set.WriteVec(ctx, one, blk) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
