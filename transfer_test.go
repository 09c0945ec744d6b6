// One transfer primitive: what the pipeline below every access method
// (describe → map → transform → issue, internal/blockio) costs the
// allocator and the host against the entry points it replaced — one
// block is its one-segment descriptor — and that every transfer — a
// stream's extents, a direct-access fault — shows on the flight
// recorder's blockio track.
package pario_test

import (
	"io"
	"runtime"
	"testing"

	pario "repro"
	"repro/internal/blockio"
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
//     through ReadVec or an Auto read Transfer allocated 2 objects, the
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
	blk := make([]byte, set.Store().BlockSize())
	buf := make([]byte, 64*set.Store().BlockSize())
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
		{"one-block Transfer(read, Auto)", 2, func() { _ = set.Transfer(ctx, false, pario.StrategyAuto, one, blockio.Space{{Buf: blk}}) }},
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
	blk := make([]byte, set.Store().BlockSize())
	one := pario.Vec{{Block: 5, N: 1}}
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"read", func() error { return set.ReadVec(ctx, one, blk) }},
		{"read-auto", func() error { return set.Transfer(ctx, false, pario.StrategyAuto, one, blockio.Space{{Buf: blk}}) }},
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

// TestMultiDriveTransferSpawnsNothing: the runs of a transfer on several
// drives complete as engine events — the submitter hands the drives the
// list and parks once — so no transfer shape that reaches the drives
// through a Set spawns a process, and once warm none allocates. It runs
// each shape on a four-drive striped file, one run per drive, with a
// recorder on the engine counting its spawns: a descriptor written and
// read (Set.WriteVec, ReadVec), a BatchPlan window written and read, and
// a request through an I/O server lane. Before list submission every run
// after the first was a spawned process, 3 spawns a transfer here.
func TestMultiDriveTransferSpawnsNothing(t *testing.T) {
	const warm, laps = 20, 200
	for _, tc := range []struct {
		name string
		// allocs is what a lap may allocate on average. A lane request
		// costs the server's own bookkeeping, as it did before list
		// submission: its ticket, the ticket's buffer space and a queue
		// entry, and now and then a larger latency sample.
		allocs float64
		lap    func(p *pario.Proc, set *pario.Set, plan *pario.BatchPlan, job *pario.IOJob, buf []byte) error
	}{
		{"Set.WriteVec+ReadVec", 0, func(p *pario.Proc, set *pario.Set, _ *pario.BatchPlan, _ *pario.IOJob, buf []byte) error {
			vec := pario.Vec{{Block: 0, N: 64}}
			if err := set.WriteVec(p, vec, buf); err != nil {
				return err
			}
			return set.ReadVec(p, vec, buf)
		}},
		{"BatchPlan window", 0, func(p *pario.Proc, _ *pario.Set, plan *pario.BatchPlan, _ *pario.IOJob, buf []byte) error {
			sp := blockio.Space{{Buf: buf}}
			if err := plan.Transfer(p, true, 0, 1, sp); err != nil {
				return err
			}
			return plan.Transfer(p, false, 0, 1, sp)
		}},
		{"ioserver lane", 3.125, func(p *pario.Proc, _ *pario.Set, plan *pario.BatchPlan, job *pario.IOJob, buf []byte) error {
			return job.SubmitWritePlan(p, plan, buf, int64(len(buf))).Wait(p)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, f := stripedFile(t, pario.OrgSequential, 64)
			set := f.Set()
			runs, err := set.MapVec(pario.Vec{{Block: 0, N: 64}})
			if err != nil || len(runs) != 4 {
				t.Fatalf("the fixture maps to %d runs (%v), want one on each of 4 drives", len(runs), err)
			}
			plan, err := pario.BatchVec{{Set: set, Vec: pario.Vec{{Block: 0, N: 64}}}}.Plan(nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := pario.NewRecorder()
			m.Engine.SetProbe(rec)
			spawns := rec.Metrics().Counter("sim.spawns")
			srv := pario.NewIOServer(pario.IOServerConfig{})
			job := srv.AddJob(pario.IOJobConfig{Name: "j"})
			srv.Start(m.Engine)
			buf := make([]byte, 64*set.Store().BlockSize())
			// One P, as testing.AllocsPerRun runs: the transfer's pooled
			// map scratch sits in a per-P pool slot, and a process whose
			// goroutine moved to another P would find that P's slot empty
			// and count a fresh scratch.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var ms runtime.MemStats // out here: reading it must not allocate it
			var from, to uint64
			var spawned int64
			m.Go("io", func(p *pario.Proc) {
				defer srv.Stop(p)
				for k := 0; k < warm+laps; k++ {
					if k == warm {
						runtime.ReadMemStats(&ms)
						from, spawned = ms.Mallocs, spawns.Value()
					}
					if err := tc.lap(p, set, plan, job, buf); err != nil {
						t.Error(err)
						return
					}
				}
				runtime.ReadMemStats(&ms)
				to, spawned = ms.Mallocs, spawns.Value()-spawned
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if spawned != 0 {
				t.Errorf("%d laps spawned %d processes, want 0", laps, spawned)
			}
			// A handful of objects is the Go runtime's own.
			if got, want := to-from, uint64(tc.allocs*laps)+8; got > want && !raceEnabled {
				t.Errorf("%d laps allocated %d objects, want at most %d", laps, got, want)
			}
		})
	}
}

// BenchmarkMultiDriveTransfer is the host cost of multijob_qos's batch
// shape under the engine: one descriptor of 16 runs, two blocks on each
// of 16 drives, written and read back through the Set (ns/op,
// allocs/op).
func BenchmarkMultiDriveTransfer(b *testing.B) {
	const drives = 16
	m := pario.NewMachine(drives)
	f, err := m.Volume.Create(pario.Spec{
		Name: "f", Org: pario.OrgSequential,
		RecordSize: 4096, BlockRecords: 1, NumRecords: 2 * drives,
		Placement: pario.PlaceStriped, StripeUnitFS: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	set := f.Set()
	vec := pario.Vec{{Block: 0, N: 2 * drives}}
	if runs, err := set.MapVec(vec); err != nil || len(runs) != drives {
		b.Fatalf("the fixture maps to %d runs (%v), want %d", len(runs), err, drives)
	}
	buf := make([]byte, 2*drives*set.Store().BlockSize())
	b.ReportAllocs()
	m.Go("io", func(p *pario.Proc) {
		b.ResetTimer()
		for range b.N {
			if err := set.WriteVec(p, vec, buf); err != nil {
				b.Error(err)
				return
			}
			if err := set.ReadVec(p, vec, buf); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}
