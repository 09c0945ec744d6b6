// Benchmark harness: one benchmark per reproduced figure/table (the
// rows live in internal/experiments; tables print via cmd/pariobench)
// plus microbenchmarks of the core access paths. Experiment benches
// report the headline metric of their table via b.ReportMetric so the
// paper's shapes are visible in benchmark output.
package pario_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	pario "repro"
	"repro/internal/experiments"
	"repro/internal/probe"
)

// benchExperiment runs one experiment driver per iteration and reports
// selected metrics from the final run.
func benchExperiment(b *testing.B, id string, report ...string) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(id, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, key := range report {
		if v, ok := res.Metrics[key]; ok {
			b.ReportMetric(v, key)
		}
	}
}

// BenchmarkFigure1Patterns regenerates Figure 1 (access patterns of the
// S/PS/IS/SS organizations) and validates all four.
func BenchmarkFigure1Patterns(b *testing.B) {
	benchExperiment(b, "f1")
}

// BenchmarkE1Striping regenerates the E1 table (type-S bandwidth vs
// device count, §4 striping claim).
func BenchmarkE1Striping(b *testing.B) {
	benchExperiment(b, "e1", "read_speedup_d4", "read_speedup_d16", "read_mbps_d16")
}

// BenchmarkE2SelfSched regenerates the E2 table (early pointer release
// vs serialized self-scheduling, §4).
func BenchmarkE2SelfSched(b *testing.B) {
	benchExperiment(b, "e2", "speedup_c0ms", "speedup_c10ms")
}

// BenchmarkE3DevicePerProcess regenerates the E3 table (PS/IS processes
// proceed at independent rates on private devices, §4).
func BenchmarkE3DevicePerProcess(b *testing.B) {
	benchExperiment(b, "e3", "fast_proc_slowdown")
}

// BenchmarkE4SeekInterference regenerates the E4 table (devices <
// processes seek interference and on-device packing policies, §4).
func BenchmarkE4SeekInterference(b *testing.B) {
	benchExperiment(b, "e4", "mbps_d16_contiguous", "mbps_d1_contiguous")
}

// BenchmarkE5Decluster regenerates the E5 table (declustering vs whole
// blocks under skewed access, §4 / Livny et al.).
func BenchmarkE5Decluster(b *testing.B) {
	benchExperiment(b, "e5", "s_d4_zipf(2.0)_whole", "s_d4_zipf(2.0)_declustered")
}

// BenchmarkE6Buffering regenerates the E6 table (multiple buffering,
// read-ahead and deferred writing, §4).
func BenchmarkE6Buffering(b *testing.B) {
	benchExperiment(b, "e6")
}

// BenchmarkE7GlobalView regenerates the E7 table (global-view bandwidth
// by placement; PS serial, IS buffer-starved degradation, §4).
func BenchmarkE7GlobalView(b *testing.B) {
	benchExperiment(b, "e7")
}

// BenchmarkE8Reliability regenerates the E8 tables (MTBF arithmetic,
// Monte-Carlo loss rates, inject/recover scenarios, §5).
func BenchmarkE8Reliability(b *testing.B) {
	benchExperiment(b, "e8", "mtbf_h_n10", "mtbf_h_n100")
}

// BenchmarkE9ViewMismatch regenerates the E9 table (alternate view vs
// global fallback vs copy conversion, §5).
func BenchmarkE9ViewMismatch(b *testing.B) {
	benchExperiment(b, "e9", "alt_four_s", "copy_four_s")
}

// BenchmarkE10Boundary regenerates the E10 table (boundary replication
// vs in-memory caching, §5).
func BenchmarkE10Boundary(b *testing.B) {
	benchExperiment(b, "e10", "rep_four_h8_s", "cache_four_h8_s")
}

// BenchmarkE11FemBaseline regenerates the E11 table (file-per-process
// baseline vs one PS parallel file, §3).
func BenchmarkE11FemBaseline(b *testing.B) {
	benchExperiment(b, "e11", "files_p64_f4")
}

// --- Microbenchmarks of the hot paths (real time, wall context). ---

// BenchmarkDeviceReadBlock measures the untimed device block path.
func BenchmarkDeviceReadBlock(b *testing.B) {
	d := pario.NewDisk(pario.DiskConfig{})
	ctx := pario.NewWall()
	buf := make([]byte, d.Geometry().BlockSize)
	iov := [][]byte{buf}
	if err := d.WriteBlocksVec(ctx, 0, 1, iov); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ReadBlocksVec(ctx, 0, 1, iov); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamWriteRecord measures the sequential record write path
// (block assembly + layout mapping + device copy).
func BenchmarkStreamWriteRecord(b *testing.B) {
	disks := make([]*pario.Disk, 4)
	for i := range disks {
		disks[i] = pario.NewDisk(pario.DiskConfig{Name: fmt.Sprintf("d%d", i)})
	}
	vol, err := pario.NewVolume(disks)
	if err != nil {
		b.Fatal(err)
	}
	const records = 1 << 13
	f, err := vol.Create(pario.Spec{Name: "bench", RecordSize: 512, NumRecords: records})
	if err != nil {
		b.Fatal(err)
	}
	ctx := pario.NewWall()
	w, err := pario.OpenWriter(f, pario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 512)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.WriteRecord(ctx, rec); err != nil {
			// File full: rewind by reopening the write view.
			if cerr := w.Close(ctx); cerr != nil {
				b.Fatal(cerr)
			}
			w, err = pario.OpenWriter(f, pario.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.WriteRecord(ctx, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamReadRecord measures the sequential record read path.
func BenchmarkStreamReadRecord(b *testing.B) {
	disks := make([]*pario.Disk, 4)
	for i := range disks {
		disks[i] = pario.NewDisk(pario.DiskConfig{Name: fmt.Sprintf("d%d", i)})
	}
	vol, err := pario.NewVolume(disks)
	if err != nil {
		b.Fatal(err)
	}
	const records = 4096
	f, err := vol.Create(pario.Spec{Name: "bench", RecordSize: 512, NumRecords: records})
	if err != nil {
		b.Fatal(err)
	}
	ctx := pario.NewWall()
	w, err := pario.OpenWriter(f, pario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 512)
	for i := 0; i < records; i++ {
		if _, err := w.WriteRecord(ctx, rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(512)
	b.ResetTimer()
	r, err := pario.OpenReader(f, pario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := r.ReadRecord(ctx); err == io.EOF {
			_ = r.Close(ctx)
			r, err = pario.OpenReader(f, pario.Options{})
			if err != nil {
				b.Fatal(err)
			}
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectReadRecordAt measures the cached random-access path.
func BenchmarkDirectReadRecordAt(b *testing.B) {
	disks := []*pario.Disk{pario.NewDisk(pario.DiskConfig{})}
	vol, err := pario.NewVolume(disks)
	if err != nil {
		b.Fatal(err)
	}
	const records = 1024
	f, err := vol.Create(pario.Spec{Name: "bench", RecordSize: 512, NumRecords: records})
	if err != nil {
		b.Fatal(err)
	}
	ctx := pario.NewWall()
	d, err := pario.OpenDirect(f, pario.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 512)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ReadRecordAt(ctx, int64(i)%records, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// runScaleScenario models experiments.ScaleCheckpoint — the shape the
// engine-scaling work is judged on: ranks × drives up to 4096 × 256 in
// wall-clock seconds — and returns the final modeled time. A non-nil rec
// is attached across every layer (BenchmarkTraceOverhead measures its
// wall-clock cost; modeled time must not change).
func runScaleScenario(tb testing.TB, ranks, drives int, rec *probe.Recorder) time.Duration {
	return mustRun(tb, experiments.ScaleCheckpoint(ranks, drives).Traced(rec, "")).Elapsed
}

// BenchmarkEngineScale drives the 4096-rank × 256-drive contended
// pipelined collective and reports how many wall-clock seconds one
// modeled second costs — the engine-scaling headline metric. The
// scenario must stay in single-digit seconds per iteration.
func BenchmarkEngineScale(b *testing.B) {
	var modeled time.Duration
	for i := 0; i < b.N; i++ {
		modeled = runScaleScenario(b, 4096, 256, nil)
	}
	b.ReportMetric(modeled.Seconds(), "modeled_s")
	b.ReportMetric(b.Elapsed().Seconds()/(modeled.Seconds()*float64(b.N)), "wall_s/modeled_s")
}

// BenchmarkTraceOverhead measures what the flight recorder costs on the
// engine-scaling scenario: the detached (nil-recorder, zero-alloc hooks)
// path against a live recorder capturing every layer. The "on" variant
// also reports spans recorded per run; modeled time is identical either
// way — only wall time may differ.
func BenchmarkTraceOverhead(b *testing.B) {
	const ranks, drives = 1024, 64
	b.Run("off", func(b *testing.B) {
		var modeled time.Duration
		for i := 0; i < b.N; i++ {
			modeled = runScaleScenario(b, ranks, drives, nil)
		}
		b.ReportMetric(modeled.Seconds(), "modeled_s")
	})
	b.Run("on", func(b *testing.B) {
		var modeled time.Duration
		var spans int
		for i := 0; i < b.N; i++ {
			rec := probe.New()
			modeled = runScaleScenario(b, ranks, drives, rec)
			spans = len(rec.Spans())
		}
		b.ReportMetric(modeled.Seconds(), "modeled_s")
		b.ReportMetric(float64(spans), "spans")
	})
}

// TestTraceOverheadModeledTimeIdentical pins the overhead benchmark's
// core claim outside the bench harness: tracing the scale scenario does
// not move its modeled clock.
func TestTraceOverheadModeledTimeIdentical(t *testing.T) {
	const ranks, drives = 256, 16
	off := runScaleScenario(t, ranks, drives, nil)
	rec := probe.New()
	on := runScaleScenario(t, ranks, drives, rec)
	if off != on {
		t.Fatalf("recorder moved modeled time: %v off vs %v on", off, on)
	}
	if len(rec.Spans()) == 0 {
		t.Fatal("live recorder captured no spans")
	}
}

// BenchmarkVirtualEngine measures scheduler overhead: processes doing
// nothing but sleeping (events per second).
func BenchmarkVirtualEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := pario.NewEngine()
		for p := 0; p < 8; p++ {
			e.Go("p", func(pr *pario.Proc) {
				for s := 0; s < 100; s++ {
					pr.Sleep(1)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
