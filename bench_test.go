// Benchmark harness: one sub-benchmark per reproduced figure/table (the
// rows live in internal/experiments; tables print via cmd/pariobench)
// plus microbenchmarks of the core access paths. The registry benches
// report the headline metrics of their table via b.ReportMetric so the
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

// BenchmarkRegistry regenerates the paper's figure and tables, one
// sub-benchmark per registry row (f1, e1–e11), and reports each row's
// headline metrics.
func BenchmarkRegistry(b *testing.B) {
	for _, row := range []struct {
		id     string
		report []string
	}{
		{"f1", nil},
		{"e1", []string{"read_speedup_d4", "read_speedup_d16", "read_mbps_d16"}},
		{"e2", []string{"speedup_c0ms", "speedup_c10ms"}},
		{"e3", []string{"fast_proc_slowdown"}},
		{"e4", []string{"mbps_d16_contiguous", "mbps_d1_contiguous"}},
		{"e5", []string{"s_d4_zipf(2.0)_whole", "s_d4_zipf(2.0)_declustered"}},
		{"e6", nil},
		{"e7", nil},
		{"e8", []string{"mtbf_h_n10", "mtbf_h_n100"}},
		{"e9", []string{"alt_four_s", "copy_four_s"}},
		{"e10", []string{"rep_four_h8_s", "cache_four_h8_s"}},
		{"e11", []string{"files_p64_f4"}},
	} {
		b.Run(row.id, func(b *testing.B) {
			var res *experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = experiments.Run(row.id, nil); err != nil {
					b.Fatal(err)
				}
			}
			for _, key := range row.report {
				v, ok := res.Metrics[key]
				if !ok {
					b.Fatalf("%s reports no metric %s", row.id, key)
				}
				b.ReportMetric(v, key)
			}
		})
	}
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

// BenchmarkVirtualEngine measures scheduler overhead and reports it as
// host ns per event (one event is one process resumed): "sleep" is eight
// processes doing nothing but sleeping, "pingpong" two that park and
// wake each other, every event a switch from one process to the other.
func BenchmarkVirtualEngine(b *testing.B) {
	run := func(b *testing.B, events int, build func(e *pario.Engine)) {
		for i := 0; i < b.N; i++ {
			e := pario.NewEngine()
			build(e)
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	}
	b.Run("sleep", func(b *testing.B) {
		const procs, sleeps = 8, 100
		run(b, procs*(sleeps+1), func(e *pario.Engine) {
			for p := 0; p < procs; p++ {
				e.Go("p", func(pr *pario.Proc) {
					for s := 0; s < sleeps; s++ {
						pr.Sleep(1)
					}
				})
			}
		})
	})
	b.Run("pingpong", func(b *testing.B) {
		const rounds = 400
		run(b, 2*(rounds+1), func(e *pario.Engine) {
			var ping *pario.Proc
			pong := e.Go("pong", func(p *pario.Proc) {
				for r := 0; r < rounds; r++ {
					p.Park()
					e.Wake(ping)
				}
			})
			ping = e.Go("ping", func(p *pario.Proc) {
				for r := 0; r < rounds; r++ {
					e.Wake(pong)
					p.Park()
				}
			})
		})
	})
}
