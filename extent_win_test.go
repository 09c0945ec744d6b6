// Extent-I/O acceptance: a sequential whole-file read issued through the
// extent path must cut device requests by the coalescing factor and
// improve modeled (virtual-time) throughput. These are the ISSUE 1
// acceptance numbers, enforced as a test so they cannot regress.
package pario_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	pario "repro"
)

// scanResult is one measured sequential whole-file scan.
type scanResult struct {
	requests int64         // device requests during the read
	elapsed  time.Duration // virtual time of the read
	bytes    int64
}

// runStreamScan writes a striped S file of `records` 4 KiB records over
// 4 drives (stripe unit `unit` fs blocks) through the stream writer and
// reads it back sequentially through the stream reader with the given
// extent size, checking every record, and returns the read-phase device
// stats. (The extent and noncontig registry rows scan the same layouts
// through a bare blockio.Set; this is the access-method path above it.)
func runStreamScan(tb testing.TB, unit, records int64, extent int) scanResult {
	tb.Helper()
	m := pario.NewMachine(4)
	f, err := m.Volume.Create(pario.Spec{
		Name: "scan", Org: pario.OrgSequential,
		RecordSize: 4096, BlockRecords: 1, NumRecords: records,
		Placement: pario.PlaceStriped, StripeUnitFS: unit,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var res scanResult
	m.Go("scan", func(p *pario.Proc) {
		w, err := pario.OpenWriter(f, pario.Options{NBufs: 2, IOProcs: 1, ExtentBlocks: 8})
		if err != nil {
			tb.Error(err)
			return
		}
		rec := make([]byte, 4096)
		for r := int64(0); r < records; r++ {
			rec[0] = byte(r)
			if _, err := w.WriteRecord(p, rec); err != nil {
				tb.Error(err)
				return
			}
		}
		if err := w.Close(p); err != nil {
			tb.Error(err)
			return
		}
		for _, d := range m.Disks {
			d.ResetStats()
		}
		start := p.Now()
		r, err := pario.OpenReader(f, pario.Options{NBufs: 2, IOProcs: 1, ExtentBlocks: extent})
		if err != nil {
			tb.Error(err)
			return
		}
		for i := int64(0); ; i++ {
			data, rec, err := r.ReadRecord(p)
			if err == io.EOF {
				break
			}
			if err != nil {
				tb.Error(err)
				return
			}
			if rec != i || data[0] != byte(i) {
				tb.Errorf("record %d: got index %d first byte %d", i, rec, data[0])
				return
			}
		}
		if err := r.Close(p); err != nil {
			tb.Error(err)
			return
		}
		res.elapsed = p.Now() - start
	})
	if err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	for _, d := range m.Disks {
		res.requests += d.Stats().Requests()
	}
	res.bytes = records * 4096
	return res
}

// TestExtentCoalescingWin enforces the acceptance criteria: on a
// sequential whole-file read of 1024 blocks per device (S organization,
// striped layout, extent 8), device requests drop ≥ 4× versus the
// per-block path and modeled throughput improves ≥ 1.5×.
func TestExtentCoalescingWin(t *testing.T) {
	const records = 4096 // 4096 blocks = 1024 per device
	perBlock := runStreamScan(t, 8, records, 1)
	extent := runStreamScan(t, 8, records, 8)
	if perBlock.requests == 0 || extent.requests == 0 {
		t.Fatalf("no requests measured: %+v %+v", perBlock, extent)
	}
	reqRatio := float64(perBlock.requests) / float64(extent.requests)
	tpRatio := perBlock.elapsed.Seconds() / extent.elapsed.Seconds()
	t.Logf("requests %d -> %d (%.1fx), elapsed %v -> %v (throughput %.2fx)",
		perBlock.requests, extent.requests, reqRatio, perBlock.elapsed, extent.elapsed, tpRatio)
	if reqRatio < 4 {
		t.Errorf("request reduction %.2fx < 4x", reqRatio)
	}
	if tpRatio < 1.5 {
		t.Errorf("throughput improvement %.2fx < 1.5x", tpRatio)
	}
}

// BenchmarkExtentCoalescing compares 1-block and extent transfers on the
// sequential striped scan, reporting modeled MB/s and device requests so
// the coalescing win lands in the benchmark trajectory.
func BenchmarkExtentCoalescing(b *testing.B) {
	for _, extent := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("extent%d", extent), func(b *testing.B) {
			var res scanResult
			for i := 0; i < b.N; i++ {
				res = runStreamScan(b, 8, 4096, extent)
			}
			b.ReportMetric(float64(res.bytes)/1e6/res.elapsed.Seconds(), "vMB/s")
			b.ReportMetric(float64(res.requests), "requests")
		})
	}
}
