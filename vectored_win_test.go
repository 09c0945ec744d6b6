// Vectored-I/O acceptance: a sequential scan of a unit-1 declustered
// file — the layout the extent path cannot coalesce, because physically
// adjacent blocks are logically strided — must cut device requests and
// improve modeled throughput once the scan goes through the
// scatter/gather descriptor. These are the ISSUE 2 acceptance numbers,
// enforced as a test so they cannot regress.
package pario_test

import (
	"fmt"
	"testing"
)

// runVectoredScan is runStreamScan on a unit-1 declustered file: with
// StripeUnitFS 1, logically consecutive blocks alternate devices, so each
// extent's per-device blocks form one physically contiguous gather run:
// the vectored path issues one request per device per extent, where the
// per-block path (extent 1) issues one per block.
func runVectoredScan(tb testing.TB, records int64, extent int) scanResult {
	tb.Helper()
	return runStreamScan(tb, 1, records, extent)
}

// TestVectoredCoalescingWin enforces the acceptance criteria on a
// sequential read of a unit-1 declustered file (4096 blocks, 1024 per
// device, 4 devices): the vectored path must beat the per-block path by
// ≥4× in device requests and ≥1.5× in modeled throughput, and already
// at ExtentBlocks 8 — one gather run per device per extent — it must
// halve the request count. (With 4 devices an extent of E blocks bounds
// the reduction at E/4, so the ≥4× bar is enforced at extent 32; extent
// 8's exact bound of 2× is enforced alongside it.)
func TestVectoredCoalescingWin(t *testing.T) {
	const records = 4096 // 4096 fs blocks = 1024 per device
	perBlock := runVectoredScan(t, records, 1)
	ext8 := runVectoredScan(t, records, 8)
	ext32 := runVectoredScan(t, records, 32)
	if perBlock.requests == 0 || ext8.requests == 0 || ext32.requests == 0 {
		t.Fatalf("no requests measured: %+v %+v %+v", perBlock, ext8, ext32)
	}
	req8 := float64(perBlock.requests) / float64(ext8.requests)
	req32 := float64(perBlock.requests) / float64(ext32.requests)
	tp8 := perBlock.elapsed.Seconds() / ext8.elapsed.Seconds()
	tp32 := perBlock.elapsed.Seconds() / ext32.elapsed.Seconds()
	t.Logf("requests %d -> %d (ext8, %.1fx) -> %d (ext32, %.1fx)",
		perBlock.requests, ext8.requests, req8, ext32.requests, req32)
	t.Logf("elapsed %v -> %v (ext8, throughput %.2fx) -> %v (ext32, %.2fx)",
		perBlock.elapsed, ext8.elapsed, tp8, ext32.elapsed, tp32)
	if req8 < 1.9 {
		t.Errorf("extent-8 request reduction %.2fx < 1.9x", req8)
	}
	if tp8 < 1.5 {
		t.Errorf("extent-8 throughput improvement %.2fx < 1.5x", tp8)
	}
	if req32 < 4 {
		t.Errorf("extent-32 request reduction %.2fx < 4x", req32)
	}
	if tp32 < 1.5 {
		t.Errorf("extent-32 throughput improvement %.2fx < 1.5x", tp32)
	}
}

// BenchmarkVectoredScan tracks the declustered-scan trajectory: modeled
// MB/s and device requests for the per-block and vectored paths.
func BenchmarkVectoredScan(b *testing.B) {
	for _, extent := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("extent%d", extent), func(b *testing.B) {
			var res scanResult
			for i := 0; i < b.N; i++ {
				res = runVectoredScan(b, 4096, extent)
			}
			b.ReportMetric(float64(res.bytes)/1e6/res.elapsed.Seconds(), "vMB/s")
			b.ReportMetric(float64(res.requests), "requests")
		})
	}
}
