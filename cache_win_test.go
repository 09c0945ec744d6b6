// Buffer-pool acceptance: the direct-access cache must keep the hot set
// through the Zipf tail (scan-resistant replacement), cut device requests
// against the plain-LRU, synchronous-write-back cache it replaced, and
// turn Options.IOProcs into modeled time (write-behind). These are the
// ISSUE 22 acceptance numbers, enforced as a test so they cannot regress.
// The fixture is the benchmark's GDA phase (experiments.CacheMix, what
// `pariobench -run cache` prints): 16 processes × 512 Zipf(1.1) record
// accesses, 70/30 read/write, through one shared 64-frame handle over a
// 512-block file on 8 tuned drives.
package pario_test

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	pario "repro"
	"repro/internal/experiments"
)

// The same fixture at the parent commit (plain LRU, every dirty victim
// written back inside the miss that evicted it, whatever IOProcs says):
// hit fraction 0.5253, 5446 device requests, 9.184 s modeled.
const parentCacheRequests = 5446

func TestBufferPoolWin(t *testing.T) {
	run := func(ioProcs int) experiments.DirectMixResult {
		t.Helper()
		res, err := experiments.CacheMix(ioProcs).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sync, behind := run(0), run(1)
	t.Logf("IOProcs 0: hit %.3f, %d requests, %v; IOProcs 1: hit %.3f, %d requests, %v",
		sync.Cache.HitRate(), sync.Requests, sync.Elapsed, behind.Cache.HitRate(), behind.Requests, behind.Elapsed)
	if hit := behind.Cache.HitRate(); hit < 0.62 {
		t.Errorf("hit fraction %.3f, want ≥ 0.62 (plain LRU: 0.525)", hit)
	}
	if float64(behind.Requests) > 0.78*parentCacheRequests {
		t.Errorf("%d device requests, want ≤ 0.78× the parent's %d", behind.Requests, parentCacheRequests)
	}
	if gain := 1 - float64(behind.Elapsed)/float64(sync.Elapsed); gain < 0.05 {
		t.Errorf("one I/O process: %v against %v without, a gain of %.1f %%, want ≥ 5 %%", behind.Elapsed, sync.Elapsed, 100*gain)
	}
	// Replacement is not the I/O processes' doing: it must hold without them.
	if hit := sync.Cache.HitRate(); hit < 0.61 {
		t.Errorf("hit fraction %.3f without I/O processes, want ≥ 0.61", hit)
	}
}

// TestBufferPoolTraceDeterministic: cleaners are spawned by evictions and
// retire on their own, so their scheduling must be as repeatable as the
// rest of the engine — two recorded runs export byte-identical traces,
// and recording does not move the modeled time.
func TestBufferPoolTraceDeterministic(t *testing.T) {
	trace := func() ([]byte, experiments.DirectMixResult) {
		t.Helper()
		mix := experiments.CacheMix(1)
		mix.Rec, mix.Scope = pario.NewRecorder(), "cache"
		res, err := mix.Run()
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := pario.WriteChromeTrace(&out, mix.Rec); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), res
	}
	a, resA := trace()
	b, _ := trace()
	// An eviction writes one 4 KiB block, the one-segment descriptor; only
	// the cleaners and Close gather several blocks into one write.
	gathers := 0
	for _, m := range regexp.MustCompile(`"name":"WriteVec"[^}]*"bytes":(\d+)`).FindAllSubmatch(a, -1) {
		if n, _ := strconv.Atoi(string(m[1])); n > 4096 {
			gathers++
		}
	}
	if gathers < 100 {
		t.Fatalf("trace of %d bytes shows %d multi-block writes: the cleaners never ran", len(a), gathers)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("two runs exported different traces (%d and %d bytes)", len(a), len(b))
	}
	bare, err := experiments.CacheMix(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if bare.Elapsed != resA.Elapsed || bare.Requests != resA.Requests {
		t.Errorf("recording moved the run: %v and %d requests traced, %v and %d bare", resA.Elapsed, resA.Requests, bare.Elapsed, bare.Requests)
	}
}
