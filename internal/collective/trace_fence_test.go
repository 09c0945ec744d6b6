package collective

import (
	"bytes"
	"testing"

	"repro/internal/probe"
)

// TestTraceDeterminism512 is the fence for the flight recorder itself:
// the 512-rank contended pipelined scenario, run twice on fresh engines
// with a recorder attached across every layer, must export byte-identical
// Chrome trace JSON and byte-identical metrics tables. Any wall-clock
// leakage into span timestamps, map-iteration ordering on the export
// path, or nondeterministic track/span registration order breaks this.
// The CI race job runs this package, so the same fence also holds under
// -race.
func TestTraceDeterminism512(t *testing.T) {
	const nRanks = 512
	run := func() ([]byte, []byte, detResult) {
		rec := probe.New()
		res := runDeterminismScenario(t, nRanks, detOpts, rec)
		var trace bytes.Buffer
		if err := probe.WriteChromeTrace(&trace, rec); err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), []byte(rec.Metrics().Table().String()), res
	}
	trA, mA, a := run()
	trB, mB, _ := run()
	if a.writeErr != nil || a.readErr != nil {
		t.Fatalf("collective failed: write=%v read=%v", a.writeErr, a.readErr)
	}
	if len(trA) == 0 || !bytes.Contains(trA, []byte(`"cat":"collective"`)) {
		t.Fatalf("trace missing collective spans (%d bytes)", len(trA))
	}
	if !bytes.Equal(trA, trB) {
		t.Errorf("exported traces differ between runs (%d vs %d bytes)", len(trA), len(trB))
	}
	if !bytes.Equal(mA, mB) {
		t.Errorf("metrics tables differ between runs:\n--- run A\n%s--- run B\n%s", mA, mB)
	}

	// Recording must not perturb the model: the same scenario without a
	// recorder lands on the same modeled observables.
	bare := runDeterminismScenario(t, nRanks, detOpts, nil)
	if a.now != bare.now {
		t.Errorf("recorder changed modeled time: %v traced vs %v bare", a.now, bare.now)
	}
	if a.stats != bare.stats {
		t.Errorf("recorder changed LastStats:\n  traced %+v\n  bare   %+v", a.stats, bare.stats)
	}
	if a.msgs != bare.msgs || a.bytes != bare.bytes {
		t.Errorf("recorder changed Traffic: (%d, %d) traced vs (%d, %d) bare",
			a.msgs, a.bytes, bare.msgs, bare.bytes)
	}

	// Round-trip sanity: the exported trace parses back and re-exports
	// byte-identically (parioctl trace depends on this).
	parsed, err := probe.ReadChromeTrace(bytes.NewReader(trA))
	if err != nil {
		t.Fatalf("ReadChromeTrace: %v", err)
	}
	var re bytes.Buffer
	if err := probe.WriteChromeTrace(&re, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), trA) {
		t.Error("trace does not survive a parse/re-export round trip")
	}
}
