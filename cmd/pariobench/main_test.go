package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runOut runs the CLI's run function and returns what it printed.
func runOut(t *testing.T, list bool, id string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(list, id, "", false, &out); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return out.String()
}

func TestListShowsAllExperiments(t *testing.T) {
	s := runOut(t, true, "all")
	for _, id := range experiments.IDs() {
		if !strings.Contains(s, id+" ") {
			t.Fatalf("list missing %s:\n%s", id, s)
		}
	}
}

// TestReadmeListsEveryID: README.md's experiment table has a row for
// every id -list prints.
func TestReadmeListsEveryID(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range experiments.IDs() {
		if !bytes.Contains(readme, []byte("| `"+id+"` |")) {
			t.Errorf("README.md's experiment table has no row for `%s`", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if s := runOut(t, false, "f1"); !strings.Contains(s, "Figure 1") {
		t.Fatalf("f1 output:\n%s", s)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(false, "zzz", "", false, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// mechanismRows are the rows pariosim printed before it joined the table,
// each with a phrase of its table's title.
var mechanismRows = map[string]string{
	"seek": "Seek curve", "service": "service time", "stripe": "striped scan",
	"extent": "Extent coalescing", "noncontig": "Vectored I/O", "collective": "Collective I/O",
	"strategy": "Strategy selection", "contended": "Contention-aware", "pipeline": "Pipelined collective",
	"replay": "Plan capture & replay", "profile": "Cross-layer profiles",
	"multijob": "Multi-job I/O service", "scale": "Engine scaling",
	"cache": "Direct-access buffer pool",
}

func TestScenarios(t *testing.T) {
	for id, title := range mechanismRows {
		if s := runOut(t, false, id); !strings.Contains(s, title) {
			t.Fatalf("-run %s does not print %q:\n%s", id, title, s)
		}
	}
}

func TestAllScenario(t *testing.T) {
	s := runOut(t, false, "all")
	for id, title := range mechanismRows {
		if !strings.Contains(s, "== "+id+": ") || !strings.Contains(s, title) {
			t.Fatalf("-run all misses row %s (%q)", id, title)
		}
	}
	if !strings.Contains(s, "\npaper ") || !strings.Contains(s, "\ntuned ") {
		t.Fatalf("the profile row does not print both profiles")
	}
}

func TestSeekTableMonotone(t *testing.T) {
	// The longest seek row (899 cylinders) must appear.
	if s := runOut(t, false, "seek"); !strings.Contains(s, "899") {
		t.Fatalf("full-stroke row missing:\n%s", s)
	}
}

func TestUnknownScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run(false, "wat", "", false, &out); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestTraceAndMetrics: -trace writes a trace file parioctl can read and
// -metrics prints the recorder's tables, for a mechanism row and for one
// of the paper's.
func TestTraceAndMetrics(t *testing.T) {
	for _, id := range []string{"collective", "e3"} {
		path := filepath.Join(t.TempDir(), "trace.json")
		var out bytes.Buffer
		if err := run(false, id, path, true, &out); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("-run %s -trace wrote no trace: %v", id, err)
		}
		for _, want := range []string{"wrote ", "sim.dispatches", "dev/d0"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("-run %s -trace -metrics output misses %q:\n%s", id, want, out.String())
			}
		}
	}
}
