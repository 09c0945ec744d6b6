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

// TestRunSingleExperiment: -run f1 prints exactly the f1 section of the
// registry's golden file (internal/experiments' TestRegistryGoldens holds
// every row to it), less the section's metric lines and closing blank
// line.
func TestRunSingleExperiment(t *testing.T) {
	golden, err := os.ReadFile("../../internal/experiments/testdata/registry.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if strings.HasPrefix(line, "== e1: ") {
			break
		}
		if !strings.HasPrefix(line, "metric ") {
			want.WriteString(line)
		}
	}
	if got := runOut(t, false, "f1"); got+"\n" != want.String() {
		t.Fatalf("-run f1 printed:\n%s\nthe golden holds:\n%s", got, want.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(false, "zzz", "", false, &out); err == nil || out.Len() > 0 {
		t.Fatalf("unknown experiment: err %v, printed %q", err, out.String())
	}
}

// TestUnknownScenario: the error names the id it did not find and the
// ids it has.
func TestUnknownScenario(t *testing.T) {
	var out bytes.Buffer
	err := run(false, "wat", "", false, &out)
	if err == nil || !strings.Contains(err.Error(), `"wat"`) || !strings.Contains(err.Error(), "cache") {
		t.Fatalf("unknown scenario: err %v", err)
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
