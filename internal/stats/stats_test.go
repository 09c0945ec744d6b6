package stats

import (
	"strings"
	"testing"
	"time"
)

func TestMBps(t *testing.T) {
	if got := MBps(1e6, time.Second); got != 1 {
		t.Fatalf("MBps = %v", got)
	}
	if got := MBps(100, 0); got != 0 {
		t.Fatalf("zero duration MBps = %v", got)
	}
	if got := MBps(3e6, 2*time.Second); got != 1.5 {
		t.Fatalf("MBps = %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(4*time.Second, 2*time.Second); got != 2 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := Speedup(time.Second, 0); got != 0 {
		t.Fatalf("Speedup by zero = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1: demo", "devices", "MB/s", "time")
	tb.AddRow(1, 1.5, 1500*time.Millisecond)
	tb.AddRow(16, 23.456789, 90*time.Millisecond)
	tb.Note = "shape only"
	s := tb.String()
	for _, want := range []string{"T1: demo", "devices", "MB/s", "1.5", "23.5", "1.500s", "90.00ms", "note: shape only", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	if tb.rows[0][0] != "1" {
		t.Fatalf("cell (0,0) = %q", tb.rows[0][0])
	}
}

func TestTableDurationFormats(t *testing.T) {
	tb := NewTable("", "d")
	tb.AddRow(2 * time.Hour)
	tb.AddRow(90 * time.Microsecond)
	s := tb.String()
	if !strings.Contains(s, "2.0h") || !strings.Contains(s, "90µs") {
		t.Fatalf("duration formats wrong:\n%s", s)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	// Insert out of order; quantiles must see the sorted view.
	for _, x := range []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10} {
		s.Add(x)
	}
	if s.N() != 10 {
		t.Fatalf("N = %d", s.N())
	}
	// Nearest-rank: P50 of 10 obs is the 5th smallest, P99 the 10th.
	if got := s.P50(); got != 5 {
		t.Fatalf("P50 = %v", got)
	}
	if got := s.P95(); got != 10 {
		t.Fatalf("P95 = %v", got)
	}
	if got := s.P99(); got != 10 {
		t.Fatalf("P99 = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v", got)
	}
	if got := s.Max(); got != 10 {
		t.Fatalf("Max = %v", got)
	}
	// Adding after a quantile read re-sorts.
	s.Add(0.5)
	if got := s.Quantile(0); got != 0.5 {
		t.Fatalf("Q0 after re-add = %v", got)
	}
	var d Sample
	d.AddDuration(30 * time.Millisecond)
	d.AddDuration(10 * time.Millisecond)
	if got := d.QuantileDur(1); got != 30*time.Millisecond {
		t.Fatalf("QuantileDur = %v", got)
	}
}
