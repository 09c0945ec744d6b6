package stats

import (
	"testing"
	"time"
)

// Edge cases of the nearest-rank quantile estimator that the main tests
// skip over.

func TestSampleQuantileEmpty(t *testing.T) {
	var s Sample
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if got := s.QuantileDur(0.5); got != 0 {
		t.Fatalf("empty QuantileDur = %v, want 0", got)
	}
	if s.N() != 0 {
		t.Fatalf("empty N = %d", s.N())
	}
}

func TestSampleAddAfterQuantileResorts(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	if got := s.Quantile(1); got != 5 { // forces the lazy sort
		t.Fatalf("max of {1,5} = %v", got)
	}
	// Adds after a Quantile must invalidate the sorted order: a smaller
	// and a larger value both land in the right rank positions.
	s.Add(0)
	s.Add(9)
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("min after re-add = %v, want 0", got)
	}
	if got := s.Quantile(1); got != 9 {
		t.Fatalf("max after re-add = %v, want 9", got)
	}
	if got := s.Quantile(0.5); got != 1 { // rank ceil(0.5*4)=2 of {0,1,5,9}
		t.Fatalf("p50 after re-add = %v, want 1", got)
	}
}

func TestSampleNearestRankBoundaries(t *testing.T) {
	var s Sample
	for _, v := range []float64{10, 20, 30, 40} {
		s.Add(v)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{-0.5, 10}, // clamped below
		{0, 10},    // q=0: the minimum
		{0.25, 10}, // rank ceil(1) = 1st
		{0.26, 20}, // rank ceil(1.04) = 2nd
		{0.75, 30},
		{1, 40},   // q=1: the maximum
		{1.5, 40}, // clamped above
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleSingleObservation(t *testing.T) {
	var s Sample
	s.AddDuration(3 * time.Second)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 3 {
			t.Fatalf("N=1 Quantile(%v) = %v, want 3", q, got)
		}
	}
	if got := s.QuantileDur(0.5); got != 3*time.Second {
		t.Fatalf("N=1 QuantileDur = %v", got)
	}
}
