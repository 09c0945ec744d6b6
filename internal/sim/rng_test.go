package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/64 times", same)
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestIntnBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, n int) bool {
		if n <= 0 {
			n = -n + 1
		}
		v := NewRNG(seed).Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(NewRNG(5), 10, 0)
	counts := make([]int, 10)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for rank, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.02 {
			t.Fatalf("s=0 rank %d frac %v, want ~0.1", rank, frac)
		}
	}
}

func TestZipfSkewConcentrates(t *testing.T) {
	z := NewZipf(NewRNG(5), 100, 0.99)
	counts := make([]int, 100)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf(0.99) rank0=%d not > rank50=%d", counts[0], counts[50])
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if float64(top10)/n < 0.4 {
		t.Fatalf("Zipf(0.99) top-10 mass %v, want >= 0.4", float64(top10)/n)
	}
}

func TestZipfInRange(t *testing.T) {
	z := NewZipf(NewRNG(9), 7, 1.2)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 7 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}
