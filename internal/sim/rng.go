package sim

import "math"

// RNG is a small, explicitly-seeded pseudorandom generator
// (splitmix64-based) used by workload generators and failure injection.
// It exists so simulations are reproducible across Go releases: unlike
// math/rand's default source, its sequence is fixed by this package.
type RNG struct {
	state uint64
}

// NewRNG returns a generator for the given seed. Distinct seeds give
// independent-looking streams; the zero seed is remapped so the state is
// never zero.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with mean 1,
// suitable for inter-failure times (scale by MTBF).
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Zipf draws from a Zipf-like distribution over [0, n) with skew s >= 0
// (s = 0 is uniform; larger s concentrates mass on low ranks). It uses
// the classical inverse-CDF over precomputed harmonic weights; build one
// with NewZipf to amortize the table.
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf precomputes a Zipf sampler of n ranks with exponent s.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf}
}

// Next draws a rank in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
