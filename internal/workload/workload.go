// Package workload provides deterministic workload generators for the
// experiment harness: the application patterns the paper's organizations
// were designed for (wrapped matrices, multi-server task queues, skewed
// database access, out-of-core sweeps).
package workload

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Record synthesizes the payload of record rec for stream seed: a
// self-identifying pattern (seed, rec, then a byte fill) so experiments
// can verify data integrity cheaply.
func Record(buf []byte, seed uint64, rec int64) {
	if len(buf) >= 16 {
		binary.BigEndian.PutUint64(buf[0:8], seed)
		binary.BigEndian.PutUint64(buf[8:16], uint64(rec))
	}
	if len(buf) > 16 {
		// One fill byte, then copies that double it: log₂ n memmoves
		// instead of n byte stores.
		fill := buf[16:]
		fill[0] = byte(seed) ^ byte(rec)
		for n := 1; n < len(fill); n *= 2 {
			copy(fill[n:], fill[:n])
		}
	}
}

// CheckRecord verifies a payload produced by Record.
func CheckRecord(buf []byte, seed uint64, rec int64) error {
	if len(buf) >= 16 {
		if got := binary.BigEndian.Uint64(buf[0:8]); got != seed {
			return fmt.Errorf("workload: record %d: seed %d, want %d", rec, got, seed)
		}
		if got := binary.BigEndian.Uint64(buf[8:16]); got != uint64(rec) {
			return fmt.Errorf("workload: record %d: index %d", rec, got)
		}
	}
	fill := byte(seed) ^ byte(rec)
	for i := 16; i < len(buf); i++ {
		if buf[i] != fill {
			return fmt.Errorf("workload: record %d: fill byte %d = %#x, want %#x", rec, i, buf[i], fill)
		}
	}
	return nil
}

// ServiceOf deterministically computes task id's service time, uniform
// in [min, max) for a given seed — the "queue with multiple servers"
// workload that motivates self-scheduled files (§3.1) — so tasks can be
// reconstructed from records read back out of a file.
func ServiceOf(seed uint64, id int64, min, max time.Duration) time.Duration {
	r := sim.NewRNG(seed ^ uint64(id)*0x9e3779b97f4a7c15)
	if max <= min {
		return min
	}
	return min + time.Duration(r.Intn(int(max-min)))
}

// AccessPattern generates record indices for direct-access experiments.
type AccessPattern struct {
	rng  *sim.RNG
	zipf *sim.Zipf
	n    int64
}

// NewUniformAccess draws records uniformly from [0, n).
func NewUniformAccess(seed uint64, n int64) *AccessPattern {
	return &AccessPattern{rng: sim.NewRNG(seed), n: n}
}

// NewZipfAccess draws records Zipf-distributed over [0, n) with skew s
// (Livny et al.'s non-uniform database workload).
func NewZipfAccess(seed uint64, n int64, s float64) *AccessPattern {
	rng := sim.NewRNG(seed)
	return &AccessPattern{rng: rng, zipf: sim.NewZipf(rng, int(n), s), n: n}
}

// Next draws the next record index.
func (a *AccessPattern) Next() int64 {
	if a.zipf != nil {
		return int64(a.zipf.Next())
	}
	return int64(a.rng.Intn(int(a.n)))
}
