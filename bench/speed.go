package main

import "time"

// The host this benchmark runs on changes its core clock under it. On the
// build VM (2 vCPUs of a shared Xeon) a loop that touches nothing but
// registers takes 0.95 ns per step for some seconds and 1.21 ns for the
// next, in 100 MHz turbo steps, as neighbours come and go; every workload's
// wall time moves with it, by up to 27 %, and which state fills a run is
// luck. So every wall-clock figure is scaled by the core clock measured
// beside it: spin is the measurement, a dependent multiply-add chain whose
// time is a fixed number of core cycles. It touches no memory, so unlike a
// copy loop it leaves the caches to the program.
//
// Host times are therefore "ms on a core that does one spin step per
// nanosecond" (refSpin), not ms on this host; host.speed reports the
// factor. What the scaling cannot remove — memory-bound stretches slow down
// by less than the core clock does, and time the hypervisor takes away —
// is what the medians are for.
const (
	spinSteps = 50_000
	refSpin   = spinSteps * time.Nanosecond
	// spinEvery is the least host time between two spins of a run's timed
	// phase: each costs about 50 µs, so well under 2 % of it.
	spinEvery = 4 * time.Millisecond
	// spinWindow spins on either side of a time stamp vote on its clock;
	// the clock changes seconds apart, a spin is disturbed now and then.
	spinWindow = 4
)

var spinSink uint64

// spin returns the calibration loop's time in nanoseconds.
//
//go:noinline
func spin() float64 {
	t0 := time.Now()
	x := spinSink | 1
	for i := 0; i < spinSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
	return float64(time.Since(t0))
}

// speedOf is the factor that scales a wall time to the reference core:
// below 1 when the host is slower than it.
func speedOf(spins []float64) float64 { return float64(refSpin) / median(spins) }

// timeScaled times fn and scales the result by the core clock measured
// right before and right after it.
func timeScaled(fn func()) time.Duration {
	spins := []float64{spin(), spin(), spin()}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	spins = append(spins, spin(), spin(), spin())
	return time.Duration(float64(d) * speedOf(spins))
}
