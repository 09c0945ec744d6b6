package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// TestQuickIndependentSleepsEndAtMax is the engine's core timing
// property: independent processes that only sleep finish at the maximum
// of their cumulative sleep totals.
func TestQuickIndependentSleepsEndAtMax(t *testing.T) {
	check := func(durs [][3]uint16) bool {
		if len(durs) == 0 || len(durs) > 12 {
			return true
		}
		e := NewEngine()
		var want time.Duration
		for _, trio := range durs {
			var total time.Duration
			ds := trio
			for _, d := range ds {
				total += time.Duration(d) * time.Microsecond
			}
			if total > want {
				want = total
			}
			e.Go("p", func(p *Proc) {
				for _, d := range ds {
					p.Sleep(time.Duration(d) * time.Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBarrierRounds checks that k barrier phases of staggered
// sleepers cost the sum of per-phase maxima.
func TestQuickBarrierRounds(t *testing.T) {
	check := func(matrix [3][4]uint8) bool {
		const procs = 3
		phases := 4
		e := NewEngine()
		b := NewBarrier(procs)
		var want time.Duration
		for ph := 0; ph < phases; ph++ {
			var max time.Duration
			for pr := 0; pr < procs; pr++ {
				d := time.Duration(matrix[pr][ph]) * time.Microsecond
				if d > max {
					max = d
				}
			}
			want += max
		}
		for pr := 0; pr < procs; pr++ {
			row := matrix[pr]
			e.Go("p", func(p *Proc) {
				for ph := 0; ph < phases; ph++ {
					p.Sleep(time.Duration(row[ph]) * time.Microsecond)
					b.Wait(p)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
