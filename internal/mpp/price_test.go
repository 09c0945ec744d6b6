package mpp

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRoundPriceIsWhatTheExchangeCharges: RoundPrice prices a chunked
// exchange with the code that charges one, so what it says a round costs
// must be what the round then takes, to the nanosecond: seeded message
// sets, every interconnect model (link alone, pool alone, both), one
// round and several, equal rounds and rounds that carry unequal shares of
// every message, every rank entering together.
func TestRoundPriceIsWhatTheExchangeCharges(t *testing.T) {
	for _, unequal := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			checkRoundPrice(t, seed, unequal)
		}
	}
}

// checkRoundPrice runs one seeded exchange and compares every round with
// its price. Round k carries parts[k] of every whole (the parts' sum)
// bytes of each message: all one when equal.
func checkRoundPrice(t *testing.T, seed int64, unequal bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ranks, rounds := 2+rng.Intn(7), 1+rng.Intn(4)
	parts, whole := make([]int, rounds), 0
	for k := range parts {
		parts[k] = 1
		if unequal {
			parts[k] = 1 + rng.Intn(9)
		}
		whole += parts[k]
	}
	// bytes[src][dst] a part; round k carries parts[k] times that.
	bytes := make([][]int, ranks)
	for src := range bytes {
		bytes[src] = make([]int, ranks)
		for dst := range bytes[src] {
			if rng.Intn(3) > 0 {
				bytes[src][dst] = 1 + rng.Intn(5000)
			}
		}
	}
	e := sim.NewEngine()
	priced := make([]time.Duration, rounds)
	took := make([]time.Duration, rounds)
	g, join := Run(e, ranks, "x", func(p *Proc) {
		r := p.Rank()
		if r == 0 {
			var rp RoundPrice
			rp.Reset(p)
			for src := range bytes {
				for dst, n := range bytes[src] {
					rp.Msg(src, dst, int64(n*whole))
				}
			}
			for k, part := range parts {
				priced[k] = rp.Price(int64(part), int64(whole), k == 0)
			}
		}
		ex := p.NewSparseExchange()
		for k := 0; k < rounds; k++ {
			var send []Msg
			for dst, n := range bytes[r] {
				if n > 0 {
					send = append(send, Msg{Dst: dst, Data: make([]byte, n*parts[k])})
				}
			}
			p.Barrier()
			t0 := p.Now()
			p.RecycleRecv(ex.Round(send))
			took[k] = p.Now() - t0
		}
	})
	if seed%3 != 0 {
		g.SetLink(time.Duration(rng.Intn(50))*time.Microsecond, float64(1+rng.Intn(100))*1e6)
	}
	if seed%3 != 1 {
		g.SetBisection(float64(1+rng.Intn(50)) * 1e6)
	}
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for k, d := range took {
		if d != priced[k] {
			t.Errorf("seed %d (%d ranks, parts %v): round %d took %v, priced %v", seed, ranks, parts, k, d, priced[k])
		}
	}
}
