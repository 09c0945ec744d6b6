package mpp

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestRanksAndSize(t *testing.T) {
	e := sim.NewEngine()
	seen := make(map[int]bool)
	_, join := Run(e, 4, "w", func(p *Proc) {
		if p.Size() != 4 {
			t.Errorf("Size = %d", p.Size())
		}
		seen[p.Rank()] = true
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("ranks seen: %v", seen)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	e := sim.NewEngine()
	var after []time.Duration
	_, join := Run(e, 3, "w", func(p *Proc) {
		p.Compute(time.Duration(p.Rank()+1) * time.Millisecond)
		p.Barrier()
		after = append(after, p.Now())
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range after {
		if ts != 3*time.Millisecond {
			t.Fatalf("barrier released at %v, want 3ms", ts)
		}
	}
}

func TestReduceSum(t *testing.T) {
	e := sim.NewEngine()
	_, join := Run(e, 4, "w", func(p *Proc) {
		got := p.ReduceSum(float64(p.Rank() + 1))
		if got != 10 {
			t.Errorf("rank %d sum = %v", p.Rank(), got)
		}
		// A second reduction must not see stale values.
		got2 := p.ReduceSum(1)
		if got2 != 4 {
			t.Errorf("rank %d second sum = %v", p.Rank(), got2)
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceMax(t *testing.T) {
	e := sim.NewEngine()
	_, join := Run(e, 5, "w", func(p *Proc) {
		if got := p.ReduceMax(float64(p.Rank())); got != 4 {
			t.Errorf("max = %v", got)
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	e := sim.NewEngine()
	const n = 4
	_, join := Run(e, n, "w", func(p *Proc) {
		// Rank r sends to each dst a payload of r+1 bytes of value
		// 10*r+dst; rank 3 sends nothing (nil row entries).
		send := make([][]byte, n)
		if p.Rank() != 3 {
			for dst := 0; dst < n; dst++ {
				pl := make([]byte, p.Rank()+1)
				for i := range pl {
					pl[i] = byte(10*p.Rank() + dst)
				}
				send[dst] = pl
			}
		}
		recv := p.Alltoallv(send)
		for src := 0; src < n; src++ {
			if src == 3 {
				if recv[src] != nil {
					t.Errorf("rank %d: unexpected payload from silent rank: %v", p.Rank(), recv[src])
				}
				continue
			}
			want := byte(10*src + p.Rank())
			if len(recv[src]) != src+1 {
				t.Errorf("rank %d: payload from %d has %d bytes, want %d", p.Rank(), src, len(recv[src]), src+1)
				continue
			}
			for _, b := range recv[src] {
				if b != want {
					t.Errorf("rank %d: payload from %d = %v, want all %d", p.Rank(), src, recv[src], want)
					break
				}
			}
		}
		// A second exchange must not see stale scratch.
		recv2 := p.Alltoallv(make([][]byte, n))
		for src, pl := range recv2 {
			if pl != nil {
				t.Errorf("rank %d: stale payload from %d: %v", p.Rank(), src, pl)
			}
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvShortSend(t *testing.T) {
	e := sim.NewEngine()
	_, join := Run(e, 3, "w", func(p *Proc) {
		// A send slice shorter than the group (including nil) is legal.
		var send [][]byte
		if p.Rank() == 0 {
			send = [][]byte{nil, {42}} // only to rank 1
		}
		recv := p.Alltoallv(send)
		if p.Rank() == 1 {
			if len(recv[0]) != 1 || recv[0][0] != 42 {
				t.Errorf("rank 1 recv[0] = %v", recv[0])
			}
		} else if recv[0] != nil {
			t.Errorf("rank %d recv[0] = %v, want nil", p.Rank(), recv[0])
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvLinkCost(t *testing.T) {
	// With a link of 1 ms/message + 1000 bytes/s, a 2-rank exchange of
	// 500 bytes each way costs every rank 1 ms + 0.5 s to inject and the
	// same to receive: both ranks finish at exactly 1.002 s.
	e := sim.NewEngine()
	g, join := Run(e, 2, "w", func(p *Proc) {
		pl := make([]byte, 500)
		send := [][]byte{nil, nil}
		send[1-p.Rank()] = pl
		p.Alltoallv(send)
		want := 2 * (time.Millisecond + 500*time.Millisecond)
		if p.Now() != want {
			t.Errorf("rank %d finished at %v, want %v", p.Rank(), p.Now(), want)
		}
	})
	g.SetLink(time.Millisecond, 1000)
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkFreeByDefault(t *testing.T) {
	// Without SetLink, collectives charge no time at all.
	e := sim.NewEngine()
	_, join := Run(e, 2, "w", func(p *Proc) {
		p.Alltoallv([][]byte{make([]byte, 1<<20), make([]byte, 1<<20)})
		if p.Now() != 0 {
			t.Errorf("rank %d: free link advanced clock to %v", p.Rank(), p.Now())
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBisectionContention(t *testing.T) {
	// Shared pool of 1000 B/s; 2 ranks exchange 500 bytes each way →
	// total cross volume 1000 bytes → every rank pays exactly 1 s, on
	// top of nothing else (no per-process model configured).
	e := sim.NewEngine()
	g, join := Run(e, 2, "w", func(p *Proc) {
		pl := make([]byte, 500)
		send := [][]byte{nil, nil}
		send[1-p.Rank()] = pl
		p.Alltoallv(send)
		if want := time.Second; p.Now() != want {
			t.Errorf("rank %d finished at %v, want %v", p.Rank(), p.Now(), want)
		}
	})
	g.SetBisection(1000)
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBisectionScalesWithRanks(t *testing.T) {
	// Fixed pairwise message size, growing group: under the shared model
	// the exchange time grows ~P² (P ranks × (P-1) destinations), where
	// the per-process model would stay ~linear in P. This is the
	// contention signature the model exists to capture.
	elapsed := func(ranks int) time.Duration {
		e := sim.NewEngine()
		g, join := Run(e, ranks, "w", func(p *Proc) {
			send := make([][]byte, ranks)
			for dst := 0; dst < ranks; dst++ {
				send[dst] = make([]byte, 100) // self entry is free
			}
			p.Alltoallv(send)
		})
		g.SetBisection(1e6)
		e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	t2, t4, t8 := elapsed(2), elapsed(4), elapsed(8)
	// Cross volumes: 2·1, 4·3, 8·7 hundred bytes → ratios 6× and 28×.
	if t4 != 6*t2 || t8 != 28*t2 {
		t.Fatalf("bisection scaling: %v, %v, %v (want 1:6:28)", t2, t4, t8)
	}
}

func TestBisectionComposesWithLink(t *testing.T) {
	// Both models on: per-process charges (inject + receive) and the
	// shared-pool charge add up.
	e := sim.NewEngine()
	g, join := Run(e, 2, "w", func(p *Proc) {
		send := [][]byte{nil, nil}
		send[1-p.Rank()] = make([]byte, 500)
		p.Alltoallv(send)
		// Per-process: 2 × (1 ms + 0.5 s); pool: 1000 bytes / 1000 B/s.
		want := 2*(time.Millisecond+500*time.Millisecond) + time.Second
		if p.Now() != want {
			t.Errorf("rank %d finished at %v, want %v", p.Rank(), p.Now(), want)
		}
	})
	g.SetLink(time.Millisecond, 1000)
	g.SetBisection(1000)
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfMessagesNeverCharged(t *testing.T) {
	// A rank sending only to itself crosses no link under either model,
	// in a group of two or alone. The clock must not move at all.
	e := sim.NewEngine()
	g, join := Run(e, 2, "w", func(p *Proc) {
		send := make([][]byte, 2)
		send[p.Rank()] = make([]byte, 1<<20)
		recv := p.Alltoallv(send)
		if len(recv[p.Rank()]) != 1<<20 {
			t.Errorf("rank %d: self payload lost", p.Rank())
		}
		if p.Now() != 0 {
			t.Errorf("rank %d: self-only exchange charged %v", p.Rank(), p.Now())
		}
	})
	g.SetLink(time.Millisecond, 1000)
	g.SetBisection(1000)
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if msgs, bytes := g.Traffic(); msgs != 0 || bytes != 0 {
		t.Fatalf("self-only exchange counted traffic: %d msgs, %d bytes", msgs, bytes)
	}

	e2 := sim.NewEngine()
	g2, join2 := Run(e2, 1, "w", func(p *Proc) {
		recv := p.AlltoallvSparse([]Msg{{Dst: 0, Data: make([]byte, 1<<20)}})
		if len(recv) != 1 || recv[0].Src != 0 || len(recv[0].Data) != 1<<20 {
			t.Error("1-process exchange lost its payload")
		}
		if p.Now() != 0 {
			t.Errorf("1-process exchange charged %v", p.Now())
		}
	})
	g2.SetLink(time.Millisecond, 1000)
	g2.SetBisection(1000)
	e2.Go("join", func(sp *sim.Proc) { join2.Wait(sp) })
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if msgs, bytes := g2.Traffic(); msgs != 0 || bytes != 0 {
		t.Fatalf("1-process exchange counted traffic: %d msgs, %d bytes", msgs, bytes)
	}
}

func TestTrafficAccounting(t *testing.T) {
	// Traffic counts cross-link volume even with no link model set (and
	// charges nothing). 3 ranks: rank 0 sends 10 bytes to each other
	// rank and 99 to itself.
	e := sim.NewEngine()
	g, join := Run(e, 3, "w", func(p *Proc) {
		send := make([][]byte, 3)
		if p.Rank() == 0 {
			send[0] = make([]byte, 99)
			send[1] = make([]byte, 10)
			send[2] = make([]byte, 10)
		}
		p.Alltoallv(send)
		if p.Now() != 0 {
			t.Errorf("rank %d: accounting charged time %v", p.Rank(), p.Now())
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 msgs / 20 bytes: the self-message is not traffic.
	if msgs, bytes := g.Traffic(); msgs != 2 || bytes != 20 {
		t.Fatalf("Traffic() = %d msgs, %d bytes, want 2, 20", msgs, bytes)
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	e := sim.NewEngine()
	_, join := Run(e, 1, "w", func(p *Proc) {
		p.Compute(7 * time.Millisecond)
		if p.Now() != 7*time.Millisecond {
			t.Errorf("Now = %v", p.Now())
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeMatchesAlltoallv: a chunked exchange must cost the same
// modeled time, count the same traffic, and deliver the same bytes as
// the equivalent single Alltoallv, for every link configuration. This is
// the "no re-charged setup" guarantee the pipelined collective relies
// on: splitting the exchange into rounds may only move time around, not
// add any.
func TestExchangeMatchesAlltoallv(t *testing.T) {
	const ranks = 4
	const payload = 900 // per pair; splits into 3 rounds of 300
	configure := []struct {
		name string
		cfg  func(*Group)
	}{
		{"free", func(*Group) {}},
		{"link", func(g *Group) { g.SetLink(time.Millisecond, 1e5) }},
		{"bisection", func(g *Group) { g.SetBisection(1e5) }},
		{"composed", func(g *Group) {
			g.SetLink(time.Millisecond, 1e5)
			g.SetBisection(1e5)
		}},
	}
	fill := func(src, dst int) []byte {
		pl := make([]byte, payload)
		for i := range pl {
			pl[i] = byte(7*src + 3*dst + i)
		}
		return pl
	}
	run := func(cfg func(*Group), chunked bool) (time.Duration, int64, int64) {
		e := sim.NewEngine()
		g, join := Run(e, ranks, "x", func(p *Proc) {
			got := make([][]byte, ranks)
			for i := range got {
				got[i] = []byte{}
			}
			if chunked {
				ex := p.NewExchange()
				const rounds = 3
				for k := 0; k < rounds; k++ {
					send := make([][]byte, ranks)
					for dst := 0; dst < ranks; dst++ {
						whole := fill(p.Rank(), dst)
						send[dst] = whole[k*payload/rounds : (k+1)*payload/rounds]
					}
					recv := ex.Round(send)
					for src := range recv {
						got[src] = append(got[src], recv[src]...)
					}
				}
			} else {
				send := make([][]byte, ranks)
				for dst := 0; dst < ranks; dst++ {
					send[dst] = fill(p.Rank(), dst)
				}
				recv := p.Alltoallv(send)
				for src := range recv {
					got[src] = append(got[src], recv[src]...)
				}
			}
			for src := range got {
				want := fill(src, p.Rank())
				if len(got[src]) != len(want) {
					t.Errorf("rank %d: %d bytes from %d, want %d", p.Rank(), len(got[src]), src, len(want))
					continue
				}
				for i := range want {
					if got[src][i] != want[i] {
						t.Errorf("rank %d: byte %d from %d corrupted", p.Rank(), i, src)
						break
					}
				}
			}
		})
		cfg(g)
		e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		msgs, bytes := g.Traffic()
		return e.Now(), msgs, bytes
	}
	for _, tc := range configure {
		t.Run(tc.name, func(t *testing.T) {
			oneTime, oneMsgs, oneBytes := run(tc.cfg, false)
			chTime, chMsgs, chBytes := run(tc.cfg, true)
			if chTime != oneTime {
				t.Errorf("chunked exchange took %v, single Alltoallv %v", chTime, oneTime)
			}
			if chMsgs != oneMsgs || chBytes != oneBytes {
				t.Errorf("chunked traffic %d msgs / %d bytes, single %d / %d",
					chMsgs, chBytes, oneMsgs, oneBytes)
			}
		})
	}
}

// TestExchangeSetupChargedOncePerHandle: a fresh Exchange handle
// re-charges per-pair setup; rounds within one handle do not.
func TestExchangeSetupChargedOncePerHandle(t *testing.T) {
	elapsed := func(handles, roundsPer int) time.Duration {
		e := sim.NewEngine()
		g, join := Run(e, 2, "x", func(p *Proc) {
			for h := 0; h < handles; h++ {
				ex := p.NewExchange()
				for k := 0; k < roundsPer; k++ {
					send := make([][]byte, 2)
					send[1-p.Rank()] = make([]byte, 10)
					ex.Round(send)
				}
			}
		})
		g.SetLink(time.Millisecond, 0) // setup cost only, bytes free
		e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	// 1 handle × 4 rounds: one setup (1 ms inject + 1 ms receive).
	if got, want := elapsed(1, 4), 2*time.Millisecond; got != want {
		t.Errorf("1 handle × 4 rounds = %v, want %v", got, want)
	}
	// 4 handles × 1 round: four setups.
	if got, want := elapsed(4, 1), 8*time.Millisecond; got != want {
		t.Errorf("4 handles × 1 round = %v, want %v", got, want)
	}
}

// TestSharedPoolSerializes: two groups sharing one Bisection pool and
// exchanging concurrently must drain in sequence — the pool serves
// volA+volB in (volA+volB)/BW, not in max(volA,volB)/BW as two private
// pools would.
func TestSharedPoolSerializes(t *testing.T) {
	const bw = 1000.0
	const volA, volB = 1000, 3000 // cross bytes per group's exchange
	run := func(shared bool) time.Duration {
		e := sim.NewEngine()
		mk := func(name string, vol int) (*Group, *sim.Group) {
			return Run(e, 2, name, func(p *Proc) {
				send := make([][]byte, 2)
				send[1-p.Rank()] = make([]byte, vol/2)
				p.Alltoallv(send)
			})
		}
		ga, ja := mk("a", volA)
		gb, jb := mk("b", volB)
		if shared {
			pool := NewBisection(bw)
			ga.SetBisectionPool(pool)
			gb.SetBisectionPool(pool)
		} else {
			ga.SetBisection(bw)
			gb.SetBisection(bw)
		}
		e.Go("join", func(sp *sim.Proc) { ja.Wait(sp); jb.Wait(sp) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	sharedTime := run(true)
	if want := time.Duration(float64(volA+volB) / bw * float64(time.Second)); sharedTime != want {
		t.Errorf("shared pool drained at %v, want serialized %v", sharedTime, want)
	}
	privateTime := run(false)
	if want := time.Duration(float64(volB) / bw * float64(time.Second)); privateTime != want {
		t.Errorf("private pools drained at %v, want %v", privateTime, want)
	}
}
