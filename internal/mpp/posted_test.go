package mpp

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
)

// postedScn is one chunked exchange: sizes[k][src][dst] bytes move from
// src to dst in round k (0 = no message), under the interconnect
// configure sets up. posted[r] makes rank r hand over all its rounds at
// once instead of taking part in each. With peer set, a second group of
// four ranks runs many short lockstep rounds of its own on the first
// group's pool — a reservation every few microseconds, at instants that
// are never the first group's — so a reservation of the first group made
// at any instant but lockstep's queues behind a different one of theirs.
// sizeOnly, when set, picks the messages that carry only their size
// (Msg.Len) instead of a payload.
type postedScn struct {
	ranks     int
	sizes     [][][]int
	configure func(g *Group)
	peer      bool
	sizeOnly  func(k, src, dst int) bool
}

// postedObs is what a run of the scenario shows: where the clock ended,
// when each rank left the exchange (the peer group's ranks after the
// first group's), the traffic counted, a digest per rank of what it
// received, in (round, source) order, and the first group's mpp spans
// with the bytes each counted, in recording order.
type postedObs struct {
	now       time.Duration
	done      []time.Duration
	msgs      int64
	bytes     int64
	checksums []uint64
	spans     []string
}

func postedPayload(k, src, dst, n int) []byte {
	pl := make([]byte, n)
	for i := range pl {
		pl[i] = byte(11*k + 7*src + 3*dst + i)
	}
	return pl
}

func (scn postedScn) run(t *testing.T, posted []bool) postedObs {
	t.Helper()
	rounds := len(scn.sizes)
	e := sim.NewEngine()
	obs := postedObs{done: make([]time.Duration, scn.ranks), checksums: make([]uint64, scn.ranks)}
	g, join := Run(e, scn.ranks, "x", func(p *Proc) {
		r := p.Rank()
		// Ranks reach the exchange at different times, as they do after
		// unequal work.
		p.Compute(time.Duration(r%3) * 700 * time.Nanosecond)
		ex := p.NewSparseExchange()
		msg := func(k, dst, n int) Msg {
			if scn.sizeOnly != nil && scn.sizeOnly(k, r, dst) {
				return Msg{Dst: dst, Round: k, Len: n}
			}
			return Msg{Dst: dst, Round: k, Data: postedPayload(k, r, dst, n)}
		}
		var got []RecvMsg
		if posted != nil && posted[r] {
			var send []Msg
			for k := 0; k < rounds; k++ {
				for dst, n := range scn.sizes[k][r] {
					if n > 0 {
						send = append(send, msg(k, dst, n))
					}
				}
			}
			recv := ex.Post(send, rounds)
			got = append(got, recv...)
			p.RecycleRecv(recv)
		} else {
			for k := 0; k < rounds; k++ {
				var send []Msg
				for dst, n := range scn.sizes[k][r] {
					if n > 0 {
						send = append(send, msg(k, dst, n))
					}
				}
				recv := ex.Round(send)
				for _, m := range recv {
					if m.Round != k {
						t.Errorf("rank %d round %d: message from %d tagged round %d", r, k, m.Src, m.Round)
					}
				}
				got = append(got, recv...)
				p.RecycleRecv(recv)
			}
		}
		obs.done[r] = p.Now()
		sort.SliceStable(got, func(i, j int) bool {
			if got[i].Round != got[j].Round {
				return got[i].Round < got[j].Round
			}
			return got[i].Src < got[j].Src
		})
		var sum uint64
		for _, m := range got {
			if want := scn.sizes[m.Round][m.Src][r]; size(m.Data, m.Len) != int64(want) {
				t.Errorf("rank %d round %d: %d bytes from %d, want %d", r, m.Round, size(m.Data, m.Len), m.Src, want)
			}
			for _, b := range m.Data {
				sum = sum*31 + uint64(b)
			}
			sum = sum*31 + uint64(m.Src)*64 + uint64(m.Round)
		}
		obs.checksums[r] = sum
	})
	scn.configure(g)
	rec := probe.New()
	g.SetProbe(rec, "x")
	joins := []*sim.Group{join}
	var peerDone []time.Duration
	if scn.peer {
		peerDone = make([]time.Duration, 4)
		g2, join2 := Run(e, 4, "y", func(p *Proc) {
			p.Compute(333 * time.Nanosecond)
			ex := p.NewSparseExchange()
			for k := 0; k < 60*rounds; k++ {
				p.RecycleRecv(ex.Round([]Msg{{Dst: (p.Rank() + 1) % 4, Data: make([]byte, 41+k%7)}}))
			}
			peerDone[p.Rank()] = p.Now()
		})
		g2.SetLink(0, 37e6)
		g2.SetBisectionPool(g.bisection)
		joins = append(joins, join2)
	}
	e.Go("join", func(sp *sim.Proc) {
		for _, j := range joins {
			j.Wait(sp)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	obs.now = e.Now()
	obs.done = append(obs.done, peerDone...)
	obs.msgs, obs.bytes = g.Traffic()
	for _, s := range rec.Spans() {
		obs.spans = append(obs.spans, fmt.Sprintf("%d %s %v-%v %dB", s.Track, s.Name, s.Start, s.End, s.Bytes))
	}
	return obs
}

func diffPostedObs(t *testing.T, label string, lock, post postedObs) {
	t.Helper()
	if lock.now != post.now {
		t.Errorf("%s: Engine.Now() %v in lockstep, %v posted", label, lock.now, post.now)
	}
	if lock.msgs != post.msgs || lock.bytes != post.bytes {
		t.Errorf("%s: Traffic (%d, %d) in lockstep, (%d, %d) posted", label, lock.msgs, lock.bytes, post.msgs, post.bytes)
	}
	for r := range lock.done {
		if lock.done[r] != post.done[r] {
			t.Errorf("%s: rank %d left the exchange at %v in lockstep, %v posted", label, r, lock.done[r], post.done[r])
		}
	}
	for r := range lock.checksums {
		if lock.checksums[r] != post.checksums[r] {
			t.Errorf("%s: rank %d received different bytes", label, r)
		}
	}
}

// TestPostedMatchesLockstep is the posted rounds' guarantee: the same
// payload matrix run with every rank in Round and with a subset posted —
// the ranks that receive nothing (a collective write's compute ranks),
// then the ranks that send nothing (a read's) — ends at the same
// Engine.Now(), frees every rank at the same instant, counts the same
// Traffic and delivers the same bytes, under every interconnect model.
func TestPostedMatchesLockstep(t *testing.T) {
	const ranks, aggs, rounds = 12, 3, 5
	// gather: every rank ships to aggregator r%aggs each round, sizes
	// uneven across ranks and rounds; the aggregators also trade among
	// themselves. Rank 7 has nothing in rounds 1 and 3, rank 10 nothing
	// after round 0 (ragged), rank 11 nothing at all.
	gather := make([][][]int, rounds)
	scatter := make([][][]int, rounds)
	for k := range gather {
		gather[k] = make([][]int, ranks)
		scatter[k] = make([][]int, ranks)
		for r := range gather[k] {
			gather[k][r] = make([]int, ranks)
			scatter[k][r] = make([]int, ranks)
		}
		for r := 0; r < ranks-1; r++ {
			if (r == 7 && k%2 == 1) || (r == 10 && k > 0) {
				continue
			}
			n := 200 + 90*r + 310*k
			gather[k][r][r%aggs] = n // includes the aggregators' self-messages
			scatter[k][r%aggs][r] = n
		}
		for a := 0; a < aggs; a++ {
			gather[k][a][(a+1)%aggs] = 64 * (k + 1)
			scatter[k][a][(a+1)%aggs] = 64 * (k + 1)
		}
	}
	compute := make([]bool, ranks)
	for r := aggs; r < ranks; r++ {
		compute[r] = true
	}
	models := []struct {
		name      string
		configure func(g *Group)
		peer      bool
	}{
		{"free", func(g *Group) {}, false},
		{"link", func(g *Group) { g.SetLink(2*time.Microsecond, 80e6) }, false},
		{"bisection", func(g *Group) { g.SetBisection(300e6) }, false},
		{"link+bisection", func(g *Group) { g.SetLink(2*time.Microsecond, 80e6); g.SetBisection(300e6) }, false},
		{"shared-pool", func(g *Group) { g.SetLink(2*time.Microsecond, 80e6); g.SetBisection(300e6) }, true},
	}
	for _, m := range models {
		for _, dir := range []struct {
			name  string
			sizes [][][]int
		}{{"gather", gather}, {"scatter", scatter}} {
			name := m.name + "/" + dir.name
			t.Run(name, func(t *testing.T) {
				scn := postedScn{ranks: ranks, sizes: dir.sizes, configure: m.configure, peer: m.peer}
				lock := scn.run(t, nil)
				if m.name != "free" && lock.now == 0 {
					t.Fatal("the scenario charged nothing")
				}
				diffPostedObs(t, "compute ranks posted", lock, scn.run(t, compute))
				// A subset: some compute ranks still take part in every round.
				some := append([]bool(nil), compute...)
				some[4], some[9] = false, false
				diffPostedObs(t, "some compute ranks posted", lock, scn.run(t, some))
				diffPostedObs(t, "no rank posted", lock, scn.run(t, make([]bool, ranks)))
			})
		}
	}
}

// TestPostedBothWays posts ranks that send and receive at once — the
// charges of both directions apply to one poster — and a poster whose
// link-in charge is the smallest in the group while every rank running
// the rounds owes more, so the pool reservation falls due at an instant
// when no process would otherwise be awake.
func TestPostedBothWays(t *testing.T) {
	const ranks, rounds = 6, 4
	sizes := make([][][]int, rounds)
	for k := range sizes {
		sizes[k] = make([][]int, ranks)
		for r := range sizes[k] {
			sizes[k][r] = make([]int, ranks)
		}
		// Ranks 0 and 1 run the rounds and take in a lot from everyone;
		// ranks 2..5 each send to both and receive a little from rank 0
		// (rank 5 least), and trade among themselves in even rounds.
		for r := 2; r < ranks; r++ {
			sizes[k][r][0] = 4000 + 100*r
			sizes[k][r][1] = 3000 + 50*k
			sizes[k][0][r] = 40 * (ranks - r)
			if k%2 == 0 {
				sizes[k][r][2+(r-1)%4] = 500
			}
		}
		sizes[k][1][0] = 2500
	}
	posted := []bool{false, false, true, true, true, true}
	for _, m := range []struct {
		name      string
		configure func(g *Group)
		peer      bool
	}{
		{"link", func(g *Group) { g.SetLink(time.Microsecond, 20e6) }, false},
		{"link+bisection", func(g *Group) { g.SetLink(time.Microsecond, 20e6); g.SetBisection(90e6) }, false},
		{"shared-pool", func(g *Group) { g.SetLink(time.Microsecond, 20e6); g.SetBisection(90e6) }, true},
	} {
		t.Run(m.name, func(t *testing.T) {
			scn := postedScn{ranks: ranks, sizes: sizes, configure: m.configure, peer: m.peer}
			diffPostedObs(t, m.name, scn.run(t, nil), scn.run(t, posted))
		})
	}
}

// TestPostedParksOnce counts engine dispatches: a posted rank costs the
// exchange two (its start and its release), whatever the round count,
// where a rank in lockstep costs several per round.
func TestPostedParksOnce(t *testing.T) {
	const ranks, aggs = 64, 4
	dispatches := func(rounds int, post bool) int {
		sizes := make([][][]int, rounds)
		for k := range sizes {
			sizes[k] = make([][]int, ranks)
			for r := range sizes[k] {
				sizes[k][r] = make([]int, ranks)
				sizes[k][r][r%aggs] = 256
			}
		}
		e := sim.NewEngine()
		rec := probe.New()
		e.SetProbe(rec)
		g, join := Run(e, ranks, "x", func(p *Proc) {
			ex := p.NewSparseExchange()
			r := p.Rank()
			if post && r >= aggs {
				send := make([]Msg, rounds)
				for k := range send {
					send[k] = Msg{Dst: r % aggs, Round: k, Data: make([]byte, 256)}
				}
				p.RecycleRecv(ex.Post(send, rounds))
				return
			}
			for k := 0; k < rounds; k++ {
				p.RecycleRecv(ex.Round([]Msg{{Dst: r % aggs, Data: make([]byte, 256)}}))
			}
		})
		g.SetLink(time.Microsecond, 50e6)
		g.SetBisection(200e6)
		e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return int(rec.Metrics().Counter("sim.dispatches").Value())
	}
	for _, rounds := range []int{2, 8} {
		lock, post := dispatches(rounds, false), dispatches(rounds, true)
		t.Logf("%d rounds: %d dispatches in lockstep, %d posted", rounds, lock, post)
		// Posters: 2 each. Aggregators: at most 5 per round and 2 more.
		if limit := 2*(ranks-aggs) + aggs*(5*rounds+2) + 4; post > limit {
			t.Errorf("%d rounds posted cost %d dispatches, want ≤ %d", rounds, post, limit)
		}
	}
}

// TestSizeOnlyChargesAsPayload: a message that carries only its size
// (Msg.Len, Data nil) is charged exactly what a payload of that many
// bytes is — the clock to the nanosecond, every rank's release, Traffic's
// messages and bytes, and every mpp span with the bytes it counts — with
// every rank in Round, with the compute ranks posted (Post), and with
// both kinds mixed in one round.
func TestSizeOnlyChargesAsPayload(t *testing.T) {
	const ranks, aggs, rounds = 8, 2, 3
	both := make([][][]int, rounds) // rank r ships to r%aggs, which answers
	for k := range both {
		both[k] = make([][]int, ranks)
		for r := range both[k] {
			both[k][r] = make([]int, ranks)
		}
		for r := 0; r < ranks; r++ {
			both[k][r][r%aggs] = 300 + 70*r + 250*k // the aggregators' self-messages too
			both[k][r%aggs][r] += 40 + 9*r
		}
	}
	compute := make([]bool, ranks)
	for r := aggs; r < ranks; r++ {
		compute[r] = true
	}
	linkPool := func(g *Group) { g.SetLink(2*time.Microsecond, 80e6); g.SetBisection(300e6) }
	for _, m := range []struct {
		name      string
		configure func(g *Group)
		peer      bool
	}{
		{"link+bisection", linkPool, false},
		{"shared-pool", linkPool, true},
	} {
		for _, posted := range [][]bool{nil, compute} {
			for _, kind := range []struct {
				name     string
				sizeOnly func(k, src, dst int) bool
			}{
				{"all", func(int, int, int) bool { return true }},
				{"mixed", func(k, src, dst int) bool { return (k+src+dst)%2 == 0 }},
			} {
				name := fmt.Sprintf("%s/posted=%v/%s", m.name, posted != nil, kind.name)
				t.Run(name, func(t *testing.T) {
					scn := postedScn{ranks: ranks, sizes: both, configure: m.configure, peer: m.peer}
					ref := scn.run(t, posted)
					if ref.now == 0 || ref.bytes == 0 || len(ref.spans) == 0 {
						t.Fatalf("the scenario charged nothing: %+v", ref)
					}
					scn.sizeOnly = kind.sizeOnly
					got := scn.run(t, posted)
					if got.now != ref.now || got.msgs != ref.msgs || got.bytes != ref.bytes || !slices.Equal(got.done, ref.done) {
						t.Errorf("size-only: now %v, Traffic (%d, %d), released %v; payloads: %v, (%d, %d), %v",
							got.now, got.msgs, got.bytes, got.done, ref.now, ref.msgs, ref.bytes, ref.done)
					}
					if !slices.Equal(got.spans, ref.spans) {
						t.Errorf("size-only spans differ from the payloads' spans:\n%v\n%v", got.spans, ref.spans)
					}
				})
			}
		}
	}
}
