package mpp

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Sparse personalized exchanges: the same collectives as Alltoallv and
// Exchange.Round, carried as explicit message lists instead of
// rank-indexed slices. A process pays only for the pairs it actually
// communicates with — O(messages) instead of O(group size) per round.
// A message carries its bytes by reference or only their size: a Data
// payload transfers by reference (the sender gives up ownership of it
// until the receiver has consumed it, and no copy is made anywhere on the
// path), while a message with nil Data and a Len moves nothing and is
// charged as Len bytes — the form for processes that share an address
// space and copy between each other's buffers themselves (package
// collective's aggregators). Charging (per-process link, shared pool,
// Traffic) is computed from the same message and byte totals as the
// dense forms, between the same pair of barriers, so modeled times are
// bit-identical; only the wall-clock cost of the simulation differs.

// Msg is one outgoing message of a sparse exchange: a payload (Data), or
// with Data nil only its size (Len), charged exactly as a payload of Len
// bytes. At most one Msg per destination may be passed per round
// (matching the dense forms, where send[dst] is a single payload). Round
// is read by SparseExchange.Post alone, which takes every round's
// messages in one list.
type Msg struct {
	Dst   int
	Round int
	Data  []byte
	Len   int // the bytes charged when Data is nil
}

// RecvMsg is one delivered message: what rank Src sent this process (its
// Data and Len as sent), and in which round of a chunked exchange (0 from
// AlltoallvSparse). Delivery order follows the engine's deterministic
// execution order of the senders, not rank order; consumers that need
// rank order (e.g. a last-writer-wins merge) must sort by Src.
type RecvMsg struct {
	Src   int
	Round int
	Data  []byte
	Len   int
}

// size is the bytes a message is charged: its payload's, or Len when it
// carries none.
func size(data []byte, n int) int64 {
	if data != nil {
		return int64(len(data))
	}
	return int64(n)
}

// ensureSparse lazily allocates the per-rank inboxes.
func (g *Group) ensureSparse() {
	if g.sin == nil {
		g.sin, g.inboxPool = make([][]RecvMsg, g.size), make([][][]RecvMsg, g.size)
	}
}

// takeInbox hands rank a receive list it recycled (or nil, to be grown by
// append). Lists go back to the rank they came from, so each grows to
// what its own rank receives in a round and stays that size, however
// unequal the rounds or the ranks.
func (g *Group) takeInbox(rank int) []RecvMsg {
	pool := g.inboxPool[rank]
	if n := len(pool); n > 0 {
		b := pool[n-1]
		pool[n-1] = nil
		g.inboxPool[rank] = pool[:n-1]
		return b
	}
	return nil
}

// RecycleRecv returns a receive list obtained from AlltoallvSparse or
// SparseExchange.Round to the process's pool once its payloads have been
// fully consumed. Optional — an unrecycled list is ordinary garbage —
// but steady-state exchanges that recycle run allocation-free.
func (p *Proc) RecycleRecv(recv []RecvMsg) {
	for i := range recv {
		recv[i] = RecvMsg{}
	}
	p.group.inboxPool[p.rank] = append(p.group.inboxPool[p.rank], recv[:0])
}

// AlltoallvSparse performs one personalized all-to-all exchange from
// message lists: round 0 of a fresh SparseExchange, charged by Round.
// Each Msg is delivered to its destination rank, and the returned list
// holds everything the other ranks (and the process itself, if it
// self-sent) addressed here. Payloads move by reference — the caller must
// not modify a sent Data until the receiver is done with it — and a
// message with nil Data moves only its size, Len, charged as that many
// bytes; either way the caller should hand the returned list back via
// RecycleRecv when consumed. It resets the process's chunked-exchange
// handle (NewSparseExchange), which is safe because a process runs one
// exchange at a time. All processes of the group must call it together.
func (p *Proc) AlltoallvSparse(send []Msg) []RecvMsg { return p.NewSparseExchange().Round(send) }

// SparseExchange is the sparse counterpart of Exchange: one logical
// personalized exchange split into rounds, with per-pair setup time and
// Traffic's message count charged once per communicating pair across
// the handle's lifetime. Unlike Exchange, a handle's footprint is
// proportional to the pairs it touches, not the group size.
//
// # Posted rounds
//
// A process that consumes nothing before the exchange ends — it has
// every round's payloads in hand at the start and looks at what it
// received only afterwards — need not take part round by round. It
// hands the exchange all its rounds at once (Post) and parks once, and
// only the other processes run Round, on a barrier of their own: a round
// then costs the host what its participants and messages cost, not a
// goroutine hand-off or four for every process of the group. Modeled
// time is what lockstep charges, to the nanosecond. A poster's part in a
// round is three numbers, all known from what it posted and from what
// the round's participants deliver to it, and the last process to arrive
// at each of the round's two barriers applies them before releasing it:
//
//   - the first barrier releases no earlier than the posters' entry to
//     the round (the previous round's release, which frees every process
//     at once; in round 0, each poster's call to Post) plus the largest
//     link-out charge a poster owes for it;
//   - the shared pool is reserved at the instant the first process of
//     the whole group would have reached it: the first barrier's release
//     plus the smallest link-in charge of any process, which is zero for
//     a poster that receives nothing in the round. Reservations on a pool
//     shared with other groups therefore queue in the order lockstep
//     gives them (two reservations due at one instant queue in dispatch
//     order, with or without posting);
//   - the second barrier releases no earlier than the latest poster
//     would have left the pool: the later of the reservation's end and
//     the first barrier's release + the poster's link-in charge + the
//     round's volume at pool bandwidth.
//
// Per-pair setup is still charged once per pair, and Traffic ends at the
// same totals.
type SparseExchange struct {
	p     *Proc
	pairs map[int]uint8 // peer rank -> setup flags (bit 0 sent, bit 1 received)
	round int           // rounds run so far
	seen  int           // posted: inbox entries closeFirst has charged for
}

// NewSparseExchange returns this process's handle on a fresh chunked
// sparse exchange. Handles are per-collective-operation, like
// NewExchange, and a process runs one chunked sparse exchange at a time:
// the handle is the process's own, recycled with its pair table emptied
// but keeping the size it grew to, so asking for the next exchange ends
// the previous one. (A fresh table per operation was most of a pipelined
// collective's steady-state allocation once an aggregator hears from a
// hundred ranks.)
func (p *Proc) NewSparseExchange() *SparseExchange {
	ex := &p.sparseEx
	ex.round, ex.seen = 0, 0
	if ex.pairs == nil {
		ex.p, ex.pairs = p, make(map[int]uint8)
		return ex
	}
	clear(ex.pairs)
	return ex
}

// posted is the group's side of posted rounds: what the posters of the
// chunked exchange in progress handed over, the barrier its rounds run
// on, and the charges of the round in flight.
type posted struct {
	posters []*SparseExchange // handles posted to the exchange in progress
	rounds  int               // its round count, as posted
	round   []postedRound     // per round; the table is kept across exchanges
	ready0  time.Duration     // when the last poster's round-0 injection ends

	// The round barrier. Every round of every chunked exchange runs on it;
	// posters arrive at round 0's first barrier (without waiting there)
	// and at no other, and park on done until the last round closes.
	arrived int
	wq      sim.WaitQueue
	done    sim.WaitQueue

	t1, t2       time.Duration // releases of this round's first barrier and the previous round's second
	inMin, inMax time.Duration // the posters' smallest and largest link-in charge this round
}

// postedRound is what the posters handed over for one round: their
// messages, the bytes among them that cross a link, and the largest
// link-out charge any of them owes for it.
type postedRound struct {
	msgs []postedMsg
	vol  int64
	out  time.Duration
}

type postedMsg struct {
	dst int
	RecvMsg
}

// sent totals what one round's outgoing messages cost their sender: bytes
// and pairs new to the exchange across a link.
type sent struct {
	bytes int64
	pairs int
}

// account enters one outgoing message in the sender's pair table and
// adds its charges to s.
func (ex *SparseExchange) account(s *sent, m Msg) {
	p := ex.p
	if m.Dst == p.rank {
		return
	}
	s.bytes += size(m.Data, m.Len)
	if f := ex.pairs[m.Dst]; f&1 == 0 {
		ex.pairs[m.Dst] = f | 1
		s.pairs++
	}
}

// received totals the link-in charges of newly delivered messages: bytes
// and new pairs across a link.
func (ex *SparseExchange) received(recv []RecvMsg) (in int64, newIn int) {
	p := ex.p
	for _, m := range recv {
		if m.Src != p.rank {
			in += size(m.Data, m.Len)
			if f := ex.pairs[m.Src]; f&2 == 0 {
				ex.pairs[m.Src] = f | 2
				newIn++
			}
		}
	}
	return in, newIn
}

// Round moves one round of the chunked exchange — the sparse analogue
// of Exchange.Round, and the one place an exchange is charged. Each Msg
// is delivered to its destination rank — its payload by reference, or
// its size alone — under the delivery, ownership and charging contract
// AlltoallvSparse states. All processes of the
// group that have not posted their rounds (Post) must call Round
// together.
func (ex *SparseExchange) Round(send []Msg) []RecvMsg {
	p := ex.p
	g := p.group
	ps := &g.post
	g.ensureSparse()
	k := ex.round
	ex.round++
	t0 := p.Now()
	var out sent
	for _, m := range send {
		g.sin[m.Dst] = append(g.sin[m.Dst], RecvMsg{Src: p.rank, Round: k, Data: m.Data, Len: m.Len})
		ex.account(&out, m)
	}
	p.chargeLink(out.pairs, out.bytes)
	g.trafMsgs += int64(out.pairs)
	g.trafBytes += out.bytes
	g.crossVol += out.bytes
	g.roundBarrier(p, k, false)
	recv := g.sin[p.rank]
	g.sin[p.rank] = g.takeInbox(p.rank)
	in, newIn := ex.received(recv)
	vol := g.crossVol
	if len(ps.posters) > 0 {
		vol += ps.round[k].vol
	}
	d := g.linkTime(newIn, in)
	if at := ps.t1 + ps.inMin; len(ps.posters) > 0 && g.bisection != nil && vol > 0 && !g.exCharged && at < p.Now()+d {
		// A poster would have reached the pool before this process does
		// (and, so far, before any other): reserve at its instant.
		end := p.Now() + d
		p.SleepUntil(at)
		g.reservePool(p.Now(), vol)
		p.SleepUntil(end)
	} else if d > 0 {
		p.Sleep(d)
	}
	p.chargePool(vol)
	g.roundBarrier(p, k, true)
	g.crossVol -= out.bytes
	g.exCharged = false
	if g.rec != nil {
		g.rec.Span(g.rankTrk[p.rank], "mpp", "round", t0, p.Now(), out.bytes+in, 0)
	}
	return recv
}

// Post hands the exchange every round of this process at once: send
// lists its messages of all rounds in ascending Msg.Round order (at most
// one per destination per round), rounds is the exchange's round count —
// the number of times the other processes call Round — and the returned
// list holds everything addressed here, in round order (RecvMsg.Round),
// once the last round has closed. The process parks once; see "Posted
// rounds" on SparseExchange for who may post and how it is charged. At
// least one process of the group must run the rounds.
func (ex *SparseExchange) Post(send []Msg, rounds int) []RecvMsg {
	p := ex.p
	g := p.group
	g.ensureSparse()
	if rounds <= 0 {
		return nil
	}
	ps := &g.post
	if len(ps.posters) == 0 {
		ps.rounds, ps.ready0 = rounds, 0
		for len(ps.round) < rounds {
			ps.round = append(ps.round, postedRound{})
		}
	} else if ps.rounds != rounds {
		panic(fmt.Sprintf("mpp: Post of %d rounds to an exchange of %d", rounds, ps.rounds))
	}
	t0 := p.Now()
	var total int64
	for k := 0; k < rounds; k++ {
		rd := &ps.round[k]
		var out sent
		for len(send) > 0 && send[0].Round == k {
			m := send[0]
			send = send[1:]
			rd.msgs = append(rd.msgs, postedMsg{m.Dst, RecvMsg{Src: p.rank, Round: k, Data: m.Data, Len: m.Len}})
			ex.account(&out, m)
		}
		if d := g.linkTime(out.pairs, out.bytes); k == 0 {
			ps.ready0 = max(ps.ready0, t0+d)
		} else {
			rd.out = max(rd.out, d)
		}
		rd.vol += out.bytes
		g.trafMsgs += int64(out.pairs)
		g.trafBytes += out.bytes
		total += out.bytes
	}
	if len(send) > 0 {
		panic(fmt.Sprintf("mpp: Post message for rank %d out of round order (round %d of %d)", send[0].Dst, send[0].Round, rounds))
	}
	ps.posters = append(ps.posters, ex)
	// Arrive at round 0's first barrier, which waits for every post, and
	// park until the exchange is over instead of until the barrier opens.
	if ps.arrived++; ps.arrived == g.size {
		if len(ps.posters) == g.size {
			panic("mpp: every process posted its rounds; none is left to run them")
		}
		ps.arrived = 0
		g.closeFirst(p, 0)
		ps.wq.WakeAll(p.Engine())
	}
	ps.done.Wait(p.Proc)
	recv := g.sin[p.rank]
	g.sin[p.rank] = g.takeInbox(p.rank)
	if g.rec != nil {
		for _, m := range recv {
			if m.Src != p.rank {
				total += size(m.Data, m.Len)
			}
		}
		g.rec.Span(g.rankTrk[p.rank], "mpp", "posted", t0, p.Now(), total, 0)
	}
	return recv
}

// roundBarrier is the barrier between the phases of round k of a chunked
// exchange: the first (second == false) closes the deliveries, the
// second the charges. Every process running the round waits at it; the
// last to arrive applies the posters' part (closeFirst, closeSecond)
// before it releases the others. With no poster it is a plain barrier of
// the whole group.
//
// The release follows lockstep's order as far as the posters' part in it
// is known, because processes released at one instant reach the drives
// in release order. A barrier releases its waiters in arrival order,
// behind the process that closes it. When a poster would have arrived
// last (late), it would have closed the barrier and the process closing
// in its stead would have been released behind the others: that process
// goes to the back of the line. And when the exchange ends, the posters
// are released behind the processes that ran it if they would have
// arrived behind them, ahead otherwise. (Where each poster stood among
// the posters is not kept, nor who came first of two arrivals at one
// instant, so what runs after the exchange may still meet in another
// order than lockstep's — an order as deterministic, and on a domain of
// one drive of no consequence.)
func (g *Group) roundBarrier(p *Proc, k int, second bool) {
	ps := &g.post
	need := g.size - len(ps.posters)
	if k == 0 && !second {
		need = g.size // each poster arrives here once (Post)
	}
	if ps.arrived++; ps.arrived < need {
		ps.wq.Wait(p.Proc)
		return
	}
	ps.arrived = 0
	e := p.Engine()
	if len(ps.posters) == 0 {
		ps.wq.WakeAll(e)
		return
	}
	if !second {
		late := g.closeFirst(p, k)
		ps.wq.WakeAll(e)
		if late {
			p.Sleep(0)
		}
		return
	}
	late := g.closeSecond(p, k)
	over := k == ps.rounds-1
	if over && !late {
		ps.done.WakeAll(e)
	}
	ps.wq.WakeAll(e)
	if over {
		if late {
			ps.done.WakeAll(e)
		}
		clear(ps.posters)
		ps.posters = ps.posters[:0]
	}
	if late {
		p.Sleep(0)
	}
}

// holdUntil keeps the process closing a barrier there until at, when the
// last poster would have arrived, and reports whether that is no earlier
// than the process's own arrival.
func holdUntil(p *Proc, at time.Duration) (late bool) {
	late = at >= p.Now()
	if at > p.Now() {
		p.SleepUntil(at)
	}
	return late
}

// closeFirst runs on the last process to arrive at round k's first
// barrier, before it releases the barrier: it waits out the posters'
// injection, delivers what they posted for the round, works out what
// every poster owes its link for the round's deliveries, and reserves
// the pool if one of them owes nothing. late: see roundBarrier.
func (g *Group) closeFirst(p *Proc, k int) (late bool) {
	ps := &g.post
	rd := &ps.round[k]
	ready := ps.ready0
	if k > 0 {
		ready = ps.t2 + rd.out
	}
	late = holdUntil(p, ready)
	for i, m := range rd.msgs {
		g.sin[m.dst] = append(g.sin[m.dst], m.RecvMsg)
		rd.msgs[i] = postedMsg{}
	}
	rd.msgs = rd.msgs[:0]
	ps.t1, ps.inMin, ps.inMax = p.Now(), 0, 0
	if g.linkMsg != 0 || g.linkBytes != 0 {
		for i, ex := range ps.posters {
			inbox := g.sin[ex.p.rank]
			in, newIn := ex.received(inbox[ex.seen:])
			ex.seen = len(inbox)
			d := g.linkTime(newIn, in)
			if i == 0 || d < ps.inMin {
				ps.inMin = d
			}
			ps.inMax = max(ps.inMax, d)
		}
	}
	if vol := g.crossVol + rd.vol; g.bisection != nil && vol > 0 && ps.inMin == 0 {
		g.reservePool(p.Now(), vol)
	}
	return late
}

// closeSecond runs on the last process to arrive at round k's second
// barrier: it holds the release until the last poster would have left
// the pool. late: see roundBarrier.
func (g *Group) closeSecond(p *Proc, k int) (late bool) {
	ps := &g.post
	rd := &ps.round[k]
	until := ps.t1 + ps.inMax
	if vol := g.crossVol + rd.vol; g.bisection != nil && vol > 0 {
		until = g.bisection.leave(until, vol, g.exEnd)
	}
	late = holdUntil(p, until)
	ps.t2 = p.Now()
	rd.vol, rd.out = 0, 0
	return late
}
