package mpp

import (
	"cmp"
	"slices"
	"time"
)

// RoundPrice prices the rounds of a chunked exchange from the messages
// they would carry, before any is sent — what a layer that chooses
// between exchanging and not exchanging (package collective's route
// selection) needs to know. It prices with the code that charges: every
// process's injection and delivery is linkTime's, the way chargeLink
// charges it, and the pool is a scratch timeline reserved and left the
// way Round reserves and leaves the group's (Bisection.reserve, leave).
// The scratch pool starts empty: what other groups have reserved on a
// shared pool when the exchange runs is not the price's to know.
//
// Enter every message of the whole exchange (Reset, then Msg), then ask
// for the price of each of its rounds (Price). A RoundPrice keeps its
// tables between uses: hold one per handle.
type RoundPrice struct {
	g    *Group
	use  []linkUse
	last []int // last[dst]: 1 + the source of the latest message entered for dst
	vol  int64 // bytes across a link, all booked on the pool
	// outs and ins are the distinct injections and deliveries among use,
	// tallied at the first Price after an entry: a round's price is a
	// maximum and a minimum over the processes, which processes of equal
	// traffic do not move. Ranks of a balanced exchange carry equal
	// shares, so a few distinct values stand for every process, and a
	// pricer asks for many rounds of one exchange (every depth of a
	// pipelined candidate): one tally serves them all.
	outs, ins []linkCount
	tallied   bool
}

// linkCount is messages and bytes one process injects, or takes
// delivery of.
type linkCount struct {
	msgs  int
	bytes int64
}

// linkUse is one process's traffic over the whole exchange: messages and
// bytes it injects and takes delivery of.
type linkUse struct {
	outBytes, inBytes int64
	outMsgs, inMsgs   int
}

// Reset empties rp and binds it to p's group and its interconnect model.
func (rp *RoundPrice) Reset(p *Proc) {
	g := p.group
	if rp.g != g || len(rp.use) != g.size {
		rp.g, rp.use, rp.last = g, make([]linkUse, g.size), make([]int, g.size)
	}
	clear(rp.use)
	clear(rp.last)
	rp.vol, rp.tallied = 0, false
}

// Msg enters bytes that src sends dst over the exchange. Several entries
// for one pair are one message — a pair is set up once per exchange —
// provided a source's entries follow one another. A process's bytes for
// itself cross nothing. Msg inlines to the test that drops those and
// empty entries, which most cells of a rank × domain table are.
func (rp *RoundPrice) Msg(src, dst int, bytes int64) {
	if src != dst && bytes > 0 {
		rp.msg(src, dst, bytes)
	}
}

func (rp *RoundPrice) msg(src, dst int, bytes int64) {
	rp.tallied = false
	out, in := &rp.use[src], &rp.use[dst]
	out.outBytes += bytes
	in.inBytes += bytes
	if rp.last[dst] != src+1 {
		rp.last[dst] = src + 1
		out.outMsgs++
		in.inMsgs++
	}
	rp.vol += bytes
}

// Price reports what one round of the exchange costs that carries part of
// every whole bytes each process sends, takes delivery of and books on
// the pool (rounded down per process: an equal round of n carries 1 of
// n); setup prices the round that sets up every pair, the first. A round
// is what Round charges it: every process injects, the slowest holding
// the first barrier; every process then takes delivery, the first to
// finish reserving the round's volume on the pool, and the
// round ends when the last has left the pool. The messages of a
// collective read travel the other way and cost the same.
func (rp *RoundPrice) Price(part, whole int64, setup bool) time.Duration {
	if !rp.tallied {
		rp.tally()
	}
	g, share := rp.g, func(b int64) int64 { return b * part / max(whole, 1) }
	msgs := func(c linkCount) int {
		if setup {
			return c.msgs
		}
		return 0
	}
	var out, inMin, inMax time.Duration
	for _, c := range rp.outs {
		out = max(out, g.linkTime(msgs(c), share(c.bytes)))
	}
	for i, c := range rp.ins {
		in := g.linkTime(msgs(c), share(c.bytes))
		if i == 0 || in < inMin {
			inMin = in
		}
		inMax = max(inMax, in)
	}
	end := out + inMax
	if vol := share(rp.vol); g.bisection != nil && vol > 0 {
		pool := Bisection{bw: g.bisection.bw}
		end = pool.leave(end, vol, pool.reserve(out+inMin, vol))
	}
	return end
}

// tally collects the distinct injections and deliveries of the entries.
func (rp *RoundPrice) tally() {
	rp.outs, rp.ins = rp.outs[:0], rp.ins[:0]
	for _, u := range rp.use {
		rp.outs = append(rp.outs, linkCount{u.outMsgs, u.outBytes})
		rp.ins = append(rp.ins, linkCount{u.inMsgs, u.inBytes})
	}
	rp.outs, rp.ins, rp.tallied = distinct(rp.outs), distinct(rp.ins), true
}

// distinct sorts s and drops its repeats.
func distinct(s []linkCount) []linkCount {
	slices.SortFunc(s, func(x, y linkCount) int { return cmp.Or(cmp.Compare(x.msgs, y.msgs), cmp.Compare(x.bytes, y.bytes)) })
	return slices.Compact(s)
}
