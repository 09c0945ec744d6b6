package mpp

import "time"

// RoundPrice prices the rounds of a chunked exchange from the messages
// they would carry, before any is sent — what a layer that chooses
// between exchanging and not exchanging (package collective's route
// selection) needs to know. It prices with the code that charges: every
// process's injection and delivery is linkTime's, the way chargeLink
// charges it, and the pool is a scratch timeline reserved and left the
// way Round reserves and leaves the group's (Bisection.reserve, leave).
// The scratch pool starts empty: what other groups have reserved on a
// shared pool when the exchange runs is not the price's to know. Under a
// topology only cross-cut bytes are booked on it, as charged, but every
// process is priced as waiting for it.
//
// Enter every message of the whole exchange (Reset, then Msg), then ask
// for the price of each of its rounds (Price). A RoundPrice keeps its
// tables between uses: hold one per handle.
type RoundPrice struct {
	g    *Group
	use  []linkUse
	last []int // last[dst]: 1 + the source of the latest message entered for dst
	vol  int64 // bytes across the bisection cut
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
	rp.vol = 0
}

// Msg enters bytes that src sends dst over the exchange. Several entries
// for one pair are one message — a pair is set up once per exchange —
// provided a source's entries follow one another. A process's bytes for
// itself cross nothing.
func (rp *RoundPrice) Msg(src, dst int, bytes int64) {
	if src == dst || bytes <= 0 {
		return
	}
	out, in := &rp.use[src], &rp.use[dst]
	out.outBytes += bytes
	in.inBytes += bytes
	if rp.last[dst] != src+1 {
		rp.last[dst] = src + 1
		out.outMsgs++
		in.inMsgs++
	}
	if rp.g.crossCut(src, dst) {
		rp.vol += bytes
	}
}

// Price reports what one round of the exchange costs that carries part of
// every whole bytes each process sends, takes delivery of and books on
// the pool (rounded down per process: an equal round of n carries 1 of
// n); setup prices the round that sets up every pair, the first. A round
// is what Round charges it: every process injects, the slowest holding
// the first barrier; every process then takes delivery, the first to
// finish reserving the round's cross-cut volume on the pool, and the
// round ends when the last has left the pool. The messages of a
// collective read travel the other way and cost the same.
func (rp *RoundPrice) Price(part, whole int64, setup bool) time.Duration {
	g, share := rp.g, func(b int64) int64 { return b * part / max(whole, 1) }
	var out, inMin, inMax time.Duration
	for i, u := range rp.use {
		outMsgs, inMsgs := 0, 0
		if setup {
			outMsgs, inMsgs = u.outMsgs, u.inMsgs
		}
		out = max(out, g.linkTime(outMsgs, share(u.outBytes)))
		in := g.linkTime(inMsgs, share(u.inBytes))
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
