// Dense collective baselines. Alltoallv and the chunked Exchange are the
// original rank-indexed forms of the exchange primitives: every process
// touches all P slots per round, O(P²) work and copies even when most
// pairs are empty. Production traffic moved to the sparse forms
// (AlltoallvSparse, NewSparseExchange), which charge identically by
// construction; the dense forms survive here as the test-only comparison
// baselines that enforce that equivalence (sparse_test.go) and as the
// readable reference semantics of a personalized exchange.

package mpp

import "sync"

// Alltoallv performs a personalized all-to-all exchange: send[dst] is the
// payload (possibly nil) this process sends to rank dst, and the returned
// slice holds at recv[src] the payload rank src sent to this process
// (valid until the group's next collective; payloads are copied at send
// time, so the caller may reuse its buffers immediately). len(send) may
// be shorter than the group; absent entries send nothing. With a link
// model configured (SetLink), each process is charged for injecting its
// outgoing payloads and receiving its incoming ones, and with a shared
// link (SetBisection) the exchange's total cross-link volume is
// additionally charged against the pool; the self payload (send[rank])
// is a local copy and crosses no link under either model.
//
// This is the data-exchange primitive of two-phase collective I/O
// (package collective): ranks ship their pieces to aggregators, or
// aggregators ship file domains back to ranks, in one step.
func (p *Proc) Alltoallv(send [][]byte) [][]byte {
	g := p.group
	row := g.denseRow(p.rank)
	var out int64
	outMsgs := 0
	for dst := 0; dst < g.size; dst++ {
		var pl []byte
		if dst < len(send) {
			pl = send[dst]
		}
		if pl == nil {
			row[dst] = nil
			continue
		}
		cp := make([]byte, len(pl))
		copy(cp, pl)
		row[dst] = cp
		if dst != p.rank {
			out += int64(len(pl))
			outMsgs++
		}
	}
	p.chargeLink(outMsgs, out)
	g.trafMsgs += int64(outMsgs)
	g.trafBytes += out
	g.crossVol += out
	p.Barrier()
	// Between the barriers crossVol holds every rank's contribution —
	// the whole exchange's cross-link volume (self payloads excluded),
	// identical for all readers.
	recv := make([][]byte, g.size)
	var in int64
	inMsgs := 0
	a2a := g.denseTable()
	for src := 0; src < g.size; src++ {
		recv[src] = a2a[src][p.rank]
		if src != p.rank && recv[src] != nil {
			in += int64(len(recv[src]))
			inMsgs++
		}
	}
	p.chargeLink(inMsgs, in)
	p.chargePool(g.crossVol)
	p.Barrier()
	g.crossVol -= out
	g.exCharged = false
	return recv
}

// denseTables holds each group's dense Alltoallv scratch table,
// a2a[src][dst], made on the group's first dense collective.
var denseTables sync.Map // *Group → [][][]byte

// denseTable returns g's dense scratch table.
func (g *Group) denseTable() [][][]byte {
	t, ok := denseTables.Load(g)
	if !ok {
		t, _ = denseTables.LoadOrStore(g, make([][][]byte, g.size))
	}
	return t.([][][]byte)
}

// denseRow returns this rank's row of the dense scratch table, allocating
// it lazily. Every rank of a dense collective calls this before the entry
// barrier, so all rows exist by delivery time.
func (g *Group) denseRow(rank int) [][]byte {
	a2a := g.denseTable()
	if a2a[rank] == nil {
		a2a[rank] = make([][]byte, g.size)
	}
	return a2a[rank]
}

// Exchange is a chunked personalized exchange: one logical Alltoallv
// split into rounds so callers can overlap a round's delivery with other
// work (the pipelined collective's exchange engine). Every process of
// the group creates its own handle and all must call Round the same
// number of times — each Round is a collective, barrier-bracketed like
// Alltoallv. Per-message setup time (SetLink's msg cost) and Traffic's
// message count are charged once per communicating pair across the
// handle's lifetime, so a chunked exchange costs the same modeled time
// and counts the same traffic as the equivalent single Alltoallv; byte
// costs (per-process link and shared pool) are charged per round, as the
// bytes move.
type Exchange struct {
	p        *Proc
	sentTo   []bool // pairs whose setup this process already charged
	recvFrom []bool
}

// NewExchange returns this process's handle on a fresh chunked exchange.
// Handles are per-collective-operation: a new logical exchange (whose
// per-pair setup should be charged again) needs a new handle.
func (p *Proc) NewExchange() *Exchange {
	return &Exchange{
		p:        p,
		sentTo:   make([]bool, p.group.size),
		recvFrom: make([]bool, p.group.size),
	}
}

// Round moves one round of the chunked exchange: send[dst] is this
// round's payload for rank dst (nil sends nothing this round), and the
// returned slice holds at recv[src] what src sent this process this
// round — the same contract as Alltoallv, charged per the Exchange
// rules. All processes of the group must call Round together.
func (ex *Exchange) Round(send [][]byte) [][]byte {
	p := ex.p
	g := p.group
	row := g.denseRow(p.rank)
	var out int64
	newOut := 0
	for dst := 0; dst < g.size; dst++ {
		var pl []byte
		if dst < len(send) {
			pl = send[dst]
		}
		if pl == nil {
			row[dst] = nil
			continue
		}
		cp := make([]byte, len(pl))
		copy(cp, pl)
		row[dst] = cp
		if dst != p.rank {
			out += int64(len(pl))
			if !ex.sentTo[dst] {
				ex.sentTo[dst] = true
				newOut++
			}
		}
	}
	p.chargeLink(newOut, out)
	g.trafMsgs += int64(newOut)
	g.trafBytes += out
	g.crossVol += out
	p.Barrier()
	recv := make([][]byte, g.size)
	var in int64
	newIn := 0
	a2a := g.denseTable()
	for src := 0; src < g.size; src++ {
		recv[src] = a2a[src][p.rank]
		if src != p.rank && recv[src] != nil {
			in += int64(len(recv[src]))
			if !ex.recvFrom[src] {
				ex.recvFrom[src] = true
				newIn++
			}
		}
	}
	p.chargeLink(newIn, in)
	p.chargePool(g.crossVol)
	p.Barrier()
	g.crossVol -= out
	g.exCharged = false
	return recv
}
