// Nonblocking, server-directed collective I/O: IWriteAll/IReadAll are
// the split-collective forms of WriteAll/ReadAll (the MPI_File_iwrite_all
// shape). The plan phase still runs inline — it is collective by nature,
// every rank participates — and so does a two-phase call's exchange, but
// the device phase is handed to an ioserver.Job lane (Options.Service)
// and the call returns a Handle. Ranks overlap their own computation with
// the server's device work and rendezvous in Handle.Wait.
//
// A nonblocking call takes the route its price says, like a blocking one
// (chooseRoute prices it in the shape it runs in): two-phase on the
// logical partition, or vectored, where the exchange buys nothing — then
// no rank exchanges before the call is submitted, and a read delivers
// nothing in Wait.
//
// The unit of submission is the call, not the aggregator domain nor the
// rank. The call's buffer space is the ranks' own buffers — on the
// two-phase route every domain's pieces of them (the schedule's frozen
// table), on the vectored route each rank's buffer whole, at its offset
// in the call (schedule.bindRanks) — bound once, and the rank that
// finishes its eager half last submits one request: the schedule's
// prepared plan (schedule.cut). On the two-phase route that is every
// domain's spans mapped, sorted and merged together by blockio, so
// pieces of different domains that are neighbours on a drive are one
// device request (on a declustered file: one sequential run per drive
// per call, where per-domain submission issued one short piece per drive
// per domain); on the vectored route it is every rank's mapped runs as
// they were priced, none joined to another rank's (blockio.MappedPlan) —
// joining them is the work the exchange is paid for. The server sees the
// whole request and its worker drives every device at once — ViPIOS's
// server-directed I/O, with Ching et al.'s list-I/O descriptor as the
// message. The unit of service is smaller: Options.ChunkBytes cuts the
// call plan every ChunkBytes of the call's space (ROMIO's
// collective-buffer loop, run by the server), the server issues it a
// window at a time and its QoS policy chooses again between windows, so
// another job's small call waits for one window of a bulk call in
// service, not for the call (ioserver's package doc gives the bound) —
// and a call with the server to itself is handed over whole, cuts and
// all, as the requests it would be uncut.
//
// A call costs the lane one ticket, and not a new one: rank 0's Wait
// hands the completed ticket back (ioserver.Job.Release) with the space,
// and the lane's next call reuses it, wait queue and all, so a
// replayed call loop allocates neither.
//
// The outcome is data-identical to the blocking call: a two-phase read's
// shared blocks are resolved in the frozen table, and the server may run
// a write whenever its policy says, straight from the ranks' buffers,
// which must hold still until Wait; a read lands in the ranks' buffers
// as the server reads it, and on the two-phase route Wait charges the
// delivery exchange and copies the blocks several readers share once
// the whole call has arrived. The differential harness's multijob phase
// enforces this equivalence against serialized execution, on both
// routes.

package collective

import (
	"fmt"
	"slices"

	"repro/internal/blockio"
	"repro/internal/ioserver"
	"repro/internal/mpp"
	"repro/internal/sim"
)

// Handle is an in-flight nonblocking collective. All ranks of the
// group receive the same Handle from one IWriteAll/IReadAll call and
// must each call Wait exactly once (Wait is itself collective); Test
// is local and may be called any number of times before Wait. A
// Collective may have several outstanding Handles, but their Waits
// must be issued in the same order on every rank.
//
// A Handle owns one buffer space and one server ticket. The space is the
// call's, bound to the ranks' own buffers by rank 0 as the call starts:
// the schedule's piece table on the two-phase route (a nonblocking call
// exchanges in one round; Options.ChunkBytes cuts what the server
// issues, not the domains), every rank's buffer on the vectored one. The
// server's drives gather a write from them and scatter a read into them.
// The rank that finishes its eager half last (pending reaching zero)
// submits the schedule's call-wide plan bound to that space; every
// rank's Test and Wait read that one ticket, and rank 0 hands it back to
// the lane when Wait returns the space, for the lane's next call to
// reuse.
type Handle struct {
	c     *Collective
	write bool
	sd    *schedule

	space   blockio.Space     // from Collective.spaces; rank 0 returns it in Wait
	bufs    [][]byte          // a read with dups: per rank, the caller's buffer
	pending int               // ranks still in their eager half
	sub     int               // the rank that submitted
	ticket  *ioserver.Request // nil until the last rank has submitted, and after Wait
	waited  bool              // Wait has completed and released the ticket
	subq    sim.WaitQueue     // ranks that reached Wait before then
}

// IWriteAll starts a nonblocking collective write: the exchange, if the
// call's route has one, runs now, the whole call is enqueued on
// Options.Service as one request, and the returned Handle completes once
// the server has written it. The server's drives gather buf's bytes
// whenever it serves the call: buf must hold still until Wait returns.
// Requires Options.Service; see WriteAll for the blocking semantics the
// data outcome matches.
func (c *Collective) IWriteAll(p *mpp.Proc, reqs []VecReq, buf []byte) (*Handle, error) {
	return c.istart(p, true, reqs, buf)
}

// IReadAll starts a nonblocking collective read: the whole call is
// enqueued on Options.Service as one request now, and Wait performs the
// delivery exchange, if the call's route has one, once it has arrived.
// The server's drives scatter the rank's bytes into buf as it serves the
// call, so they may land before Wait returns: buf is off limits from the
// call until Wait returns, and holds the bytes read only then.
func (c *Collective) IReadAll(p *mpp.Proc, reqs []VecReq, buf []byte) (*Handle, error) {
	return c.istart(p, false, reqs, buf)
}

// istart is the shared nonblocking prologue: plan and bind the call's
// space, then the direction's eager half (two-phase writes: the
// exchange; otherwise nothing), then the last rank through submits the
// call.
func (c *Collective) istart(p *mpp.Proc, write bool, reqs []VecReq, buf []byte) (*Handle, error) {
	if p.Size() != c.size {
		return nil, fmt.Errorf("collective: handle opened for %d ranks, called from a %d-rank group", c.size, p.Size())
	}
	if c.opts.Service == nil {
		// Uniform across ranks (shared Options), so every rank returns
		// here before the first barrier and the group stays aligned.
		return nil, fmt.Errorf("collective: nonblocking calls require Options.Service (an ioserver job lane)")
	}
	rank := p.Rank()
	c.reqs[rank], c.bufs[rank] = reqs, buf
	p.Barrier()
	if rank == 0 {
		c.sched, c.plErr = c.scheduleFor(p, write, true)
		if c.plErr == nil {
			// LastRoute, LastPrices and LastPredicted report what the call
			// was priced at, and LastStats its exchange byte split; the
			// phase-time fields stay zero (the access phase runs on the
			// server's clock, not inside this call).
			sd := c.sched
			c.route, c.predicted, c.prices, c.stats = sd.route, sd.predicted, sd.prices, sd.stats
			// The space outlives the call — the server holds it until the
			// request completes — so it comes from the handle's free list
			// and goes back in Wait. Every rank's buffer is in c.bufs by
			// now, and none can re-enter before the barrier below. A call
			// rejected above takes nothing.
			h := &Handle{c: c, write: write, sd: sd, pending: c.size}
			if n := len(c.spaces); n > 0 {
				h.space, c.spaces = c.spaces[n-1], c.spaces[:n-1]
			}
			if tab := sd.tab; tab != nil {
				h.space = tab.bind(h.space, 0, len(tab.at)-1, c.bufs)
				if !write && len(tab.dups) > 0 {
					h.bufs = slices.Clone(c.bufs)
				}
			} else {
				h.space = sd.bindRanks(h.space, c.bufs)
			}
			c.hScratch = h
		}
	}
	p.Barrier()
	if c.plErr != nil {
		return nil, c.plErr
	}
	h := c.hScratch
	sd := h.sd
	if write && sd.route == routeTwoPhase {
		// Two-phase writes exchange eagerly; the bytes stay in the ranks'
		// buffers until the server's drives gather them.
		p.RecycleRecv(p.NewSparseExchange().Round(c.packRounds(sd.pl, rank)))
	}
	if h.pending--; h.pending == 0 {
		// One request for the whole call: on the two-phase route blockio's
		// sort/merge across the domains has already made it one run per
		// drive per window where the footprint allows (schedule.cut), on
		// the vectored route it is every rank's runs as priced; a server
		// worker drives them all at once, a window or several at a time.
		h.sub = rank
		h.ticket = c.opts.Service.Submit(p.Proc, write, sd.cut.plan, h.space, sd.cut.plan.Bytes())
		h.subq.WakeAll(p.Engine())
	}
	return h, nil
}

// Test reports whether the call's server request has completed — local,
// never parks, the MPI_Test shape. It is false while some rank is still
// in its eager half (nothing has been submitted yet), and true once Wait
// has returned; the delivery exchange of a read is Wait's job either
// way.
func (h *Handle) Test(p *mpp.Proc) bool {
	return h.waited || h.ticket != nil && h.ticket.Done()
}

// Wait completes the collective: every rank parks until the call's one
// server request finishes, two-phase reads additionally run the delivery
// exchange, and all ranks return the same error — the contract of the blocking
// calls. There is one request, so there is one error: it is attributed
// to the rank that submitted it ("rank r: …", the last rank out of its
// eager half), which every rank reads off the shared ticket.
func (h *Handle) Wait(p *mpp.Proc) error {
	c, pl, rank := h.c, h.sd.pl, p.Rank()
	for h.ticket == nil {
		h.subq.Wait(p.Proc)
	}
	err := h.ticket.Wait(p.Proc)
	if !h.write && h.sd.route == routeTwoPhase {
		// Delivery: the exchange charges the read domains' trip back to
		// the ranks, whose buffers the drives have filled; rank 0 then
		// copies the call's shared blocks to their other readers — only if
		// the call read, so a failed one leaves every byte no drive
		// returned as the caller left it. Every rank is in Wait by then,
		// and none leaves before the barrier below. A call no rank reads
		// anything of has no round to deliver.
		send := c.msgScratch[rank][:0]
		if pl.rounds > 0 {
			send = c.packChunkDomains(pl, h.sd.ownedOf[rank], 0, send)
		}
		c.msgScratch[rank] = send
		p.RecycleRecv(p.NewSparseExchange().Round(send))
		if rank == 0 && err == nil && h.bufs != nil {
			h.sd.tab.copyDups(0, len(h.sd.tab.dat)-1, h.bufs)
		}
	}
	// The server is done with the space (the ticket has completed, failed
	// or not), past this barrier the copies are made and every rank has
	// read the ticket: rank 0 returns both, once.
	p.Barrier()
	if rank == 0 {
		clear(h.space)
		c.spaces = append(c.spaces, h.space[:0])
		h.space, h.bufs = nil, nil
		h.waited = true
		c.opts.Service.Release(h.ticket)
		h.ticket = nil
	}
	if err != nil {
		return fmt.Errorf("rank %d: %w", h.sub, err)
	}
	return nil
}
