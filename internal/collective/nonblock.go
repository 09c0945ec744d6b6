// Nonblocking, server-directed collective I/O: IWriteAll/IReadAll are
// the split-collective forms of WriteAll/ReadAll (the MPI_File_iwrite_all
// shape). The plan and exchange phases still run inline — they are
// collective by nature, every rank participates — but the device phase
// is handed to an ioserver.Job lane (Options.Service) and the call
// returns a Handle. Ranks overlap their own computation with the
// server's device work and rendezvous in Handle.Wait.
//
// The unit of submission is the call, not the aggregator domain. The
// call's buffer space is every domain's pieces of the ranks' own buffers
// (the schedule's frozen table, bound once), and the rank that finishes
// its eager half last submits one request: the schedule's prepared plan
// (schedule.cut), every domain's spans mapped, sorted and merged together by
// blockio, so pieces of different domains that are neighbours on a drive
// are one device request (on a declustered file: one sequential run per
// drive per call, where per-domain submission issued one short piece per
// drive per domain). The server sees the whole request and its worker
// drives every device at once — ViPIOS's server-directed I/O, with Ching
// et al.'s list-I/O descriptor as the message. The unit of service is
// smaller: Options.ChunkBytes cuts the call plan every ChunkBytes of the
// call's space (ROMIO's collective-buffer loop, run by the server), the
// server issues it a window at a time and its QoS policy chooses again
// between windows, so another job's small call waits for one window of a
// bulk call in service, not for the call (ioserver's package doc gives
// the bound) — and a call with the server to itself is handed over whole,
// cuts and all, as the one run per drive it would be uncut.
//
// The outcome is data-identical to the blocking call: a read's shared
// blocks are resolved in the frozen table, and the server may run a
// write whenever its policy says, straight from the ranks' buffers, which
// must hold still until Wait; a read lands in the ranks' buffers as the
// server reads it, and Wait charges the delivery exchange and copies the
// blocks several readers share once the whole call has arrived. The
// differential harness's multijob phase enforces this equivalence
// against serialized execution.

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
// call's: the schedule's piece table bound to the ranks' own buffers by
// rank 0 as the call starts (a nonblocking call exchanges in one round;
// Options.ChunkBytes cuts what the server issues, not the domains), so
// the server's drives gather a write from them and scatter a read into
// them. The rank that finishes its eager half last (pending reaching
// zero) submits the schedule's call-wide plan bound to that space; every
// rank's Test and Wait read that one ticket.
type Handle struct {
	c     *Collective
	write bool
	sd    *schedule

	space   blockio.Space     // from Collective.spaces; rank 0 returns it in Wait
	bufs    [][]byte          // a read with dups: per rank, the caller's buffer
	pending int               // ranks still in their eager half
	sub     int               // the rank that submitted
	ticket  *ioserver.Request // nil until the last rank has submitted
	subq    sim.WaitQueue     // ranks that reached Wait before then
}

// IWriteAll starts a nonblocking collective write: the exchange runs
// now, the whole call is enqueued on Options.Service as one request, and
// the returned Handle completes once the server has written it. The
// server's drives gather buf's bytes whenever it serves the call: buf
// must hold still until Wait returns. Requires Options.Service; see
// WriteAll for the blocking semantics the data outcome matches.
func (c *Collective) IWriteAll(p *mpp.Proc, reqs []VecReq, buf []byte) (*Handle, error) {
	return c.istart(p, true, reqs, buf)
}

// IReadAll starts a nonblocking collective read: the whole call is
// enqueued on Options.Service as one request now, and Wait performs the
// delivery exchange once it has arrived. The server's drives scatter the
// rank's bytes into buf as it serves the call, so they may land before
// Wait returns: buf is off limits from the call until Wait returns, and
// holds the bytes read only then.
func (c *Collective) IReadAll(p *mpp.Proc, reqs []VecReq, buf []byte) (*Handle, error) {
	return c.istart(p, false, reqs, buf)
}

// istart is the shared nonblocking prologue: plan and bind the call's
// space, then the direction's eager half (writes: the exchange; reads:
// nothing), then the last rank through submits the call.
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
			// LastStats reports the exchange byte split for nonblocking
			// calls too; the phase-time fields stay zero (the access
			// phase runs on the server's clock, not inside this call).
			c.stats = c.sched.stats
			// The space outlives the call — the server holds it until the
			// request completes — so it comes from the handle's free list
			// and goes back in Wait. Every rank's buffer is in c.bufs by
			// now, and none can re-enter before the barrier below. A call
			// rejected above takes nothing.
			tab := c.sched.tab
			h := &Handle{c: c, write: write, sd: c.sched, pending: c.size}
			if n := len(c.spaces); n > 0 {
				h.space, c.spaces = c.spaces[n-1], c.spaces[:n-1]
			}
			h.space = tab.bind(h.space, 0, len(tab.at)-1, c.bufs)
			if !write && len(tab.dups) > 0 {
				h.bufs = slices.Clone(c.bufs)
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
	if write {
		// Writes exchange eagerly; the bytes stay in the ranks' buffers
		// until the server's drives gather them.
		p.RecycleRecv(p.NewSparseExchange().Round(c.packRounds(sd.pl, rank)))
	}
	if h.pending--; h.pending == 0 {
		// One request for the whole call: blockio's sort/merge across the
		// domains has already made it one run per drive per window where
		// the footprint allows (schedule.cut), and a server worker
		// drives them all at once, a window or several at a time.
		h.sub = rank
		h.ticket = c.opts.Service.Submit(p.Proc, write, sd.cut.plan, h.space, sd.pl.total*sd.pl.bs)
		h.subq.WakeAll(p.Engine())
	}
	return h, nil
}

// Test reports whether the call's server request has completed — local,
// never parks, the MPI_Test shape. It is false while some rank is still
// in its eager half (nothing has been submitted yet); the delivery
// exchange of a read is Wait's job either way.
func (h *Handle) Test(p *mpp.Proc) bool {
	return h.ticket != nil && h.ticket.Done()
}

// Wait completes the collective: every rank parks until the call's one
// server request finishes, reads additionally run the delivery exchange,
// and all ranks return the same error — the contract of the blocking
// calls. There is one request, so there is one error: it is attributed
// to the rank that submitted it ("rank r: …", the last rank out of its
// eager half), which every rank reads off the shared ticket.
func (h *Handle) Wait(p *mpp.Proc) error {
	c, pl, rank := h.c, h.sd.pl, p.Rank()
	for h.ticket == nil {
		h.subq.Wait(p.Proc)
	}
	err := h.ticket.Wait(p.Proc)
	if !h.write {
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
	// or not) and past this barrier the copies are made: rank 0 returns
	// it, once.
	p.Barrier()
	if rank == 0 {
		clear(h.space)
		c.spaces = append(c.spaces, h.space[:0])
		h.space, h.bufs = nil, nil
	}
	if err != nil {
		return fmt.Errorf("rank %d: %w", h.sub, err)
	}
	return nil
}
