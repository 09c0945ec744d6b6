// Nonblocking, server-directed collective I/O: IWriteAll/IReadAll are
// the split-collective forms of WriteAll/ReadAll (the MPI_File_iwrite_all
// shape). The plan and exchange phases still run inline — they are
// collective by nature, every rank participates — but the device phase
// is handed to an ioserver.Job lane (Options.Service) and the call
// returns a Handle. Ranks overlap their own computation with the
// server's device work and rendezvous in Handle.Wait.
//
// The unit of submission is the call, not the aggregator domain. The
// aggregators assemble their domains side by side in one call buffer,
// and the rank that finishes last submits one request: the schedule's
// prepared plan (schedule.cut), every domain's spans mapped, sorted and merged together by
// blockio, so pieces of different domains that are neighbours on a drive
// are one device request (on a declustered file: one sequential run per
// drive per call, where per-domain submission issued one short piece per
// drive per domain). The server sees the whole request and its worker
// drives every device at once — ViPIOS's server-directed I/O, with Ching
// et al.'s list-I/O descriptor as the message. The unit of service is
// smaller: Options.ChunkBytes cuts the call plan every ChunkBytes of the
// call buffer (ROMIO's collective-buffer loop, run by the server), the
// server issues it a window at a time and its QoS policy chooses again
// between windows, so another job's small call waits for one window of a
// bulk call in service, not for the call (ioserver's package doc gives
// the bound) — and a call with the server to itself is handed over whole,
// cuts and all, as the one run per drive it would be uncut.
//
// The outcome is data-identical to the blocking call: for writes, the
// exchange and LastWriterWins overlap resolution complete before the
// request is submitted, so the call buffer is final and the server may
// run it whenever its policy says; for reads, the delivery exchange runs
// inside Wait, after the whole call has arrived from the devices. The
// differential harness's multijob phase enforces this equivalence
// against serialized execution.

package collective

import (
	"fmt"

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
// A Handle owns one call buffer and one server ticket. The call buffer
// holds the call's covered bytes in covered-index order, so domain a is
// a sub-slice of it (domSlices) and the aggregators size their messages
// and copy with the blocking executor's helpers, the slices standing in
// for round 0's staging (a nonblocking call exchanges in one round;
// Options.ChunkBytes cuts what the server issues, not the domains). The
// aggregators copy between the call buffer and the ranks' own buffers,
// which the Handle keeps (bufs): a write's are read in IWriteAll, right
// after its exchange, and a read's are filled in Wait, right after its
// delivery exchange. The rank that finishes its eager half last (pending
// reaching zero) submits the schedule's call-wide plan bound to the call
// buffer; every rank's Test and Wait read that one ticket.
type Handle struct {
	c     *Collective
	write bool
	sd    *schedule

	callbuf []byte            // from getDom; rank 0 returns it in Wait
	pending int               // ranks still in their eager half
	sub     int               // the rank that submitted
	ticket  *ioserver.Request // nil until the last rank has submitted
	subq    sim.WaitQueue     // ranks that reached Wait before then
	bufs    [][]byte          // per rank: the caller's buffer, which the aggregators copy from or into
}

// domSlices lists rank's owned domains as slices of the call buffer, in
// ownedOf order — the staging copyChunk takes — in the rank's reused
// scratch list (Collective.domScr): what it returns is good until the
// rank's next call.
func (h *Handle) domSlices(rank int) [][]byte {
	pl, owned := h.sd.pl, h.sd.ownedOf[rank]
	bufs := h.c.domScr[rank][:0]
	for _, a := range owned {
		lo, hi := pl.domain(a)
		bufs = append(bufs, h.callbuf[lo*pl.bs:hi*pl.bs])
	}
	h.c.domScr[rank] = bufs
	return bufs
}

// IWriteAll starts a nonblocking collective write: the exchange runs
// now, the whole call is enqueued on Options.Service as one request, and
// the returned Handle completes once the server has written it. The
// aggregators copy buf's bytes into the call buffer once the exchange
// has run, before any rank's Wait returns: buf must hold still until
// Wait. Requires Options.Service; see WriteAll for the blocking semantics
// the data outcome matches.
func (c *Collective) IWriteAll(p *mpp.Proc, reqs []VecReq, buf []byte) (*Handle, error) {
	return c.istart(p, true, reqs, buf)
}

// IReadAll starts a nonblocking collective read: the whole call is
// enqueued on Options.Service as one request now, and Wait performs the
// delivery exchange once it has arrived. The aggregators copy the rank's
// bytes into buf inside Wait, after the delivery exchange and before the
// barrier that ends it: buf is filled only after Wait returns.
func (c *Collective) IReadAll(p *mpp.Proc, reqs []VecReq, buf []byte) (*Handle, error) {
	return c.istart(p, false, reqs, buf)
}

// istart is the shared nonblocking prologue: plan, then the direction's
// eager half (writes: exchange and assemble; reads: nothing), then the
// last rank through submits the call.
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
			// The call buffer outlives the call — the server holds it
			// until the request completes — so it comes from the handle's
			// free list and goes back in Wait, not at the end of this
			// call as blocking staging does. A call rejected above takes
			// nothing.
			pl := c.sched.pl
			c.hScratch = &Handle{
				c:       c,
				write:   write,
				sd:      c.sched,
				callbuf: c.getDom(int(pl.total * pl.bs)),
				pending: c.size,
				bufs:    make([][]byte, c.size),
			}
		}
	}
	p.Barrier()
	if c.plErr != nil {
		return nil, c.plErr
	}
	h := c.hScratch
	sd := h.sd
	h.bufs[rank] = buf

	if write {
		// Writes exchange eagerly: once the domains are assembled (with
		// rank-order overlap resolution) the call buffer is final, and the
		// server may run the request whenever its policy says. Assembly
		// reads h.bufs, never c.bufs: a rank the Round released first may
		// already have re-entered istart and replaced its c.bufs slot.
		p.RecycleRecv(p.NewSparseExchange().Round(c.packRounds(sd.pl, rank)))
		sd.pl.copyChunk(sd.ownedOf[rank], 0, h.domSlices(rank), h.bufs, true)
	}
	if h.pending--; h.pending == 0 {
		// One request for the whole call: blockio's sort/merge across the
		// domains has already made it one run per drive per window where
		// the footprint allows (schedule.cut), and a server worker
		// drives them all at once, a window or several at a time.
		h.sub = rank
		bytes := int64(len(h.callbuf))
		if write {
			h.ticket = c.opts.Service.SubmitWritePlan(p.Proc, sd.cut.plan, h.callbuf, bytes)
		} else {
			h.ticket = c.opts.Service.SubmitReadPlan(p.Proc, sd.cut.plan, h.callbuf, bytes)
		}
		h.subq.WakeAll(p.Engine())
	}
	return h, nil
}

// maxDomSizes bounds the sizes the free list keeps: one per schedule a
// default cache retains, since a schedule's chunk is what sizes staging.
const maxDomSizes = defaultPlanCacheCap

// getDom pops a buffer of exactly n bytes from the handle's free list, or
// makes one: a blocking call's chunk staging or a nonblocking call's call
// buffer. Contents are stale (aggState.takeStage says why that is safe).
func (c *Collective) getDom(n int) []byte {
	c.domOut++
	if free := c.domFree[n]; len(free) > 0 {
		b := free[len(free)-1]
		c.domFree[n] = free[:len(free)-1]
		return b
	}
	return make([]byte, n)
}

// putDom returns a buffer to the free list. A size's list holds what the
// calls in flight needed of it at their peak (every aggregator's staging
// of one blocking call; two nonblocking calls may be outstanding), so an
// iterative workload stops allocating after its first epoch. A handle
// whose footprints keep changing size does not grow without bound: the
// list keeps maxDomSizes sizes, and a new one beyond that starts it over
// (the rest goes to the collector), so it never holds more than that many
// calls' worth.
func (c *Collective) putDom(b []byte) {
	c.domOut--
	if len(b) == 0 {
		return
	}
	free, ok := c.domFree[len(b)]
	if !ok && len(c.domFree) >= maxDomSizes {
		clear(c.domFree)
	}
	if c.domFree == nil {
		c.domFree = make(map[int][][]byte)
	}
	c.domFree[len(b)] = append(free, b)
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
		// Delivery: the exchange charges the freshly read domains' trip
		// back to the ranks, then each aggregator copies them into the
		// ranks' buffers. Every rank is in Wait by then, and none leaves
		// before the barrier below.
		owned := h.sd.ownedOf[rank]
		send := c.packChunkDomains(pl, owned, 0, c.msgScratch[rank][:0])
		c.msgScratch[rank] = send
		p.RecycleRecv(p.NewSparseExchange().Round(send))
		pl.copyChunk(owned, 0, h.domSlices(rank), h.bufs, false)
	}
	// The server is done with the call buffer (the ticket has completed,
	// failed or not) and past this barrier every aggregator has copied a
	// read's bytes out of it: rank 0 returns it, once.
	p.Barrier()
	if rank == 0 {
		c.putDom(h.callbuf)
		h.callbuf = nil
	}
	if err != nil {
		return fmt.Errorf("rank %d: %w", h.sub, err)
	}
	return nil
}
