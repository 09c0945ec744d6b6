// The two-phase executor: every blocking two-phase call runs here, as
// rounds of exchange feeding rounds of device access through chunked
// aggregator staging buffers, in the style of ROMIO's collective
// buffering (one loop parameterised by cb_buffer_size) and PVFS listio
// chunk pipelining.
//
// Each file domain is cut into chunks where the plan's round table says
// (plan.ends, one table for every domain: equal chunks, or chunks ramped
// in proportion to the round) and the collective runs plan.rounds
// exchange rounds (mpp.SparseExchange — per-pair setup charged once for
// the whole collective), round k moving chunk k of every domain
// (plan.chunkWindow), with every aggregator's device access running in a
// companion process fed through a depth-1 sim.Queue:
//
//	write: main   size(k) → Round(k) ──→ queue ──→ companion: assemble(k) → WriteWindow(k)
//	read:  companion ReadWindow(k) → deliver(k) → size(k) ──→ queue ──→ main: Round(k)
//
// An exchange message carries only its size (mpp.Msg.Len): every rank's
// buffer is in one address space, so the aggregator moves the bytes itself
// with one copy per clip (plan.copyChunk) — assemble(k) from the ranks'
// buffers into chunk k's staging once Round(k) has charged their
// transfer, deliver(k) from the staging into the ranks' buffers as soon
// as chunk k is read. A read delivers before the hand-off, not after
// Round(k): by then the companion may be reading chunk k+2 into the same
// staging. The ranks look at their buffers only once the call returns,
// so when within the call the bytes land is not observable.
//
// So while chunk k sits in the drives (writes) the main process is
// already exchanging chunk k+1, and while chunk k is being delivered to
// the ranks (reads) the companion is already reading chunk k+2's data —
// bounded by the double-buffered staging (the queue holds one round,
// the companion works on another). Device access goes through one
// blockio.BatchPlan prepared once per call and cut at every chunk of every
// domain (schedule.cut), so chunking never re-sorts or re-merges the
// physical pieces.
//
// One round is the schedule with nothing to overlap — plan → whole
// exchange → whole access, the interconnect idle while the drives work
// and the drives idle while bytes cross the link — and it is what a
// handle runs when nothing bounds the chunk and nothing prices a deeper
// pipeline (Options.ChunkBytes 0 under any Strategy but Auto): the same
// loop, once, with one staging buffer per owned domain
// (TestOneRoundGoldens pins its modeled times to the nanosecond).
//
// Only the aggregators run the rounds. A rank that owns no domain has
// nothing to do between them — it sizes its messages before the first,
// free in virtual time, and the aggregators copy its bytes — so it posts
// all its rounds at once and parks until the exchange is over
// (mpp.SparseExchange.Post: modeled time is what taking part in every
// round charges). A round therefore costs the host what its aggregators
// and its messages cost, not four engine dispatches for each of the
// group's ranks, and in steady state it allocates nothing: hand-off
// slots, staging, message lists, device requests and wait lists are all
// reused — staging at the table's largest chunk, so unequal rounds reuse
// each other's memory too.
//
// What a chunk is on the drives is the plan's business, not this file's.
// A chunk of a logical domain is a contiguous slice of the files: on a
// declustered file, a short piece on every drive, every round. A chunk
// of a drive-aligned domain (plan.aligned, StrategyAuto's other
// two-phase candidate) is a contiguous slice of one drive, so a round is
// one long request per drive. How many rounds, and how they share a
// domain, is a price there, not a setting: Options.ChunkBytes bounds the
// chunk (0: at a whole domain), and strategy.go's alignedCost runs every
// depth below that bound — each chunk cut in 2, 4, 8, … — cut equally and
// ramped, through a dry issue of every round's requests and this file's
// own hand-off (pipelineEnd), and keeps the cheapest. A write's ramp
// grows, so the first exchange, which nothing hides, is a few blocks; a
// read's shrinks, so the last delivery is. The logical partition and the
// nonblocking calls keep equal rounds. Nothing below tells the two
// partitions or the two cuts apart.
//
// The nonblocking calls (nonblock.go) hand their device phase to an I/O
// server instead, but size their messages and copy with the same
// helpers: round 0 of a plan built with one window per domain.

package collective

import (
	"errors"
	"fmt"

	"repro/internal/blockio"
	"repro/internal/mpp"
	"repro/internal/probe"
	"repro/internal/sim"
)

// runPipelined executes the schedule's rounds for one rank, leaving its
// error in c.errs[rank]. Called with a footprint (pl.rounds ≥ 1).
func (c *Collective) runPipelined(p *mpp.Proc, sd *schedule, write bool) {
	rank := p.Rank()
	pl := sd.pl
	rec, trk, prefix := p.Probe()
	ex := p.NewSparseExchange()
	if len(sd.ownedOf[rank]) == 0 {
		// A rank with no domain has nothing to do between rounds: it sizes
		// every round's messages now (writes), free in virtual time, and the
		// aggregators copy its bytes either way, so it posts its rounds and
		// parks once (mpp.SparseExchange.Post).
		var send []mpp.Msg
		if write {
			send = c.packRounds(pl, rank)
		}
		t0 := p.Now()
		p.RecycleRecv(ex.Post(send, pl.rounds))
		c.commIv = append(c.commIv, probe.Interval{From: t0, To: p.Now()})
		rec.Span(trk, "collective", "chunk.exchange", t0, p.Now(), 0, 0)
		return
	}
	agg := c.bindAgg(sd, rank)
	// Aggregator rank: exchange spans live on the rank's track, device
	// access spans on a companion "<rank>/io" track — the two stages
	// overlap in time, which is the whole point of the pipeline.
	var ioTrk probe.TrackID
	if rec != nil {
		ioTrk = rec.Track(fmt.Sprintf("%s/%d/io", prefix, rank))
	}
	// Staging is the call's, not the schedule's: out of the handle's free
	// list now, back when both stages have drained.
	agg.takeStage()
	defer agg.putStage()
	if write {
		c.errs[rank] = sim.Pipe(p.Proc, "collective-io", 1,
			func(q *sim.Queue) error { // exchange stage, on the rank
				defer q.Close(p.Proc)
				for k := 0; k < pl.rounds; k++ {
					send := c.packChunkSparse(pl, rank, k, c.msgScratch[rank][:0])
					c.msgScratch[rank] = send
					t0 := p.Now()
					p.RecycleRecv(ex.Round(send))
					c.commIv = append(c.commIv, probe.Interval{From: t0, To: p.Now()})
					sp := rec.Span(trk, "collective", "chunk.exchange", t0, p.Now(), 0, 0)
					q.Put(p.Proc, agg.handOff(k, nil, sp))
				}
				return nil
			},
			func(cp *sim.Proc, q *sim.Queue) error { // access stage
				var errs []error
				for {
					v, ok := q.Get(cp)
					if !ok {
						return errors.Join(errs...)
					}
					r := *v.(*round)
					t0 := cp.Now()
					if err := agg.writeChunk(cp, r.k); err != nil {
						errs = append(errs, err)
					}
					c.ioIv = append(c.ioIv, probe.Interval{From: t0, To: cp.Now()})
					rec.Span(ioTrk, "collective", "chunk.access", t0, cp.Now(), 0, r.span)
				}
			})
		return
	}
	c.errs[rank] = sim.Pipe(p.Proc, "collective-io", 1,
		func(q *sim.Queue) error { // exchange stage, on the rank
			for k := 0; k < pl.rounds; k++ {
				var r round
				if v, ok := q.Get(p.Proc); ok {
					r = *v.(*round)
				}
				t0 := p.Now()
				p.RecycleRecv(ex.Round(r.send))
				c.commIv = append(c.commIv, probe.Interval{From: t0, To: p.Now()})
				rec.Span(trk, "collective", "chunk.exchange", t0, p.Now(), 0, r.span)
			}
			return nil
		},
		func(cp *sim.Proc, q *sim.Queue) error { // access stage, reads ahead
			defer q.Close(cp)
			var errs []error
			for k := 0; k < pl.rounds; k++ {
				t0 := cp.Now()
				send, err := agg.readChunk(cp, k)
				if err != nil {
					errs = append(errs, err)
				}
				c.ioIv = append(c.ioIv, probe.Interval{From: t0, To: cp.Now()})
				sp := rec.Span(ioTrk, "collective", "chunk.access", t0, cp.Now(), 0, 0)
				q.Put(cp, agg.handOff(k, send, sp))
			}
			return errors.Join(errs...)
		})
}

// round is what one pipeline stage hands the other through the stage
// queue.
type round struct {
	k    int
	send []mpp.Msg    // read: the delivered chunk's messages, sized for the exchange
	span probe.SpanID // producing stage's span: the consumer's causal parent
}

// aggState is one aggregator rank's device-access state, the handle's
// and reused call after call: bound at the start of a call to the
// schedule's prepared plan (mapped, sorted and merged once, cut at the
// chunk boundaries — the schedule's, so it replays with it) and to the
// call's staging — at most two chunk buffers per domain, the bounded
// memory Options.ChunkBytes is named for, out of the handle's free list
// only while the call runs (takeStage / putStage). A workload whose
// schedules never repeat therefore allocates the plan and nothing else.
// msgScr holds the read path's two in-flight outgoing message lists:
// round k's list sits in the stage queue while round k+1 is being sized,
// and slot k%2 is free again by round k+2 because the exchange stage is
// sequential.
type aggState struct {
	c      *Collective
	pl     *plan
	cut    *cutPlan
	owned  []int
	stage  [][2][]byte
	bufs   [][]byte // chunkBufs' result, rebuilt per round by the access stage
	msgScr [2][]mpp.Msg
	// slots are the two rounds in flight between the stages (handOff).
	slots [2]round
}

// handOff fills round k's hand-off slot and returns it for the stage
// queue. A pointer into the state boxes without allocating, where the
// value did once per round; the consumer copies the slot out as it takes
// it off the depth-1 queue, before the producer can have put round k+1
// and come back for this slot with round k+2.
func (s *aggState) handOff(k int, send []mpp.Msg, span probe.SpanID) *round {
	r := &s.slots[k%2]
	*r = round{k: k, send: send, span: span}
	return r
}

// bindAgg binds rank's aggregator state to the schedule's plan, prepared
// windows and owned domains.
func (c *Collective) bindAgg(sd *schedule, rank int) *aggState {
	if c.aggs == nil {
		c.aggs = make([]*aggState, c.size)
	}
	s := c.aggs[rank]
	if s == nil {
		s = &aggState{c: c}
		c.aggs[rank] = s
	}
	s.pl, s.cut, s.owned = sd.pl, sd.cut, sd.ownedOf[rank]
	n := len(s.owned)
	if cap(s.stage) < n {
		s.stage, s.bufs = make([][2][]byte, n), make([][]byte, n)
	}
	s.stage, s.bufs = s.stage[:n], s.bufs[:n]
	return s
}

// takeStage takes the call's staging from the handle's free list: one
// buffer of the round table's largest chunk per nonempty owned domain, and
// the second of the double buffer only for a domain that has a second
// chunk — a one-round call holds one buffer per domain. Every buffer is
// one size, so a call of unequal rounds recycles what the last one
// returned. Contents are stale, which is safe: a write chunk is fully
// covered by the ranks' clips (domains tile the covered footprint) and a
// read chunk fully overwritten by the device read, so stale bytes never
// travel.
func (s *aggState) takeStage() {
	var chunk, lo int64
	for _, hi := range s.pl.ends {
		chunk, lo = max(chunk, hi-lo), hi
	}
	n := int(chunk * s.pl.bs)
	for i, a := range s.owned {
		lo, hi := s.pl.domain(a)
		if hi > lo {
			s.stage[i][0] = s.c.getDom(n)
		}
		if hi-lo > s.pl.ends[0] {
			s.stage[i][1] = s.c.getDom(n)
		}
	}
}

// putStage returns the call's staging, whatever became of the call.
func (s *aggState) putStage() {
	for i := range s.stage {
		for j, b := range s.stage[i] {
			if b != nil {
				s.c.putDom(b)
				s.stage[i][j] = nil
			}
		}
	}
}

// chunkBufs returns the staging of chunk k of every owned domain, each
// sized to its window (empty once a ragged domain has run out). Buffers
// alternate per round; buffer k%2 is free again by round k+2 because the
// access stage, the only caller, is sequential.
func (s *aggState) chunkBufs(k int) [][]byte {
	for i, a := range s.owned {
		lo, hi := s.pl.chunkWindow(a, k)
		s.bufs[i] = s.stage[i][k%2][:(hi-lo)*s.pl.bs]
	}
	return s.bufs
}

// window issues chunk k of the i-th owned domain — its window of the
// call's prepared plan — between the drives and buf, the chunk's staging.
func (s *aggState) window(i, k int, write bool, ctx sim.Context, buf []byte) error {
	a := s.owned[i]
	lo, _ := s.pl.chunkWindow(a, k)
	if write {
		return s.cut.plan.WriteWindow(ctx, s.cut.win0[a]+k, buf, lo*s.pl.bs)
	}
	return s.cut.plan.ReadWindow(ctx, s.cut.win0[a]+k, buf, lo*s.pl.bs)
}

// writeChunk assembles round k — every rank's clips in chunk k of the
// owned domains, copied straight out of the ranks' buffers — into the
// chunk staging buffers and issues each chunk's window of the prepared
// plan. Assembly is pure compute, so finishing it before the first
// WriteWindow leaves the device schedule bit-identical to assembling per
// domain. It runs after Round(k), once the exchange has charged the
// bytes' transfer; the ranks are all inside the call until the pipeline
// drains, so their buffers hold still.
func (s *aggState) writeChunk(ctx sim.Context, k int) error {
	bufs := s.chunkBufs(k)
	s.pl.copyChunk(s.owned, k, bufs, s.c.bufs, true)
	var errs []error
	for i, buf := range bufs {
		if len(buf) == 0 {
			continue
		}
		if err := s.window(i, k, true, ctx, buf); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// readChunk reads chunk k of every owned domain through the prepared
// plans, delivers it into the ranks' buffers and sizes the ranks' round-k
// messages — the read mirror of writeChunk. Delivery cannot wait for
// Round(k): by the time that ends this stage may be reading chunk k+2
// into the same staging. Delivery and sizing run without parking, after
// all the reads, keeping the handle-shared sizing scratch consistent.
func (s *aggState) readChunk(ctx sim.Context, k int) ([]mpp.Msg, error) {
	bufs := s.chunkBufs(k)
	var errs []error
	for i, buf := range bufs {
		if len(buf) == 0 {
			continue
		}
		if err := s.window(i, k, false, ctx, buf); err != nil {
			errs = append(errs, err)
		}
	}
	s.pl.copyChunk(s.owned, k, bufs, s.c.bufs, false)
	s.msgScr[k%2] = s.c.packChunkDomains(s.pl, s.owned, k, s.msgScr[k%2][:0])
	return s.msgScr[k%2], errors.Join(errs...)
}

// copyChunk moves chunk k of the owned domains between stage, the
// chunk's staging of each (a whole domain, when the plan has one window
// per domain), and bufs, every rank's own buffer: each clip of each rank
// in the chunk is one copy, into the staging for a write (assemble) and
// out of it for a read (deliver). The ranks share one address space, so
// no payload carries the bytes between them; the exchange charges their
// size (packChunkSparse, packChunkDomains). Within a domain the ranks go
// in ascending order, so LastWriterWins overlaps resolve to the highest
// rank's bytes.
func (pl *plan) copyChunk(owned []int, k int, stage, bufs [][]byte, write bool) {
	for i, a := range owned {
		lo, hi := pl.chunkWindow(a, k)
		st := stage[i]
		for _, r := range pl.ranksIn[a] {
			buf := bufs[r]
			pl.forEachClipWin(int(r), lo, hi, func(cl clip) {
				dom, own := st[cl.domOff:][:cl.n*pl.bs], buf[cl.bufOff:][:cl.n*pl.bs]
				if write {
					copy(dom, own)
				} else {
					copy(own, dom)
				}
			})
		}
	}
}

// packChunkDomains appends an aggregator's round-k read messages to
// msgs: one per rank with a clip in chunk k of any owned domain, sized to
// the rank's clips there (copyChunk delivers their bytes).
func (c *Collective) packChunkDomains(pl *plan, owned []int, k int, msgs []mpp.Msg) []mpp.Msg {
	first := len(msgs)
	for _, a := range owned {
		lo, hi := pl.chunkWindow(a, k)
		for _, r := range pl.ranksIn[a] {
			msgs = c.sized(msgs, k, int(r), pl.winBytes(int(r), lo, hi))
		}
	}
	return c.sizedDone(msgs, first)
}

// packChunkSparse appends rank's round-k write messages to msgs: one per
// owner of a domain whose chunk-k window holds a clip of the rank, sized
// to the rank's clips in the owner's domains (copyChunk assembles their
// bytes). Messages carry their round, so a rank may size all its rounds
// into one list and post them.
func (c *Collective) packChunkSparse(pl *plan, rank, k int, msgs []mpp.Msg) []mpp.Msg {
	first := len(msgs)
	for _, a := range pl.domsOf[rank] {
		lo, hi := pl.chunkWindow(int(a), k)
		msgs = c.sized(msgs, k, pl.owner[a], pl.winBytes(rank, lo, hi))
	}
	return c.sizedDone(msgs, first)
}

// sized adds n bytes to msgs' round-k message to dst, opening it for the
// first bytes. A window without a clip sends nothing, so round-level pair
// counts (and the exchange's per-pair setup charges) match the dense
// schedule exactly. c.dstIdx keeps each open message's index until
// sizedDone.
func (c *Collective) sized(msgs []mpp.Msg, k, dst int, n int64) []mpp.Msg {
	if n == 0 {
		return msgs
	}
	i := c.dstIdx[dst]
	if i < 0 {
		i, c.dstIdx[dst] = len(msgs), len(msgs)
		msgs = append(msgs, mpp.Msg{Dst: dst, Round: k})
	}
	msgs[i].Len += int(n)
	return msgs
}

// sizedDone closes the messages sized since msgs[first], leaving c.dstIdx
// all -1 again.
func (c *Collective) sizedDone(msgs []mpp.Msg, first int) []mpp.Msg {
	for _, m := range msgs[first:] {
		c.dstIdx[m.Dst] = -1
	}
	return msgs
}

// packRounds sizes every round's write messages of rank into one list,
// in round order — what a rank that posts its rounds hands the exchange,
// and a nonblocking call's one round.
func (c *Collective) packRounds(pl *plan, rank int) []mpp.Msg {
	msgs := c.msgScratch[rank][:0]
	for k := 0; k < pl.rounds; k++ {
		msgs = c.packChunkSparse(pl, rank, k, msgs)
	}
	c.msgScratch[rank] = msgs
	return msgs
}

// batchVec assembles the cross-file batch shape of the covered-index
// window [lo, hi) with no buffers bound and offsets relative to the
// window start — the input to blockio's prepared, windowed batch plan.
// The window is the whole call (schedule.cut), or any part of it. plan.locate
// names the Set behind each key, so a logical window lists its files and
// an aligned one is one item on the identity Set.
func (pl *plan) batchVec(lo, hi int64) blockio.BatchVec {
	var batch blockio.BatchVec
	// The items' descriptors are slices of one array, each its tail while
	// it grows: a span yields one segment, and one more for every file
	// boundary it crosses.
	segs := make(blockio.Vec, 0, len(pl.covered)+pl.group.Len())
	pl.forEachSpanWin(lo, hi, func(key, n, off int64) {
		for n > 0 {
			set, block, seg := pl.locate(key)
			if seg > n {
				seg = n
			}
			if len(batch) == 0 || batch[len(batch)-1].Set != set {
				batch = append(batch, blockio.BatchItem{Set: set, Vec: segs[len(segs):]})
			}
			segs = append(segs, blockio.VecSeg{Block: block, N: seg, BufOff: off})
			it := &batch[len(batch)-1]
			it.Vec = it.Vec[:len(it.Vec)+1]
			key += seg
			off += seg * pl.bs
			n -= seg
		}
	})
	return batch
}
