// The two-phase executor: every blocking two-phase call runs here, as
// rounds of exchange feeding rounds of device access, in the style of
// ROMIO's collective buffering (one loop parameterised by cb_buffer_size)
// and PVFS listio chunk pipelining — without the collective buffer.
//
// Each file domain is cut into chunks where the plan's round table says
// (plan.ends, one table for every domain: equal chunks, or chunks ramped
// in proportion to the round) and the collective runs plan.rounds
// exchange rounds (mpp.SparseExchange — per-pair setup charged once for
// the whole collective), round k moving chunk k of every domain
// (plan.chunkWindow), with every aggregator's device access running in a
// companion process fed through a depth-1 sim.Queue:
//
//	write: main   size(k) → Round(k) ──→ queue ──→ companion: bind(k) → WriteWindows(k)
//	read:  companion bind(k) → ReadWindows(k) → dups(k) → size(k) ──→ queue ──→ main: Round(k)
//
// An exchange message carries only its size (mpp.Msg.Len), and nothing is
// staged: every rank's buffer is in one address space, so chunk k of a
// domain is issued against a buffer space (blockio.Space) whose pieces
// are the ranks' own clips in it, and the drives gather a write straight
// out of the ranks' buffers and scatter a read straight into them — the
// memory list of list I/O (Ching et al.). The schedule freezes every
// chunk's piece table (spaceTab), so a call binds it to the ranks'
// buffers and sorts nothing. A write's clips never overlap (newPlan
// rejects that); where several readers share a block, one reader's piece
// takes the drive's bytes and the others copy from it once the chunk has
// read (dups) — and only if it read, so a failed read leaves every byte
// no drive returned as the caller left it. A write's chunk k goes to the
// drives once Round(k) has charged its bytes' transfer, a read's before
// Round(k) charges their delivery. The ranks are all inside the call
// until it returns and look at their buffers only then, so when within
// the call the bytes move is not observable.
//
// So while chunk k sits in the drives (writes) the main process is
// already exchanging chunk k+1, and while chunk k is being delivered to
// the ranks (reads) the companion is already reading chunk k+2's data —
// bounded by the depth-1 queue (it holds one round, the companion works
// on another). Device access goes through one blockio.BatchPlan prepared
// once per call and cut at every chunk of every domain (schedule.cut), so
// chunking never re-sorts or re-merges the physical pieces.
//
// One round is the schedule with nothing to overlap — plan → whole
// exchange → whole access, the interconnect idle while the drives work
// and the drives idle while bytes cross the link — and it is what a
// handle runs when nothing bounds the chunk and nothing prices a deeper
// pipeline (Options.ChunkBytes 0 under any Strategy but Auto): the same
// loop, once, each owned domain issued whole (TestOneRoundGoldens pins
// its modeled times to the nanosecond).
//
// Only the aggregators run the rounds. A rank that owns no domain has
// nothing to do between them — it sizes its messages before the first,
// free in virtual time, and the drives move its bytes — so it posts
// all its rounds at once and parks until the exchange is over
// (mpp.SparseExchange.Post: modeled time is what taking part in every
// round charges). A round therefore costs the host what its aggregators
// and its messages cost, not four engine dispatches for each of the
// group's ranks, and in steady state it allocates nothing: hand-off
// slots, the bound spaces, message lists, device requests and wait lists
// are all reused.
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
// server instead, but on the two-phase route size their messages with
// the same helpers and bind the same frozen table: round 0 of every
// domain, the whole call as one space.

package collective

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

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
		// drives move its bytes either way, so it posts its rounds and parks
		// once (mpp.SparseExchange.Post).
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
					if err := agg.chunks(cp, r.k, true); err != nil {
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
				if err := agg.chunks(cp, k, false); err != nil {
					errs = append(errs, err)
				}
				// Sizing runs without parking, after all the reads, keeping the
				// handle-shared sizing scratch consistent.
				send := c.packChunkDomains(pl, agg.owned, k, agg.msgScr[k%2][:0])
				agg.msgScr[k%2] = send
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
// chunk boundaries — the schedule's, so it replays with it) and piece
// table. sp is the space a chunk is bound in, rebuilt per window by the
// access stage, its only user. A workload whose schedules never repeat
// therefore allocates the plan and its table and nothing else.
// msgScr holds the read path's two in-flight outgoing message lists:
// round k's list sits in the stage queue while round k+1 is being sized,
// and slot k%2 is free again by round k+2 because the exchange stage is
// sequential.
type aggState struct {
	c      *Collective
	sd     *schedule
	owned  []int
	sp     blockio.Space
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
// windows, piece table and owned domains.
func (c *Collective) bindAgg(sd *schedule, rank int) *aggState {
	if c.aggs == nil {
		c.aggs = make([]*aggState, c.size)
	}
	s := c.aggs[rank]
	if s == nil {
		s = &aggState{c: c}
		c.aggs[rank] = s
	}
	s.sd, s.owned = sd, sd.ownedOf[rank]
	return s
}

// chunks issues chunk k of every owned domain — its window of the call's
// prepared plan — against the ranks' buffers, the chunk's piece table
// bound to them; a read that has read makes its dups. A domain that has
// run out (a ragged one) issues nothing. A write runs after Round(k), once
// the exchange has charged the bytes' transfer; the ranks are all inside
// the call until the pipeline drains, so their buffers hold still.
func (s *aggState) chunks(ctx sim.Context, k int, write bool) error {
	sd, bufs := s.sd, s.c.bufs
	var errs []error
	for _, a := range s.owned {
		if lo, hi := sd.pl.chunkWindow(a, k); lo == hi {
			continue
		}
		i, w := a*sd.pl.rounds+k, sd.cut.win0[a]+k
		s.sp = sd.tab.bind(s.sp[:0], i, i+1, bufs)
		var err error
		if write {
			err = sd.cut.plan.WriteWindows(ctx, w, w+1, s.sp)
		} else if err = sd.cut.plan.ReadWindows(ctx, w, w+1, s.sp); err == nil {
			sd.tab.copyDups(i, i+1, bufs)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	clear(s.sp)
	return errors.Join(errs...)
}

// part is one piece of a chunk's buffer space as a schedule freezes it:
// the n bytes at plan offset off are rank's buffer bytes
// [bufOff, bufOff+n).
type part struct {
	off, bufOff, n int64
	rank           int
}

// dup is a read's bytes that another reader's piece takes from the
// drive: once the chunk has read, from's bytes are copied to to's.
type dup struct{ to, from part }

// spaceTab is a two-phase call's buffer space, frozen with its schedule
// (plan.space): chunk k of domain a is table entry i = a·rounds+k, its
// pieces parts[at[i]:at[i+1]] — ascending by plan offset, tiling the
// chunk — and its shared reads dups[dat[i]:dat[i+1]].
type spaceTab struct {
	parts   []part
	dups    []dup
	at, dat []int
}

// space builds the call's piece table from every rank's clips in every
// chunk of every domain, resolving a read's overlaps (dups). The pieces are
// appended to parts[:0]: an evicted schedule's, whose memory is dead by
// then (scheduleFor), grown first to what the clips number where no two
// segments overlap: every segment, plus one for each window edge that
// cuts one.
func (pl *plan) space(parts []part) *spaceTab {
	n := pl.naggs*pl.rounds + 1
	clips := n
	for _, segs := range pl.segs {
		clips += len(segs)
	}
	t := &spaceTab{parts: slices.Grow(parts[:0], clips), at: make([]int, 1, n), dat: make([]int, 1, n)}
	for a := 0; a < pl.naggs; a++ {
		for k := 0; k < pl.rounds; k++ {
			lo, hi := pl.chunkWindow(a, k)
			p0 := len(t.parts)
			for _, r := range pl.ranksIn(a) {
				pl.forEachClipWin(int(r), lo, hi, func(cl clip) {
					t.parts = append(t.parts, part{off: lo*pl.bs + cl.domOff, bufOff: cl.bufOff, n: cl.n * pl.bs, rank: int(r)})
				})
			}
			t.resolve(p0)
			t.at, t.dat = append(t.at, len(t.parts)), append(t.dat, len(t.dups))
		}
	}
	return t
}

// resolve makes one chunk's clips, t.parts[p0:], its pieces. Clips that
// do not overlap — a write's never do — are the pieces as they are, by
// offset. Where a read's do, the chunk is cut at every clip's ends and
// each stretch goes to the clip that reached it first (lowest offset,
// then rank), every other reader of the stretch a dup of it.
func (t *spaceTab) resolve(p0 int) {
	cs := t.parts[p0:]
	slices.SortFunc(cs, func(x, y part) int { return cmp.Or(cmp.Compare(x.off, y.off), cmp.Compare(x.rank, y.rank)) })
	overlap := false
	for i := 1; i < len(cs); i++ {
		overlap = overlap || cs[i].off < cs[i-1].off+cs[i-1].n
	}
	if !overlap {
		return
	}
	cs, t.parts = slices.Clone(cs), t.parts[:p0]
	var ends []int64
	for _, c := range cs {
		ends = append(ends, c.off, c.off+c.n)
	}
	slices.Sort(ends)
	var live []part // the clips covering the stretch, in cs order
	next := 0
	for e := 1; e < len(ends); e++ {
		lo, hi := ends[e-1], ends[e]
		live = slices.DeleteFunc(live, func(c part) bool { return c.off+c.n <= lo })
		for ; next < len(cs) && cs[next].off <= lo; next++ {
			live = append(live, cs[next])
		}
		if lo == hi || len(live) == 0 {
			continue
		}
		at := func(c part) part { return part{off: lo, bufOff: c.bufOff + lo - c.off, n: hi - lo, rank: c.rank} }
		src := at(live[0])
		t.parts = append(t.parts, src)
		for _, c := range live[1:] {
			t.dups = append(t.dups, dup{to: at(c), from: src})
		}
	}
}

// bind appends to sp the pieces of table entries [i, j) bound to the
// ranks' buffers: the space those chunks are issued against.
func (t *spaceTab) bind(sp blockio.Space, i, j int, bufs [][]byte) blockio.Space {
	for _, p := range t.parts[t.at[i]:t.at[j]] {
		sp = append(sp, blockio.Piece{Off: p.off, Buf: bufs[p.rank][p.bufOff:][:p.n]})
	}
	return sp
}

// copyDups makes the dups of table entries [i, j) in the ranks' buffers,
// once those chunks have read.
func (t *spaceTab) copyDups(i, j int, bufs [][]byte) {
	for _, d := range t.dups[t.dat[i]:t.dat[j]] {
		copy(bufs[d.to.rank][d.to.bufOff:][:d.to.n], bufs[d.from.rank][d.from.bufOff:][:d.from.n])
	}
}

// packChunkDomains appends an aggregator's round-k read messages to
// msgs: one per rank with a clip in chunk k of any owned domain, sized to
// the rank's clips there (the drives deliver their bytes).
func (c *Collective) packChunkDomains(pl *plan, owned []int, k int, msgs []mpp.Msg) []mpp.Msg {
	first := len(msgs)
	for _, a := range owned {
		lo, hi := pl.chunkWindow(a, k)
		for _, r := range pl.ranksIn(a) {
			msgs = c.sized(msgs, k, int(r), pl.winBytes(int(r), lo, hi))
		}
	}
	return c.sizedDone(msgs, first)
}

// packChunkSparse appends rank's round-k write messages to msgs: one per
// owner of a domain whose chunk-k window holds a clip of the rank, sized
// to the rank's clips in the owner's domains (the drives gather their
// bytes). Messages carry their round, so a rank may size all its rounds
// into one list and post them.
func (c *Collective) packChunkSparse(pl *plan, rank, k int, msgs []mpp.Msg) []mpp.Msg {
	first := len(msgs)
	for _, a := range pl.domsOf(rank) {
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
// window start — the input to blockio's prepared, windowed batch plan —
// in sc's batch and descriptor, which only live until it is planned.
// The window is the whole call (schedule.cut), or any part of it. plan.locate
// names the Set behind each key, so a logical window lists its files and
// an aligned one is one item on the identity Set.
func (pl *plan) batchVec(lo, hi int64, sc *planScratch) blockio.BatchVec {
	batch := sc.batch[:0]
	// The items' descriptors are slices of one array, each its tail while
	// it grows: a span yields one segment, and one more for every file
	// boundary it crosses.
	segs := slices.Grow(sc.vec[:0], len(pl.covered)+pl.group.Len())
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
	sc.batch, sc.vec = batch, segs
	return batch
}
