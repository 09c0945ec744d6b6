// The pipelined two-phase schedule (Options.ChunkBytes > 0): chunked
// aggregator staging buffers that overlap the exchange phase with the
// device-access phase, in the style of ROMIO's collective buffering
// (cb_buffer_size) and PVFS listio chunk pipelining.
//
// The single-shot schedule is a hard barrier: plan → whole exchange →
// whole access, so the interconnect idles while the drives work and the
// drives idle while bytes cross the link. Here each file domain is cut
// into chunk-aligned sub-domains (plan.chunkWindow) and the collective
// runs plan.rounds exchange rounds (mpp.SparseExchange — per-pair setup
// charged once for the whole collective), with every aggregator's device
// access running in a companion process fed through a depth-1 sim.Queue:
//
//	write: main   pack(k) → Round(k) ──→ queue ──→ companion: assemble(k) → WriteWindow(k)
//	read:  companion ReadWindow(k) → pack(k) ──→ queue ──→ main: Round(k) → scatter(k)
//
// So while chunk k sits in the drives (writes) the main process is
// already exchanging chunk k+1, and while chunk k is being delivered to
// the ranks (reads) the companion is already reading chunk k+2's data —
// bounded by the double-buffered staging (the queue holds one round,
// the companion works on another). Device access goes through a
// blockio.BatchPlan prepared once per domain, so chunking never
// re-sorts or re-merges the physical pieces.
//
// Only the aggregators run the rounds. A rank that owns no domain has
// nothing to do between them — it packs before the first and scatters
// after the last, both free in virtual time — so it posts all its rounds
// at once and parks until the exchange is over
// (mpp.SparseExchange.Post: modeled time is what taking part in every
// round charges). A round therefore costs the host what its aggregators
// and its messages cost, not four engine dispatches for each of the
// group's ranks, and in steady state it allocates nothing: hand-off
// slots, staging, message lists, payloads, device requests and wait
// lists are all reused.
//
// What a chunk is on the drives is the plan's business, not this file's.
// A chunk of a logical domain is a contiguous slice of the files: on a
// declustered file, a short piece on every drive, every round. A chunk
// of a drive-aligned domain (plan.aligned, StrategyAuto's other
// two-phase candidate) is a contiguous slice of one drive, so a round is
// one long request per drive. How many rounds is a price there, not a
// setting: Options.ChunkBytes bounds the chunk, and strategy.go's
// alignedCost runs every depth below that bound — each chunk cut in 2,
// 4, 8, … — through the two-stage pipeline formula, pricing the extra
// request a drive takes per round with the drive's own service time,
// and keeps the cheapest. Nothing below tells the two partitions apart.

package collective

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/blockio"
	"repro/internal/mpp"
	"repro/internal/probe"
	"repro/internal/sim"
)

// iv is one busy interval of a phase, in virtual time.
type iv struct{ from, to time.Duration }

// runPipelined executes the chunked schedule for one rank, leaving its
// error in c.errs[rank]. Called with pl.rounds > 0.
func (c *Collective) runPipelined(p *mpp.Proc, sd *schedule, write bool, buf []byte) {
	rank := p.Rank()
	pl := sd.pl
	rec, trk, prefix := p.Probe()
	ex := p.NewSparseExchange()
	var agg *aggState
	var err error
	if owned := sd.ownedOf[rank]; len(owned) > 0 {
		agg, err = sd.aggState(c, rank, owned)
	}
	if agg == nil {
		// A rank with no domain has nothing to do between rounds: it packs
		// every round's payloads now (writes) or scatters them at the end
		// (reads), both free in virtual time, so it posts its rounds and
		// parks once (mpp.SparseExchange.Post). So does an aggregator whose
		// state could not be built — unreachable in practice, the plan's
		// windows are valid by construction — dropping what it is sent.
		var send []mpp.Msg
		if write {
			send = c.packRounds(pl, rank, buf)
		}
		t0 := p.Now()
		recv := ex.Post(send, pl.rounds)
		c.commIv = append(c.commIv, iv{t0, p.Now()})
		rec.Span(trk, "collective", "chunk.exchange", t0, p.Now(), 0, 0)
		c.scatterRounds(pl, rank, recv, buf, !write)
		p.RecycleRecv(recv)
		c.errs[rank] = err
		return
	}
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
					send := c.packChunkSparse(pl, rank, k, buf, c.msgScratch[rank][:0])
					c.msgScratch[rank] = send
					t0 := p.Now()
					recv := ex.Round(send)
					c.commIv = append(c.commIv, iv{t0, p.Now()})
					sp := rec.Span(trk, "collective", "chunk.exchange", t0, p.Now(), 0, 0)
					q.Put(p.Proc, agg.handOff(k, recv, nil, sp))
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
					if err := agg.writeChunk(cp, r.k, r.recv); err != nil {
						errs = append(errs, err)
					}
					c.ioIv = append(c.ioIv, iv{t0, cp.Now()})
					rec.Span(ioTrk, "collective", "chunk.access", t0, cp.Now(), 0, r.span)
					// The companion recycles on the rank's behalf: only
					// handle memory is touched, never engine state.
					p.RecycleRecv(r.recv)
				}
			})
		return
	}
	c.errs[rank] = sim.Pipe(p.Proc, "collective-io", 1,
		func(q *sim.Queue) error { // delivery stage, on the rank
			for k := 0; k < pl.rounds; k++ {
				var r round
				if v, ok := q.Get(p.Proc); ok {
					r = *v.(*round)
				}
				t0 := p.Now()
				recv := ex.Round(r.send)
				c.commIv = append(c.commIv, iv{t0, p.Now()})
				rec.Span(trk, "collective", "chunk.exchange", t0, p.Now(), 0, r.span)
				c.scatterChunkSparse(pl, rank, k, recv, buf)
				p.RecycleRecv(recv)
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
				c.ioIv = append(c.ioIv, iv{t0, cp.Now()})
				sp := rec.Span(ioTrk, "collective", "chunk.access", t0, cp.Now(), 0, 0)
				q.Put(cp, agg.handOff(k, nil, send, sp))
			}
			return errors.Join(errs...)
		})
}

// round is what one pipeline stage hands the other through the stage
// queue.
type round struct {
	k    int
	recv []mpp.RecvMsg // write: payloads received for the access stage
	send []mpp.Msg     // read: payloads packed for delivery
	span probe.SpanID  // producing stage's span: the consumer's causal parent
}

// aggState is one aggregator rank's pipelined device-access state: a
// prepared batch plan per owned domain (mapped, sorted and merged once,
// cut at the chunk boundaries) and two staging buffers per domain — the
// bounded memory the whole feature is named for. msgScr holds the read
// path's two in-flight outgoing message lists: round k's list sits in
// the stage queue while round k+1 is being packed, and slot k%2 is free
// again by round k+2 because the delivery stage is sequential.
type aggState struct {
	c      *Collective
	pl     *plan
	owned  []int
	plans  []*blockio.BatchPlan
	stage  [][2][]byte
	msgScr [2][]mpp.Msg
	// slots are the two rounds in flight between the stages (handOff).
	slots [2]round
}

// handOff fills round k's hand-off slot and returns it for the stage
// queue. A pointer into the state boxes without allocating, where the
// value did once per round; the consumer copies the slot out as it takes
// it off the depth-1 queue, before the producer can have put round k+1
// and come back for this slot with round k+2.
func (s *aggState) handOff(k int, recv []mpp.RecvMsg, send []mpp.Msg, span probe.SpanID) *round {
	r := &s.slots[k%2]
	*r = round{k: k, recv: recv, send: send, span: span}
	return r
}

func (c *Collective) newAggState(pl *plan, owned []int) (*aggState, error) {
	s := &aggState{c: c, pl: pl, owned: owned}
	for _, a := range owned {
		lo, hi := pl.domain(a)
		var cuts []int64
		for off := pl.chunkBlocks; off < hi-lo; off += pl.chunkBlocks {
			cuts = append(cuts, off*pl.bs)
		}
		plan, err := pl.batchVec(lo, hi).Plan(cuts)
		if err != nil {
			return nil, err
		}
		s.plans = append(s.plans, plan)
		n := pl.chunkBlocks * pl.bs
		s.stage = append(s.stage, [2][]byte{make([]byte, n), make([]byte, n)})
	}
	return s, nil
}

// chunkBuf returns the staging buffer for chunk k of owned domain i,
// sized to the chunk. Buffers alternate per round; buffer k%2 is free
// again by round k+2 because the access stage is sequential.
func (s *aggState) chunkBuf(i, k int, lo, hi int64) []byte {
	return s.stage[i][k%2][:(hi-lo)*s.pl.bs]
}

// writeChunk assembles round k's received payloads into the owned
// domains' chunk staging buffers and issues each chunk's window of the
// prepared plan. A single cursor walks each payload across the owned
// domains in ascending order, mirroring packChunkSparse's
// concatenation; the receive list is sorted by source first, so each
// domain sees its sources in rank order and LastWriterWins overlaps
// resolve exactly as in the single-shot schedule. Assembly is pure
// compute, so finishing it before the first WriteWindow leaves the
// device schedule bit-identical to assembling per domain.
func (s *aggState) writeChunk(ctx sim.Context, k int, recv []mpp.RecvMsg) error {
	pl := s.pl
	mpp.SortBySrc(recv)
	for _, m := range recv {
		var off int64
		for i, a := range s.owned {
			lo, hi := pl.chunkWindow(a, k)
			if lo >= hi {
				continue
			}
			buf := s.chunkBuf(i, k, lo, hi)
			pl.forEachClipWin(m.Src, lo, hi, func(cl clip) {
				n := cl.n * pl.bs
				copy(buf[cl.domOff:cl.domOff+n], m.Data[off:off+n])
				off += n
			})
		}
		s.c.putPay(m.Data)
	}
	var errs []error
	for i, a := range s.owned {
		lo, hi := pl.chunkWindow(a, k)
		if lo >= hi {
			continue
		}
		buf := s.chunkBuf(i, k, lo, hi)
		if err := s.plans[i].WriteWindow(ctx, k, buf, (lo-dlo(pl, a))*pl.bs); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// readChunk reads chunk k of every owned domain through the prepared
// plans, then packs the ranks' round-k messages from the fresh staging
// buffers — the read mirror of writeChunk. The pack copies into pooled
// payload buffers (staging is reused two rounds later, so bytes cannot
// ride the message by reference) and runs without parking, after all
// the reads, keeping the handle-shared pack scratch consistent.
func (s *aggState) readChunk(ctx sim.Context, k int) ([]mpp.Msg, error) {
	pl := s.pl
	var errs []error
	for i, a := range s.owned {
		lo, hi := pl.chunkWindow(a, k)
		if lo >= hi {
			continue
		}
		buf := s.chunkBuf(i, k, lo, hi)
		if err := s.plans[i].ReadWindow(ctx, k, buf, (lo-dlo(pl, a))*pl.bs); err != nil {
			errs = append(errs, err)
		}
	}
	c := s.c
	msgs := s.msgScr[k%2][:0]
	for i, a := range s.owned {
		lo, hi := pl.chunkWindow(a, k)
		if lo >= hi {
			continue
		}
		buf := s.chunkBuf(i, k, lo, hi)
		for _, r32 := range pl.ranksIn[a] {
			r := int(r32)
			pl.forEachClipWin(r, lo, hi, func(cl clip) {
				j := c.dstIdx[r]
				if j < 0 {
					j = len(msgs)
					msgs = append(msgs, mpp.Msg{Dst: r, Data: c.getPay()})
					c.dstIdx[r] = j
				}
				msgs[j].Data = append(msgs[j].Data, buf[cl.domOff:cl.domOff+cl.n*pl.bs]...)
			})
		}
	}
	for _, m := range msgs {
		c.dstIdx[m.Dst] = -1
	}
	s.msgScr[k%2] = msgs
	return msgs, errors.Join(errs...)
}

// dlo is domain a's covered-index start.
func dlo(pl *plan, a int) int64 {
	lo, _ := pl.domain(a)
	return lo
}

// packChunkSparse appends rank's round-k write messages to msgs: for
// each touched domain in ascending order, the rank's clips against that
// domain's chunk-k window concatenated onto the domain owner's payload
// — the chunked analogue of packRankMsgs, with the same canonical
// (domain asc, clip asc) order. A message is created only when the
// window actually holds a clip, so round-level pair counts (and the
// exchange's per-pair setup charges) match the dense schedule exactly.
// Messages carry their round, so a rank may pack all its rounds into one
// list and post them.
func (c *Collective) packChunkSparse(pl *plan, rank, k int, buf []byte, msgs []mpp.Msg) []mpp.Msg {
	first := len(msgs)
	for _, a32 := range pl.domsOf[rank] {
		a := int(a32)
		lo, hi := pl.chunkWindow(a, k)
		dst := pl.owner[a]
		pl.forEachClipWin(rank, lo, hi, func(cl clip) {
			i := c.dstIdx[dst]
			if i < 0 {
				i = len(msgs)
				msgs = append(msgs, mpp.Msg{Dst: dst, Round: k, Data: c.getPay()})
				c.dstIdx[dst] = i
			}
			msgs[i].Data = append(msgs[i].Data, buf[cl.bufOff:cl.bufOff+cl.n*pl.bs]...)
		})
	}
	for _, m := range msgs[first:] {
		c.dstIdx[m.Dst] = -1
	}
	return msgs
}

// scatterChunkSparse delivers round k's read payloads into rank's
// buffer, consuming each aggregator's payload with a per-message cursor
// across that aggregator's domains in ascending order (matching
// readChunk's packing). Consumed payloads return to the pool; the
// caller recycles the receive list itself.
func (c *Collective) scatterChunkSparse(pl *plan, rank, k int, recv []mpp.RecvMsg, buf []byte) {
	for _, m := range recv {
		var off int64
		for _, a32 := range pl.domsOf[rank] {
			a := int(a32)
			if pl.owner[a] != m.Src {
				continue
			}
			lo, hi := pl.chunkWindow(a, k)
			pl.forEachClipWin(rank, lo, hi, func(cl clip) {
				n := cl.n * pl.bs
				copy(buf[cl.bufOff:cl.bufOff+n], m.Data[off:off+n])
				off += n
			})
		}
		c.putPay(m.Data)
	}
}

// packRounds packs every round's write messages of rank into one list,
// in round order — what a rank that posts its rounds hands the exchange.
func (c *Collective) packRounds(pl *plan, rank int, buf []byte) []mpp.Msg {
	msgs := c.msgScratch[rank][:0]
	for k := 0; k < pl.rounds; k++ {
		msgs = c.packChunkSparse(pl, rank, k, buf, msgs)
	}
	c.msgScratch[rank] = msgs
	return msgs
}

// scatterRounds consumes what a rank that posted its rounds was sent
// over the whole exchange, a list in round order: each round's payloads
// are scattered into buf as scatterChunkSparse does round by round, or,
// with deliver false (a write: only an aggregator that could not build
// its state is sent anything), handed back to the pool unread.
func (c *Collective) scatterRounds(pl *plan, rank int, recv []mpp.RecvMsg, buf []byte, deliver bool) {
	for len(recv) > 0 {
		n := 1
		for n < len(recv) && recv[n].Round == recv[0].Round {
			n++
		}
		if deliver {
			c.scatterChunkSparse(pl, rank, recv[0].Round, recv[:n], buf)
		} else {
			for _, m := range recv[:n] {
				c.putPay(m.Data)
			}
		}
		recv = recv[n:]
	}
}

// batchVec assembles the cross-file batch shape of the covered-index
// window [lo, hi) with no buffers bound and offsets relative to the
// window start — the input to blockio's prepared, windowed batch plan.
// The window is one domain, or the whole call (nonblock.go). plan.locate
// names the Set behind each key, so a logical window lists its files and
// an aligned one is one item on the identity Set.
func (pl *plan) batchVec(lo, hi int64) blockio.BatchVec {
	var batch blockio.BatchVec
	pl.forEachSpanWin(lo, hi, func(key, n, off int64) {
		for n > 0 {
			set, block, seg := pl.locate(key)
			if seg > n {
				seg = n
			}
			if len(batch) == 0 || batch[len(batch)-1].Set != set {
				batch = append(batch, blockio.BatchItem{Set: set})
			}
			it := &batch[len(batch)-1]
			it.Vec = append(it.Vec, blockio.VecSeg{Block: block, N: seg, BufOff: off})
			key += seg
			off += seg * pl.bs
			n -= seg
		}
	})
	return batch
}

// busyUnion reports the total time covered by at least one interval
// (sorts ivs in place).
func busyUnion(ivs []iv) time.Duration {
	merged := mergeIvs(ivs)
	var total time.Duration
	for _, x := range merged {
		total += x.to - x.from
	}
	return total
}

// busyOverlap reports the total time covered by both interval sets.
func busyOverlap(a, b []iv) time.Duration {
	am, bm := mergeIvs(a), mergeIvs(b)
	var total time.Duration
	i, j := 0, 0
	for i < len(am) && j < len(bm) {
		lo, hi := am[i].from, am[i].to
		if bm[j].from > lo {
			lo = bm[j].from
		}
		if bm[j].to < hi {
			hi = bm[j].to
		}
		if hi > lo {
			total += hi - lo
		}
		if am[i].to < bm[j].to {
			i++
		} else {
			j++
		}
	}
	return total
}

// mergeIvs sorts the intervals in place and returns their merged,
// disjoint cover.
func mergeIvs(ivs []iv) []iv {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var out []iv
	for _, x := range ivs {
		if x.to <= x.from {
			continue
		}
		if k := len(out) - 1; k >= 0 && x.from <= out[k].to {
			if x.to > out[k].to {
				out[k].to = x.to
			}
			continue
		}
		out = append(out, x)
	}
	return out
}
