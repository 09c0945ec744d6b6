// Issue: the last stage of the transfer pipeline (describe → map →
// transform → issue) and the only code in the package that touches a
// Store. Whatever produced the runs — the mapper for a descriptor (one
// block is its one-segment case) or a plan window, the sieving transform
// for covering runs — they all leave through the one loop below: each run's
// segments are bound to the caller's buffer space as a scatter/gather
// list, the list goes to the store's vectored primitive (or to the
// per-run body a sieved write supplies), a lone run inline and several in
// parallel, and the transfer is recorded on the store's flight recorder.

package blockio

import (
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// runBody moves one bound run of a transfer: iov is the run's
// scatter/gather list and scratch the pooled span its hole segments were
// bound to (nil for a run without holes).
type runBody func(ctx sim.Context, r Run, iov [][]byte, scratch []byte) error

// Piece is one stretch of a buffer space: the space's bytes
// [Off, Off+len(Buf)) live in Buf.
type Piece struct {
	Off int64
	Buf []byte
}

// Space is the buffer space a transfer moves: pieces ascending by Off and
// disjoint, which may lie anywhere in memory. A run's segments bind to the
// pieces they span, so a drive scatters into (gathers from) every piece
// directly — list I/O's memory list (Ching et al.). A contiguous buffer is
// the one-piece space. Where a segment binds, the pieces must cover its
// bytes with no gap, and every stretch it binds to must be whole blocks.
type Space []Piece

// bind walks the stretches of sp that hold the space bytes [off, off+n)
// and, when iov is not nil, appends them to it. It reports false where a
// gap or a part-block stretch leaves the bytes not covered.
func (sp Space) bind(off, n, bs int64, iov *[][]byte) bool {
	i := sort.Search(len(sp), func(i int) bool { return sp[i].Off+int64(len(sp[i].Buf)) > off })
	for ; n > 0; i++ {
		if i == len(sp) || sp[i].Off > off || off-sp[i].Off >= int64(len(sp[i].Buf)) {
			return false // a gap, or pieces out of order
		}
		b := sp[i].Buf[off-sp[i].Off:]
		b = b[:min(n, int64(len(b)))]
		if int64(len(b))%bs != 0 {
			return false
		}
		if iov != nil {
			*iov = append(*iov, b)
		}
		off, n = off+int64(len(b)), n-int64(len(b))
	}
	return true
}

// xfer is one transfer in flight: what every run of it shares.
type xfer struct {
	store Store
	write bool
	bs    int64
	body  runBody
}

// parXfer is a transfer of several runs in flight: what sim.ParN's
// branches share, with each — the branch body — bound to it once. sp is
// its own copy of the space, so the caller's list never leaves its frame.
type parXfer struct {
	xfer
	runs []Run
	sp   Space
	each func(sim.Context, int) error
}

func (px *parXfer) run(ctx sim.Context, i int) error { return px.one(ctx, px.runs[i], px.sp) }

var parPool = sync.Pool{New: func() any {
	px := new(parXfer)
	px.each = px.run
	return px
}}

// iovPool recycles scatter/gather lists, the one-element list of a
// contiguous run included, so a steady stream of transfers binds
// its buffers without allocating. sievePool does the same for the
// scratch spans hole segments move through (the spans can be large —
// that is the point of sieving).
var (
	iovPool   = sync.Pool{New: func() any { return new([][]byte) }}
	sievePool = sync.Pool{New: func() any { return new([]byte) }}
)

// issue transfers runs — absolute physical addresses, (device, block)
// order — between store and the buffer space sp. A run without Segs is
// the space's first r.N blocks. A single run transfers on the calling
// process; several proceed in parallel across devices under a simulation
// engine (sim.Par), in run order. body, when not nil, replaces the
// store's vectored primitive as the per-run transfer. sp must cover every
// segment: descriptors are validated before they are mapped, plan
// windows before they are issued.
func issue(ctx sim.Context, store Store, op string, write bool, runs []Run, sp Space, body runBody) error {
	if len(runs) == 0 {
		return nil
	}
	x := xfer{store: store, write: write, bs: int64(store.BlockSize()), body: body}
	bp := probeOf(store)
	// Spans carry virtual time only, like the drives' own: a transfer
	// outside the engine is counted but leaves no span.
	_, timed := ctx.(*sim.Proc)
	var t0 time.Duration
	if bp != nil && timed {
		t0 = ctx.Now()
	}
	var err error
	if len(runs) == 1 {
		err = x.one(ctx, runs[0], sp)
	} else {
		// The branches share a pooled copy of x, the runs and the space and
		// take their run by index: x, runs or sp captured themselves would
		// move to the heap on every call, the single-run path above (and
		// the one-piece space literal of a Set transfer's buffer) included,
		// and a closure per run is an allocation per drive.
		px := parPool.Get().(*parXfer)
		px.xfer, px.runs, px.sp = x, append(px.runs[:0], runs...), append(px.sp[:0], sp...)
		err = sim.ParN(ctx, len(runs), px.each)
		px.xfer = xfer{}
		clear(px.runs)
		clear(px.sp)
		parPool.Put(px)
	}
	if bp != nil {
		var blocks int64
		for _, r := range runs {
			blocks += r.N
		}
		nb := blocks * x.bs
		bp.batches.Add(1)
		bp.runs.Add(int64(len(runs)))
		bp.bytes.Add(nb)
		if timed {
			bp.rec.Span(bp.trk, "blockio", op, t0, ctx.Now(), nb, 0)
		}
	}
	return err
}

// one binds run r to the buffer space and transfers it. Hole segments
// bind to a pooled scratch span the size of the run, each hole at its own
// offset within the run.
func (x *xfer) one(ctx sim.Context, r Run, sp Space) error {
	lp := iovPool.Get().(*[][]byte)
	*lp = (*lp)[:0]
	var hp *[]byte
	var scratch []byte
	if len(r.Segs) == 0 {
		sp.bind(0, r.N*x.bs, x.bs, lp)
	}
	var pos int64
	for _, sg := range r.Segs {
		n := sg.Blocks * x.bs
		if sg.BufOff == hole {
			if hp == nil {
				hp = getSieveBuf(r.N * x.bs)
				scratch = *hp
			}
			*lp = append(*lp, scratch[pos:pos+n])
		} else {
			sp.bind(sg.BufOff, n, x.bs, lp)
		}
		pos += n
	}
	iov := *lp
	var err error
	switch {
	case x.body != nil:
		err = x.body(ctx, r, iov, scratch)
	case x.write:
		err = x.store.WriteBlocksVec(ctx, r.Dev, r.PBlock, int(r.N), iov)
	default:
		err = x.store.ReadBlocksVec(ctx, r.Dev, r.PBlock, int(r.N), iov)
	}
	if hp != nil {
		sievePool.Put(hp)
	}
	clear(iov)
	*lp = iov[:0]
	iovPool.Put(lp)
	return err
}

// getSieveBuf pops a pooled buffer of at least n bytes.
func getSieveBuf(n int64) *[]byte {
	bp := sievePool.Get().(*[]byte)
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// probeOf reports the store's attached batch probe, or nil.
func probeOf(store Store) *batchProbe {
	if sp, ok := store.(storeProber); ok {
		return sp.batchProbe()
	}
	return nil
}
