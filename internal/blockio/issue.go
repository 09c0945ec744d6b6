// Issue: the last stage of the transfer pipeline (describe → map →
// transform → issue) and the only code in the package that touches a
// Store. Whatever produced the runs — Layout.Map for one block, the
// mapper for a descriptor or a plan window, the sieving transform for
// covering runs — they all leave through the one loop below: each run's
// segments are bound to the caller's buffer as a scatter/gather list, the
// list goes to the store's vectored primitive (or to the per-run body a
// sieved write supplies), a lone run inline and several in parallel, and
// the transfer is recorded on the store's flight recorder.

package blockio

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// runBody moves one bound run of a transfer: iov is the run's
// scatter/gather list and scratch the pooled span its hole segments were
// bound to (nil for a run without holes).
type runBody func(ctx sim.Context, r Run, iov [][]byte, scratch []byte) error

// xfer is one transfer in flight: what every run of it shares.
type xfer struct {
	store Store
	write bool
	bs    int64
	buf   []byte // the caller's buffer …
	base  int64  // … standing in for the buffer space from this offset
	body  runBody
}

// parXfer is a transfer of several runs in flight: what sim.ParN's
// branches share, with each — the branch body — bound to it once.
type parXfer struct {
	xfer
	runs []Run
	each func(sim.Context, int) error
}

func (px *parXfer) run(ctx sim.Context, i int) error { return px.one(ctx, px.runs[i]) }

var parPool = sync.Pool{New: func() any {
	px := new(parXfer)
	px.each = px.run
	return px
}}

// iovPool recycles scatter/gather lists, the one-element list of a block
// or a contiguous range included, so a steady stream of transfers binds
// its buffers without allocating. sievePool does the same for the
// scratch spans hole segments move through (the spans can be large —
// that is the point of sieving).
var (
	iovPool   = sync.Pool{New: func() any { return new([][]byte) }}
	sievePool = sync.Pool{New: func() any { return new([]byte) }}
)

// issue transfers runs — absolute physical addresses, (device, block)
// order — between store and buf, which stands in for the runs' buffer
// space from byte offset base on. A run without Segs is contiguous in
// the buffer and buf is exactly it. A single run transfers on the
// calling process; several proceed in parallel across devices under a
// simulation engine (sim.Par), in run order. body, when not nil,
// replaces the store's vectored primitive as the per-run transfer.
// Segments must lie inside buf: descriptors are validated before they
// are mapped, plan windows before they are issued.
func issue(ctx sim.Context, store Store, op string, write bool, runs []Run, buf []byte, base int64, body runBody) error {
	if len(runs) == 0 {
		return nil
	}
	x := xfer{store: store, write: write, bs: int64(store.BlockSize()), buf: buf, base: base, body: body}
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
		err = x.one(ctx, runs[0])
	} else {
		// The branches share a pooled copy of x and of the runs and take
		// their run by index: x or runs captured themselves would move to
		// the heap on every call, the single-run path above (and the
		// one-run literal of Set.ReadBlock) included, and a closure per
		// run is an allocation per drive.
		px := parPool.Get().(*parXfer)
		px.xfer, px.runs = x, append(px.runs[:0], runs...)
		err = sim.ParN(ctx, len(runs), px.each)
		px.xfer = xfer{}
		clear(px.runs)
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

// one binds run r to the buffer and transfers it. Hole segments bind to
// a pooled scratch span the size of the run, each hole at its own offset
// within the run.
func (x *xfer) one(ctx sim.Context, r Run) error {
	lp := iovPool.Get().(*[][]byte)
	iov := (*lp)[:0]
	var sp *[]byte
	var scratch []byte
	if len(r.Segs) == 0 {
		iov = append(iov, x.buf)
	}
	var pos int64
	for _, sg := range r.Segs {
		n := sg.Blocks * x.bs
		if sg.BufOff == hole {
			if sp == nil {
				sp = getSieveBuf(r.N * x.bs)
				scratch = *sp
			}
			iov = append(iov, scratch[pos:pos+n])
		} else {
			off := sg.BufOff - x.base
			iov = append(iov, x.buf[off:off+n])
		}
		pos += n
	}
	var err error
	switch {
	case x.body != nil:
		err = x.body(ctx, r, iov, scratch)
	case x.write:
		err = x.store.WriteBlocksVec(ctx, r.Dev, r.PBlock, int(r.N), iov)
	default:
		err = x.store.ReadBlocksVec(ctx, r.Dev, r.PBlock, int(r.N), iov)
	}
	if sp != nil {
		sievePool.Put(sp)
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
