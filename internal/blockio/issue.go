// Issue: the last stage of the transfer pipeline (describe → map →
// transform → issue) and the only code in the package that touches a
// Store. Whatever produced the runs — the mapper for a descriptor (one
// block is its one-segment case) or a plan window, the sieving transform
// for covering runs — they all leave through the one function below:
// every run's segments are bound to the caller's buffer space as a
// scatter/gather list, the whole bound list goes to the store's vectored
// primitive in one call — list I/O, which a plain array serves as one
// batch of drive requests waited for once — or, for a sieved write, each
// covering run to its read-modify-write (sieve.go), and the transfer is
// recorded on the store's flight recorder.

package blockio

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

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

// end reports the space offset one past its last piece: the buffer length
// a descriptor is checked against before its coverage is.
func (sp Space) end() int64 {
	if len(sp) == 0 {
		return 0
	}
	return sp[len(sp)-1].Off + int64(len(sp[len(sp)-1].Buf))
}

// covers reports an error naming the first segment of vec whose bytes sp
// leaves not covered by whole blocks. A one-piece space at offset 0 covers
// whatever fits in it, which checkVec has already seen to.
func (sp Space) covers(op string, vec Vec, bs int64) error {
	if len(sp) == 1 && sp[0].Off == 0 {
		return nil
	}
	for i, sg := range vec {
		if sg.N > 0 && !sp.bind(sg.BufOff, sg.N*bs, bs, nil) {
			return fmt.Errorf("blockio: %s segment %d: buffer bytes [%d,%d) not covered by whole blocks of the buffer space",
				op, i, sg.BufOff, sg.BufOff+sg.N*bs)
		}
	}
	return nil
}

// Bound is one run of a transfer bound to memory: the N physically
// contiguous blocks at PBlock of device Dev move to or from the elements
// of Iov, consecutive blocks in consecutive elements — each a whole
// number of blocks, N in total.
type Bound struct {
	Dev    int
	PBlock int64
	N      int
	Iov    [][]byte
}

// xfer is one transfer's runs bound to memory: the bound list, the array
// every run's scatter/gather list is cut from, and for each run where
// its list ends in that array and the pooled scratch span its hole segments are bound to (nil for a run
// without holes). It is pooled, so a steady stream of transfers binds
// its buffers without allocating. A sieved write's fan-out shares it
// too (sieve.go): set is the Set whose covering runs these are, and rmw
// the branch body, bound the first time the xfer carries one.
type xfer struct {
	bound   []Bound
	iov     [][]byte
	ends    []int
	scratch []*[]byte
	set     *Set
	rmw     func(sim.Context, int) error
}

// xferPool recycles bindings; sievePool recycles the scratch spans hole
// segments move through (the spans can be large — that is the point of
// sieving).
var (
	xferPool  = sync.Pool{New: func() any { return new(xfer) }}
	sievePool = sync.Pool{New: func() any { return new([]byte) }}
)

// issue transfers runs — absolute physical addresses, (device, block)
// order — between store and the buffer space sp. A run without Segs is
// the space's first r.N blocks. The bound runs go to the store in one
// call, which moves them in parallel across devices under a simulation
// engine. sieve, when not nil, makes the transfer the sieved write of
// that Set's covering runs, a read-modify-write each (sieve.go). sp must
// cover every segment: descriptors are validated before they are
// mapped, plan windows before they are issued.
func issue(ctx sim.Context, store Store, op string, write bool, runs []Run, sp Space, sieve *Set) error {
	if len(runs) == 0 {
		return nil
	}
	bs := int64(store.BlockSize())
	bp := probeOf(store)
	// Spans carry virtual time only, like the drives' own: a transfer
	// outside the engine is counted but leaves no span.
	_, timed := ctx.(*sim.Proc)
	var t0 time.Duration
	if bp != nil && timed {
		t0 = ctx.Now()
	}
	x := xferPool.Get().(*xfer)
	x.bind(runs, sp, bs)
	var err error
	if sieve != nil {
		err = sieve.sievedWrite(ctx, x)
	} else {
		err = store.Transfer(ctx, write, x.bound)
	}
	x.release()
	xferPool.Put(x)
	if bp != nil {
		var blocks int64
		for _, r := range runs {
			blocks += r.N
		}
		nb := blocks * bs
		bp.batches.Add(1)
		bp.runs.Add(int64(len(runs)))
		bp.bytes.Add(nb)
		if timed {
			bp.rec.Span(bp.trk, "blockio", op, t0, ctx.Now(), nb, 0)
		}
	}
	return err
}

// bind binds every run to the buffer space. Hole segments bind to a
// pooled scratch span the size of their run, each hole at its own offset
// within the run.
func (x *xfer) bind(runs []Run, sp Space, bs int64) {
	for _, r := range runs {
		var hp *[]byte
		if len(r.Segs) == 0 {
			sp.bind(0, r.N*bs, bs, &x.iov)
		}
		var pos int64
		for _, sg := range r.Segs {
			n := sg.Blocks * bs
			if sg.BufOff == hole {
				if hp == nil {
					hp = getSieveBuf(r.N * bs)
				}
				x.iov = append(x.iov, (*hp)[pos:pos+n])
			} else {
				sp.bind(sg.BufOff, n, bs, &x.iov)
			}
			pos += n
		}
		x.ends = append(x.ends, len(x.iov))
		x.scratch = append(x.scratch, hp)
	}
	// x.iov has stopped growing: cut each run's list from it.
	from := 0
	for i, r := range runs {
		end := x.ends[i]
		x.bound = append(x.bound, Bound{Dev: r.Dev, PBlock: r.PBlock, N: int(r.N), Iov: x.iov[from:end:end]})
		from = end
	}
}

// release returns the scratch spans and drops every reference to the
// caller's buffers, readying x for the pool.
func (x *xfer) release() {
	for _, hp := range x.scratch {
		if hp != nil {
			sievePool.Put(hp)
		}
	}
	clear(x.bound)
	clear(x.iov)
	clear(x.scratch)
	x.bound, x.iov, x.ends, x.scratch, x.set = x.bound[:0], x.iov[:0], x.ends[:0], x.scratch[:0], nil
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
