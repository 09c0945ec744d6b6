// The Store primitive — a transfer's bound run list — for the redundant
// stores: the runs proceed in parallel, each down its store's per-run
// pair (readVec, writeVec). Mirror passes the scatter list straight
// through to the drive pair, so scattered delivery happens at the device
// like a plain disk. Parity stages a scattered list through a contiguous
// scratch run instead: its run path already splits by physical drive and
// batches parity rows (extent.go), and the redundancy arithmetic (XOR
// across rows) wants contiguous spans — an in-memory copy costs nothing
// in the device model, while the queued requests, locks and degraded
// modes stay exactly those of the contiguous path. A one-buffer list — a
// block, a contiguous range — goes down it directly. Mirror's Requests is
// here too: what its pair sends, in the order it reaches the drives.

package stripe

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/sim"
)

// runStore is a redundant store's per-run path: the vectored run of one
// visible device.
type runStore interface {
	readVec(ctx sim.Context, dev int, b int64, n int, dsts [][]byte) error
	writeVec(ctx sim.Context, dev int, b int64, n int, srcs [][]byte) error
}

// transfer is blockio.Store's Transfer over st's per-run path: a lone
// run on the calling process, several in parallel (sim.ParN, run 0 on
// the caller, the rest spawned in run order).
func transfer(ctx sim.Context, st runStore, write bool, runs []blockio.Bound) error {
	if len(runs) == 1 {
		return transferRun(ctx, st, write, runs[0])
	}
	x := runXferPool.Get().(*runXfer)
	x.st, x.write, x.runs = st, write, runs
	err := sim.ParN(ctx, len(runs), x.each)
	x.st, x.runs = nil, nil
	runXferPool.Put(x)
	return err
}

// transferRun moves run r down st's per-run path.
func transferRun(ctx sim.Context, st runStore, write bool, r blockio.Bound) error {
	if write {
		return st.writeVec(ctx, r.Dev, r.PBlock, r.N, r.Iov)
	}
	return st.readVec(ctx, r.Dev, r.PBlock, r.N, r.Iov)
}

// runXfer is a transfer of several runs in flight on a redundant store:
// what sim.ParN's branches share, with each — the branch body — bound to
// it once and kept with it in the pool, so a fan-out allocates no
// closure.
type runXfer struct {
	st    runStore
	write bool
	runs  []blockio.Bound
	each  func(sim.Context, int) error
}

func (x *runXfer) run(ctx sim.Context, i int) error {
	return transferRun(ctx, x.st, x.write, x.runs[i])
}

var runXferPool = sync.Pool{New: func() any {
	x := new(runXfer)
	x.each = x.run
	return x
}}

// Transfer implements blockio.Store, each run down readVec or writeVec.
func (p *Parity) Transfer(ctx sim.Context, write bool, runs []blockio.Bound) error {
	return transfer(ctx, p, write, runs)
}

// Transfer implements blockio.Store, each run down readVec or writeVec.
func (m *Mirror) Transfer(ctx sim.Context, write bool, runs []blockio.Bound) error {
	return transfer(ctx, m, write, runs)
}

// vecPool recycles the contiguous staging buffers the Parity vectored
// paths gather/scatter through. Sieved covering spans make these runs
// large, so a fresh n*bs allocation per call would be real allocator
// churn (the ROADMAP carry-over this closes).
var vecPool = sync.Pool{New: func() any { return new([]byte) }}

// getVecBuf pops a pooled buffer of at least n bytes.
func getVecBuf(n int) *[]byte {
	bp := vecPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// Requests implements blockio.Store: every run on its primary, and on a
// write then on its shadow, Later — writeVec's sim.Par spawns it.
func (m *Mirror) Requests(dst []blockio.Request, write bool, runs []blockio.Run) []blockio.Request {
	for _, r := range runs {
		dst = append(dst, blockio.Request{Drive: r.Dev, PBlock: r.PBlock, N: r.N})
		if write {
			dst = append(dst, blockio.Request{Drive: m.Devices() + r.Dev, PBlock: r.PBlock, N: r.N, Later: true})
		}
	}
	return dst
}

// checkVec validates a scatter/gather list against a run of n blocks.
func checkVec(op string, bs, n int, iov [][]byte) error {
	total := 0
	for i, v := range iov {
		if len(v) == 0 || len(v)%bs != 0 {
			return fmt.Errorf("stripe: %s segment %d is %d bytes, not a positive multiple of the %d-byte block", op, i, len(v), bs)
		}
		total += len(v)
	}
	if total != n*bs {
		return fmt.Errorf("stripe: %s segments total %d bytes != %d blocks of %d bytes", op, total, n, bs)
	}
	return nil
}

// gather copies the scatter list into one contiguous run buffer.
func gather(iov [][]byte, dst []byte) {
	pos := 0
	for _, v := range iov {
		pos += copy(dst[pos:], v)
	}
}

// scatter copies a contiguous run buffer out into the scatter list.
func scatter(src []byte, iov [][]byte) {
	pos := 0
	for _, v := range iov {
		pos += copy(v, src[pos:])
	}
}

// readVec is Parity's per-run read: the run is read through the
// coalesced (and degraded-capable) readBlocks path into a contiguous
// scratch buffer, then scattered to the caller's segments.
func (p *Parity) readVec(ctx sim.Context, dev int, b int64, n int, dsts [][]byte) error {
	bs := p.BlockSize()
	if err := checkVec("read", bs, n, dsts); err != nil {
		return err
	}
	if len(dsts) == 1 {
		return p.readBlocks(ctx, dev, b, n, dsts[0])
	}
	bp := getVecBuf(n * bs)
	defer vecPool.Put(bp)
	if err := p.readBlocks(ctx, dev, b, n, *bp); err != nil {
		return err
	}
	scatter(*bp, dsts)
	return nil
}

// writeVec is Parity's per-run write: the caller's segments are
// gathered into a contiguous run and written through the batched
// small-write path (writeBlocks), preserving its row locks and degraded
// modes.
func (p *Parity) writeVec(ctx sim.Context, dev int, b int64, n int, srcs [][]byte) error {
	bs := p.BlockSize()
	if err := checkVec("write", bs, n, srcs); err != nil {
		return err
	}
	if len(srcs) == 1 {
		return p.writeBlocks(ctx, dev, b, n, srcs[0])
	}
	bp := getVecBuf(n * bs)
	defer vecPool.Put(bp)
	gather(srcs, *bp)
	return p.writeBlocks(ctx, dev, b, n, *bp)
}

// readVec is Mirror's per-run read: one scatter request on the
// primary, failing over to one on the shadow when the primary has
// failed.
func (m *Mirror) readVec(ctx sim.Context, dev int, b int64, n int, dsts [][]byte) error {
	if err := checkVec("read", m.BlockSize(), n, dsts); err != nil {
		return err
	}
	primary, shadow := m.drives[dev], m.drives[m.Devices()+dev]
	err := primary.ReadBlocksVec(ctx, b, n, dsts)
	if err == nil || !errors.Is(err, device.ErrFailed) {
		return err
	}
	if err2 := shadow.ReadBlocksVec(ctx, b, n, dsts); err2 != nil {
		return fmt.Errorf("%w: primary and shadow of device %d: %w", ErrDoubleFailure, dev, err2)
	}
	return nil
}

// writeVec is Mirror's per-run write: one gather request on the
// drive and one on its shadow, issued in parallel. The write survives
// one failed drive of the pair (device.ErrFailed) and no other error: a
// side that refused the write for any other reason would serve stale
// data to the next read, which fails over only from a failed drive.
func (m *Mirror) writeVec(ctx sim.Context, dev int, b int64, n int, srcs [][]byte) error {
	if err := checkVec("write", m.BlockSize(), n, srcs); err != nil {
		return err
	}
	primary, shadow := m.drives[dev], m.drives[m.Devices()+dev]
	errP := make([]error, 2)
	err := sim.Par(ctx,
		func(c sim.Context) error { errP[0] = primary.WriteBlocksVec(c, b, n, srcs); return nil },
		func(c sim.Context) error { errP[1] = shadow.WriteBlocksVec(c, b, n, srcs); return nil },
	)
	if err != nil {
		return err
	}
	for i, side := range [2]string{"primary", "shadow"} {
		if errP[i] != nil && !errors.Is(errP[i], device.ErrFailed) {
			return fmt.Errorf("stripe: %s of device %d: %w", side, dev, errP[i])
		}
	}
	if errP[0] != nil && errP[1] != nil {
		return fmt.Errorf("%w: primary and shadow of device %d", ErrDoubleFailure, dev)
	}
	return nil
}
