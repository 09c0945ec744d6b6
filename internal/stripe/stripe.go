// Package stripe provides redundant Store implementations over device
// arrays, realizing the reliability mechanisms of the paper's §5:
//
//   - Parity: error-correcting striped storage in the style the paper
//     cites from Kim — parity information on a check disk (or rotated
//     across all drives, RAID-5 style) tolerates the complete failure of
//     any single drive. As the paper observes, parity fits striped files;
//     applying it under independently-accessed PS/IS layouts makes the
//     parity drive a shared bottleneck, which experiments can measure.
//
//   - Mirror: the "shadow disk" technique — every write is performed on a
//     drive and its shadow, providing an up-to-date backup at twice the
//     hardware cost.
//
// Multi-drive operations issue their component transfers in parallel
// under a simulation engine (each transfer is a concurrent request at its
// device), matching how an I/O controller would drive the spindles.
//
// Each store says once which drive requests a run becomes, and both the
// transfer and its price (blockio.Dry) go by that: Mirror's Requests
// (vec.go) is the run on its primary and, written, on its shadow;
// Parity's (extent.go) is the run's rotated data segments and, written,
// its parity segments, which readBlocks and smallWrite issue. Drives
// lists the physical drives those requests name: Parity's in the order
// given, Mirror's primaries then shadows.
//
// Parity's §5 procedures each live in one function: survivors reads and
// XORs the surviving drives' rows for a degraded read, a write whose
// data drive has failed, and a rebuild; smallWrite (extent.go) is the
// read-old, write-new small write for one row and for a run. vec.go is
// the Store primitive both stores serve a transfer through.
package stripe

import (
	"errors"
	"fmt"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/sim"
)

// ErrDoubleFailure is returned when redundancy cannot cover the failed
// drives (two or more failures in one parity group, or a failed pair in a
// mirror).
var ErrDoubleFailure = errors.New("stripe: multiple drive failures exceed redundancy")

// diskIO moves the whole blocks of buf between drive d's rows starting
// at b and buf — into buf, or with write out of it: the drive's one
// transfer, the vectored run, given a one-element list (row arithmetic
// works on contiguous rows).
func diskIO(ctx sim.Context, write bool, d *device.Disk, b int64, buf []byte) error {
	n, iov := len(buf)/d.Geometry().BlockSize, [][]byte{buf}
	if write {
		return d.WriteBlocksVec(ctx, b, n, iov)
	}
	return d.ReadBlocksVec(ctx, b, n, iov)
}

// xorInto sets dst ^= src.
func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Parity is a Store of D data devices protected by one drive's worth of
// parity, tolerating any single drive failure.
//
// Concurrent writers updating different data blocks of the same parity
// row would race on the read-modify-write of the parity block (the
// classic stripe-update hazard); Parity therefore serializes all
// operations on a row through a per-row lock.
type Parity struct {
	disks  []*device.Disk // D+1 physical drives
	rotate bool           // rotate parity across drives (RAID-5) vs dedicated check disk (RAID-4)

	rowLocks map[int64]*sim.Mutex
}

// NewParity builds a parity store over D+1 identical physical drives.
// With rotate false the last drive is the dedicated check disk.
func NewParity(disks []*device.Disk, rotate bool) (*Parity, error) {
	if len(disks) < 2 {
		return nil, fmt.Errorf("stripe: parity needs at least 2 drives, got %d", len(disks))
	}
	g := disks[0].Geometry()
	for _, d := range disks[1:] {
		if d.Geometry() != g {
			return nil, fmt.Errorf("stripe: mixed geometries in parity group")
		}
	}
	return &Parity{disks: disks, rotate: rotate, rowLocks: make(map[int64]*sim.Mutex)}, nil
}

// lockRows serializes rows [b, b+n) (engine contexts only — without an
// engine there is no concurrency to guard), taking the row locks in
// ascending row number. The returned function unlocks them, last first.
//
// Lock-order invariant: every operation takes its rows' locks here, in
// ascending order, and holds no other row lock while it does — a global
// order, so concurrent aggregator goroutines (two-phase collective
// writers staging runs through Transfer, degraded readers
// reconstructing mid-write) can never deadlock however their row ranges
// overlap. The row-lock map itself is only ever touched by
// engine-managed processes, whose strict alternation provides the
// required happens-before edges; TestParityConcurrentAggregators runs
// this under -race.
func (p *Parity) lockRows(ctx sim.Context, b int64, n int) func() {
	pr, ok := ctx.(*sim.Proc)
	if !ok {
		return func() {}
	}
	for row := b; row < b+int64(n); row++ {
		mu := p.rowLocks[row]
		if mu == nil {
			mu = &sim.Mutex{}
			p.rowLocks[row] = mu
		}
		mu.Lock(pr)
	}
	return func() {
		for row := b + int64(n) - 1; row >= b; row-- {
			p.rowLocks[row].Unlock(pr)
		}
	}
}

// Devices implements Store: the number of data drives visible above.
func (p *Parity) Devices() int { return len(p.disks) - 1 }

// BlockSize implements Store.
func (p *Parity) BlockSize() int { return p.disks[0].Geometry().BlockSize }

// Blocks implements Store.
func (p *Parity) Blocks() int64 { return p.disks[0].Geometry().Blocks() }

// Drives implements Store: the D+1 physical drives, data and parity
// alike, in the order NewParity was given them.
func (p *Parity) Drives() []*device.Disk { return p.disks }

// phys maps a visible data device index to the physical drive holding
// its row b, and dev -1 to the drive holding row b's parity: the last
// drive, or with rotation drive b mod D+1.
func (p *Parity) phys(dev int, b int64) int {
	pp := len(p.disks) - 1
	if p.rotate {
		pp = int(b % int64(len(p.disks)))
	}
	switch {
	case dev < 0:
		return pp
	case dev < pp:
		return dev
	}
	return dev + 1
}

// survivors reads rows [b, b+n) of every drive but skip and skip2 (-1
// skips none) — each drive's rows one request, all issued in parallel in
// drive order — and XORs them into acc, n blocks long. A read that fails
// is an ErrDoubleFailure naming its drive: the skipped drive is the one
// redundancy already covers. This is the one §5 read behind a degraded
// read, a write whose data drive has failed, and a rebuild.
func (p *Parity) survivors(ctx sim.Context, b int64, skip, skip2 int, acc []byte) error {
	live := make([]int, 0, len(p.disks))
	for i := range p.disks {
		if i != skip && i != skip2 {
			live = append(live, i)
		}
	}
	size := len(acc)
	bufs := make([]byte, len(live)*size)
	err := sim.ParN(ctx, len(live), func(c sim.Context, k int) error {
		if err := diskIO(c, false, p.disks[live[k]], b, bufs[k*size:(k+1)*size]); err != nil {
			return fmt.Errorf("%w (drive %d also unavailable: %v)", ErrDoubleFailure, live[k], err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for k := range live {
		xorInto(acc, bufs[k*size:(k+1)*size])
	}
	return nil
}

// readBlock reads one block, reconstructing it from the survivors when
// the target drive has failed. Reconstruction takes the row lock so it
// never observes a half-applied parity update.
func (p *Parity) readBlock(ctx sim.Context, dev int, b int64, dst []byte) error {
	phys := p.phys(dev, b)
	err := diskIO(ctx, false, p.disks[phys], b, dst)
	if err == nil || !errors.Is(err, device.ErrFailed) {
		return err
	}
	defer p.lockRows(ctx, b, 1)()
	clear(dst)
	return p.survivors(ctx, b, phys, -1, dst)
}

// writeBlock writes one block under its row lock: the small write
// (extent.go) when the row's data and parity drives are up, the degraded
// write when either is down — also when one fails while the small write
// is in flight, which is then redone degraded under the same row lock
// (whatever landed is rewritten).
func (p *Parity) writeBlock(ctx sim.Context, dev int, b int64, src []byte) error {
	defer p.lockRows(ctx, b, 1)()
	data, parD := p.disks[p.phys(dev, b)], p.disks[p.phys(-1, b)]
	if data.Failed() || parD.Failed() {
		return p.writeDegraded(ctx, dev, b, src)
	}
	err := p.smallWrite(ctx, p.Requests(nil, true, []blockio.Run{{Dev: dev, PBlock: b, N: 1}}), b, src)
	if err == nil || !errors.Is(err, device.ErrFailed) || !data.Failed() && !parD.Failed() {
		return err
	}
	return p.writeDegraded(ctx, dev, b, src)
}

// writeDegraded is writeBlock with the data or the parity drive of row
// b failed; the caller holds the row lock.
func (p *Parity) writeDegraded(ctx sim.Context, dev int, b int64, src []byte) error {
	dataPhys, parPhys := p.phys(dev, b), p.phys(-1, b)
	data, parD := p.disks[dataPhys], p.disks[parPhys]
	switch {
	case data.Failed() && parD.Failed():
		return fmt.Errorf("%w: drives %d and %d", ErrDoubleFailure, dataPhys, parPhys)
	case parD.Failed():
		// Parity unavailable: the data write alone keeps user data intact.
		return diskIO(ctx, true, data, b, src)
	default:
		// Data drive failed: fold the write into parity so the block is
		// recoverable. New parity = XOR of all surviving data rows XOR src.
		newPar := append([]byte(nil), src...)
		if err := p.survivors(ctx, b, dataPhys, parPhys, newPar); err != nil {
			return err
		}
		return diskIO(ctx, true, parD, b, newPar)
	}
}

// rebuildExtent is the batching unit (in rows) for drive rebuilds: each
// extent's surviving-drive reads and replacement write are one coalesced
// device request apiece, shrinking the §5 reliability-exposure window by
// the coalescing factor versus row-by-row reconstruction.
const rebuildExtent = 32

// rebuildExtents calls fn on rows [0, rows) in extents of up to
// rebuildExtent rows, in order, and stops at the first error, which it
// names with what and the extent's rows.
func rebuildExtents(what string, rows int64, fn func(b, n int64) error) error {
	for b := int64(0); b < rows; b += rebuildExtent {
		n := min(rebuildExtent, rows-b)
		if err := fn(b, n); err != nil {
			return fmt.Errorf("stripe: %s rows [%d,%d): %w", what, b, b+n, err)
		}
	}
	return nil
}

// Rebuild reconstructs rows [0, rows) of the (repaired, erased) physical
// drive failedPhys from the surviving drives, an extent at a time: the
// survivors' rows are read and XORed, and the reconstructed extent is
// written back as one request.
func (p *Parity) Rebuild(ctx sim.Context, failedPhys int, rows int64) error {
	if p.disks[failedPhys].Failed() {
		return fmt.Errorf("stripe: rebuild target drive %d still failed", failedPhys)
	}
	bs := int64(p.BlockSize())
	acc := make([]byte, rebuildExtent*bs)
	return rebuildExtents("rebuild", rows, func(b, n int64) error {
		ext := acc[:n*bs]
		clear(ext)
		if err := p.survivors(ctx, b, failedPhys, -1, ext); err != nil {
			return err
		}
		return diskIO(ctx, true, p.disks[failedPhys], b, ext)
	})
}

// Mirror is a Store in which every visible device is a primary/shadow
// drive pair (the §5 "shadow" technique): writes go to both drives,
// reads prefer the primary and fail over to the shadow.
type Mirror struct {
	drives []*device.Disk // the primaries, then their shadows
}

// NewMirror pairs primary drives with their shadows.
func NewMirror(primary, shadow []*device.Disk) (*Mirror, error) {
	if len(primary) == 0 || len(primary) != len(shadow) {
		return nil, fmt.Errorf("stripe: mirror needs equal non-empty primary/shadow sets (%d/%d)", len(primary), len(shadow))
	}
	drives := append(append([]*device.Disk{}, primary...), shadow...)
	for _, d := range drives {
		if d.Geometry() != primary[0].Geometry() {
			return nil, fmt.Errorf("stripe: mixed geometries in mirror")
		}
	}
	return &Mirror{drives: drives}, nil
}

// Devices implements Store.
func (m *Mirror) Devices() int { return len(m.drives) / 2 }

// BlockSize implements Store.
func (m *Mirror) BlockSize() int { return m.drives[0].Geometry().BlockSize }

// Blocks implements Store.
func (m *Mirror) Blocks() int64 { return m.drives[0].Geometry().Blocks() }

// Drives implements Store: the primaries in device order, then their
// shadows in the same order — device dev's pair is drives dev and
// Devices()+dev.
func (m *Mirror) Drives() []*device.Disk { return m.drives }

// Rebuild copies rows [0, rows) of device dev from its healthy twin onto
// the (repaired, erased) other drive, an extent at a time — one
// coalesced read and one coalesced write per extent. fromShadow selects
// the direction: true restores the primary from the shadow.
func (m *Mirror) Rebuild(ctx sim.Context, dev int, rows int64, fromShadow bool) error {
	src, dst := m.drives[dev], m.drives[m.Devices()+dev]
	if fromShadow {
		src, dst = dst, src
	}
	bs := int64(m.BlockSize())
	buf := make([]byte, rebuildExtent*bs)
	return rebuildExtents("mirror rebuild", rows, func(b, n int64) error {
		if err := diskIO(ctx, false, src, b, buf[:n*bs]); err != nil {
			return err
		}
		return diskIO(ctx, true, dst, b, buf[:n*bs])
	})
}

var (
	_ blockio.Store = (*Parity)(nil)
	_ blockio.Store = (*Mirror)(nil)
)
