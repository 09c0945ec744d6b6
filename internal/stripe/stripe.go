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

// par runs the given operations concurrently under a simulation engine
// (or sequentially otherwise) and joins their errors.
func par(ctx sim.Context, fns ...func(sim.Context) error) error {
	return sim.Par(ctx, fns...)
}

// readDisk and writeDisk move the whole blocks of buf to or from drive
// d's rows starting at b: the drive's one transfer, the vectored run,
// given a one-element list (row arithmetic works on contiguous rows).
func readDisk(ctx sim.Context, d *device.Disk, b int64, buf []byte) error {
	return d.ReadBlocksVec(ctx, b, len(buf)/d.Geometry().BlockSize, [][]byte{buf})
}

func writeDisk(ctx sim.Context, d *device.Disk, b int64, buf []byte) error {
	return d.WriteBlocksVec(ctx, b, len(buf)/d.Geometry().BlockSize, [][]byte{buf})
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

// lockRow serializes row b (engine contexts only — without an engine
// there is no concurrency to guard). The returned function unlocks.
//
// Lock-order invariant: every multi-row operation acquires row locks in
// ascending row number (see writeRun), and single-row operations hold at
// most one row lock at a time — a global order, so concurrent aggregator
// goroutines (two-phase collective writers staging through
// WriteBlocksVec, degraded readers reconstructing mid-write) can never
// deadlock however their row ranges overlap. The row-lock map itself is
// only ever touched by engine-managed processes, whose strict
// alternation provides the required happens-before edges;
// TestParityConcurrentAggregators runs this under -race.
func (p *Parity) lockRow(ctx sim.Context, b int64) func() {
	pr, ok := ctx.(*sim.Proc)
	if !ok {
		return func() {}
	}
	mu := p.rowLocks[b]
	if mu == nil {
		mu = &sim.Mutex{}
		p.rowLocks[b] = mu
	}
	mu.Lock(pr)
	return func() { mu.Unlock(pr) }
}

// Devices implements Store: the number of data drives visible above.
func (p *Parity) Devices() int { return len(p.disks) - 1 }

// BlockSize implements Store.
func (p *Parity) BlockSize() int { return p.disks[0].Geometry().BlockSize }

// Blocks implements Store.
func (p *Parity) Blocks() int64 { return p.disks[0].Geometry().Blocks() }

// PhysDisk exposes physical drive i (data and parity alike), e.g. for
// failure injection.
func (p *Parity) PhysDisk(i int) *device.Disk { return p.disks[i] }

// PhysDrives reports the number of physical drives (data + parity).
func (p *Parity) PhysDrives() int { return len(p.disks) }

// parityPhys reports which physical drive holds parity for row b.
func (p *Parity) parityPhys(b int64) int {
	if p.rotate {
		return int(b % int64(len(p.disks)))
	}
	return len(p.disks) - 1
}

// phys maps a visible data device index to a physical drive for row b.
func (p *Parity) phys(dev int, b int64) int {
	pp := p.parityPhys(b)
	if dev < pp {
		return dev
	}
	return dev + 1
}

// reconstruct reads every healthy drive's row b except failedPhys and
// XORs them into dst (which it zeroes first).
func (p *Parity) reconstruct(ctx sim.Context, failedPhys int, b int64, dst []byte) error {
	clear(dst)
	bufs := make([][]byte, len(p.disks))
	fns := make([]func(sim.Context) error, 0, len(p.disks)-1)
	for i := range p.disks {
		if i == failedPhys {
			continue
		}
		i := i
		bufs[i] = make([]byte, p.BlockSize())
		fns = append(fns, func(c sim.Context) error {
			if err := readDisk(c, p.disks[i], b, bufs[i]); err != nil {
				return fmt.Errorf("%w (drive %d also unavailable: %v)", ErrDoubleFailure, i, err)
			}
			return nil
		})
	}
	if err := par(ctx, fns...); err != nil {
		return err
	}
	for i, buf := range bufs {
		if i == failedPhys || buf == nil {
			continue
		}
		xorInto(dst, buf)
	}
	return nil
}

// readBlock reads one block, reconstructing from peers when the target
// drive has failed. Reconstruction takes the row lock so it never
// observes a half-applied parity update.
func (p *Parity) readBlock(ctx sim.Context, dev int, b int64, dst []byte) error {
	phys := p.phys(dev, b)
	err := readDisk(ctx, p.disks[phys], b, dst)
	if err == nil {
		return nil
	}
	if !errors.Is(err, device.ErrFailed) {
		return err
	}
	unlock := p.lockRow(ctx, b)
	defer unlock()
	return p.reconstruct(ctx, phys, b, dst)
}

// writeBlock writes one block using the standard small-write procedure:
// read old data and old parity in parallel, then write new data and new
// parity (new parity = old parity XOR old data XOR new data) in parallel.
// Degraded modes cover a failed data or parity drive — also one that
// fails while the small write is in flight, which is then redone
// degraded under the same row lock (whatever landed is rewritten).
func (p *Parity) writeBlock(ctx sim.Context, dev int, b int64, src []byte) error {
	unlock := p.lockRow(ctx, b)
	defer unlock()
	data, parD := p.disks[p.phys(dev, b)], p.disks[p.parityPhys(b)]
	if data.Failed() || parD.Failed() {
		return p.writeDegraded(ctx, dev, b, src)
	}
	bs := p.BlockSize()
	oldData := make([]byte, bs)
	oldPar := make([]byte, bs)
	err := par(ctx,
		func(c sim.Context) error { return readDisk(c, data, b, oldData) },
		func(c sim.Context) error { return readDisk(c, parD, b, oldPar) },
	)
	if err == nil {
		newPar := oldPar
		xorInto(newPar, oldData)
		xorInto(newPar, src)
		err = par(ctx,
			func(c sim.Context) error { return writeDisk(c, data, b, src) },
			func(c sim.Context) error { return writeDisk(c, parD, b, newPar) },
		)
	}
	if err == nil || !errors.Is(err, device.ErrFailed) || !data.Failed() && !parD.Failed() {
		return err
	}
	return p.writeDegraded(ctx, dev, b, src)
}

// writeDegraded is writeBlock with the data or the parity drive of row
// b failed; the caller holds the row lock.
func (p *Parity) writeDegraded(ctx sim.Context, dev int, b int64, src []byte) error {
	dataPhys := p.phys(dev, b)
	parPhys := p.parityPhys(b)
	data := p.disks[dataPhys]
	parD := p.disks[parPhys]
	bs := p.BlockSize()
	switch {
	case data.Failed() && parD.Failed():
		return fmt.Errorf("%w: drives %d and %d", ErrDoubleFailure, dataPhys, parPhys)
	case parD.Failed():
		// Parity unavailable: the data write alone keeps user data intact.
		return writeDisk(ctx, data, b, src)
	default:
		// Data drive failed: fold the write into parity so the block is
		// recoverable. New parity = XOR of all surviving data rows XOR src.
		newPar := make([]byte, bs)
		copy(newPar, src)
		bufs := make([][]byte, len(p.disks))
		var fns []func(sim.Context) error
		for i := range p.disks {
			if i == dataPhys || i == parPhys {
				continue
			}
			i := i
			bufs[i] = make([]byte, bs)
			fns = append(fns, func(c sim.Context) error {
				if err := readDisk(c, p.disks[i], b, bufs[i]); err != nil {
					return fmt.Errorf("%w (drive %d also unavailable: %v)", ErrDoubleFailure, i, err)
				}
				return nil
			})
		}
		if err := par(ctx, fns...); err != nil {
			return err
		}
		for _, buf := range bufs {
			if buf == nil {
				continue
			}
			xorInto(newPar, buf)
		}
		return writeDisk(ctx, parD, b, newPar)
	}
}

// rebuildExtent is the batching unit (in rows) for drive rebuilds: each
// extent's surviving-drive reads and replacement write are one coalesced
// device request apiece, shrinking the §5 reliability-exposure window by
// the coalescing factor versus row-by-row reconstruction.
const rebuildExtent = 32

// Rebuild reconstructs rows [0, rows) of the (repaired, erased) physical
// drive failedPhys from the surviving drives, in extents of up to
// rebuildExtent rows: every surviving drive's extent is read as one
// coalesced request (in parallel across drives), the rows are XORed in
// memory, and the reconstructed extent is written back as one request.
func (p *Parity) Rebuild(ctx sim.Context, failedPhys int, rows int64) error {
	if p.disks[failedPhys].Failed() {
		return fmt.Errorf("stripe: rebuild target drive %d still failed", failedPhys)
	}
	bs := int64(p.BlockSize())
	bufs := make([][]byte, len(p.disks))
	for i := range p.disks {
		if i != failedPhys {
			bufs[i] = make([]byte, rebuildExtent*bs)
		}
	}
	acc := make([]byte, rebuildExtent*bs)
	for b := int64(0); b < rows; b += rebuildExtent {
		n := int64(rebuildExtent)
		if b+n > rows {
			n = rows - b
		}
		fns := make([]func(sim.Context) error, 0, len(p.disks)-1)
		for i := range p.disks {
			if i == failedPhys {
				continue
			}
			i := i
			fns = append(fns, func(c sim.Context) error {
				if err := readDisk(c, p.disks[i], b, bufs[i][:n*bs]); err != nil {
					return fmt.Errorf("%w (drive %d also unavailable: %v)", ErrDoubleFailure, i, err)
				}
				return nil
			})
		}
		if err := par(ctx, fns...); err != nil {
			return fmt.Errorf("stripe: rebuild rows [%d,%d): %w", b, b+n, err)
		}
		clear(acc[:n*bs])
		for i, buf := range bufs {
			if i == failedPhys || buf == nil {
				continue
			}
			xorInto(acc[:n*bs], buf[:n*bs])
		}
		if err := writeDisk(ctx, p.disks[failedPhys], b, acc[:n*bs]); err != nil {
			return fmt.Errorf("stripe: rebuild rows [%d,%d): %w", b, b+n, err)
		}
	}
	return nil
}

// Mirror is a Store in which every visible device is a primary/shadow
// drive pair (the §5 "shadow" technique): writes go to both drives,
// reads prefer the primary and fail over to the shadow.
type Mirror struct {
	primary []*device.Disk
	shadow  []*device.Disk
}

// NewMirror pairs primary drives with their shadows.
func NewMirror(primary, shadow []*device.Disk) (*Mirror, error) {
	if len(primary) == 0 || len(primary) != len(shadow) {
		return nil, fmt.Errorf("stripe: mirror needs equal non-empty primary/shadow sets (%d/%d)", len(primary), len(shadow))
	}
	g := primary[0].Geometry()
	for _, d := range append(append([]*device.Disk{}, primary...), shadow...) {
		if d.Geometry() != g {
			return nil, fmt.Errorf("stripe: mixed geometries in mirror")
		}
	}
	return &Mirror{primary: primary, shadow: shadow}, nil
}

// Devices implements Store.
func (m *Mirror) Devices() int { return len(m.primary) }

// BlockSize implements Store.
func (m *Mirror) BlockSize() int { return m.primary[0].Geometry().BlockSize }

// Blocks implements Store.
func (m *Mirror) Blocks() int64 { return m.primary[0].Geometry().Blocks() }

// Primary exposes primary drive i.
func (m *Mirror) Primary(i int) *device.Disk { return m.primary[i] }

// Shadow exposes shadow drive i.
func (m *Mirror) Shadow(i int) *device.Disk { return m.shadow[i] }

// Rebuild copies rows [0, rows) of device dev from its healthy twin onto
// the (repaired, erased) other drive, in extents of up to rebuildExtent
// rows — one coalesced read and one coalesced write per extent.
// fromShadow selects the direction: true restores the primary from the
// shadow.
func (m *Mirror) Rebuild(ctx sim.Context, dev int, rows int64, fromShadow bool) error {
	src, dst := m.primary[dev], m.shadow[dev]
	if fromShadow {
		src, dst = m.shadow[dev], m.primary[dev]
	}
	bs := int64(m.BlockSize())
	buf := make([]byte, rebuildExtent*bs)
	for b := int64(0); b < rows; b += rebuildExtent {
		n := int64(rebuildExtent)
		if b+n > rows {
			n = rows - b
		}
		if err := readDisk(ctx, src, b, buf[:n*bs]); err != nil {
			return fmt.Errorf("stripe: mirror rebuild rows [%d,%d): %w", b, b+n, err)
		}
		if err := writeDisk(ctx, dst, b, buf[:n*bs]); err != nil {
			return fmt.Errorf("stripe: mirror rebuild rows [%d,%d): %w", b, b+n, err)
		}
	}
	return nil
}

var (
	_ blockio.Store = (*Parity)(nil)
	_ blockio.Store = (*Mirror)(nil)
)
