// Extent (multi-block run) I/O for the parity store: what its vectored
// pair (vec.go) stages through. A run of rows on a visible device is
// split into maximal segments living on one physical drive (parity
// rotation moves blocks between drives row by row), each segment
// transfers as one coalesced device request, and segments proceed in
// parallel — so the per-request overhead of the device model is paid
// once per contiguous span rather than once per block, while preserving
// the per-row redundancy semantics of readBlock/writeBlock.

package stripe

import (
	"errors"

	"repro/internal/device"
	"repro/internal/sim"
)

// physSeg is a maximal sub-run of rows whose blocks live on one physical
// drive.
type physSeg struct {
	phys int   // physical drive index
	row  int64 // first row (physical block number on the drive)
	off  int   // row offset from the start of the requested run
	n    int   // rows in the segment
}

// segsBy splits rows [b, b+n) into maximal segments with constant
// physOf(row), in row order.
func segsBy(b int64, n int, physOf func(int64) int) []physSeg {
	var segs []physSeg
	for i := 0; i < n; {
		ph := physOf(b + int64(i))
		j := i + 1
		for j < n && physOf(b+int64(j)) == ph {
			j++
		}
		segs = append(segs, physSeg{phys: ph, row: b + int64(i), off: i, n: j - i})
		i = j
	}
	return segs
}

// readBlocks reads a contiguous run (dst is n blocks: ReadBlocksVec has
// checked) as one coalesced request per physical-drive segment (one
// request total without parity rotation), falling back to per-row
// reconstruction for segments on a failed drive.
func (p *Parity) readBlocks(ctx sim.Context, dev int, b int64, n int, dst []byte) error {
	bs := p.BlockSize()
	if n == 1 {
		return p.readBlock(ctx, dev, b, dst)
	}
	segs := segsBy(b, n, func(row int64) int { return p.phys(dev, row) })
	fns := make([]func(sim.Context) error, len(segs))
	for i, sg := range segs {
		sg := sg
		sub := dst[sg.off*bs : (sg.off+sg.n)*bs]
		fns[i] = func(c sim.Context) error {
			err := readDisk(c, p.disks[sg.phys], sg.row, sub)
			if err == nil || !errors.Is(err, device.ErrFailed) {
				return err
			}
			// Degraded: reconstruct the segment row by row under the
			// row locks.
			for r := 0; r < sg.n; r++ {
				row := sg.row + int64(r)
				if err := p.readBlock(c, dev, row, sub[r*bs:(r+1)*bs]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return par(ctx, fns...)
}

// writeBlocks writes a contiguous run with the small-write procedure
// batched across it: all row locks are taken in ascending order, old
// data and old parity are read as coalesced segment requests in
// parallel, every row's new parity is XORed in memory, and new data and
// new parity are written back as coalesced segment requests in parallel.
// Runs touching a failed drive (or racing a failure) take the per-row
// writeBlock path, which handles every degraded mode.
func (p *Parity) writeBlocks(ctx sim.Context, dev int, b int64, n int, src []byte) error {
	bs := p.BlockSize()
	if n == 1 {
		return p.writeBlock(ctx, dev, b, src)
	}
	healthy := true
	for i := 0; i < n && healthy; i++ {
		row := b + int64(i)
		if p.disks[p.phys(dev, row)].Failed() || p.disks[p.parityPhys(row)].Failed() {
			healthy = false
		}
	}
	if healthy {
		err := p.writeRun(ctx, dev, b, n, src)
		if err == nil || !errors.Is(err, device.ErrFailed) {
			return err
		}
		// A drive failed mid-run: fall through and redo the run row by
		// row — each per-row write re-reads current contents, so parity
		// stays consistent for whatever already landed.
	}
	for i := 0; i < n; i++ {
		if err := p.writeBlock(ctx, dev, b+int64(i), src[i*bs:(i+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// writeRun is the healthy batched small-write across rows [b, b+n).
func (p *Parity) writeRun(ctx sim.Context, dev int, b int64, n int, src []byte) error {
	bs := p.BlockSize()
	// Row locks in ascending row order — the store-wide global order
	// (rows are shared across visible devices: writes to dev 0 row r and
	// dev 1 row r update the same parity block). Concurrent writeRuns
	// with overlapping ranges therefore contend but never deadlock,
	// whichever aggregator goroutines issue them.
	unlocks := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		unlocks = append(unlocks, p.lockRow(ctx, b+int64(i)))
	}
	defer func() {
		for i := len(unlocks) - 1; i >= 0; i-- {
			unlocks[i]()
		}
	}()

	oldData := make([]byte, n*bs)
	newPar := make([]byte, n*bs) // old parity first, XORed in place below
	dataSegs := segsBy(b, n, func(row int64) int { return p.phys(dev, row) })
	parSegs := segsBy(b, n, p.parityPhys)
	fns := make([]func(sim.Context) error, 0, len(dataSegs)+len(parSegs))
	for _, sg := range dataSegs {
		sg := sg
		sub := oldData[sg.off*bs : (sg.off+sg.n)*bs]
		fns = append(fns, func(c sim.Context) error { return readDisk(c, p.disks[sg.phys], sg.row, sub) })
	}
	for _, sg := range parSegs {
		sg := sg
		sub := newPar[sg.off*bs : (sg.off+sg.n)*bs]
		fns = append(fns, func(c sim.Context) error { return readDisk(c, p.disks[sg.phys], sg.row, sub) })
	}
	if err := par(ctx, fns...); err != nil {
		return err
	}
	xorInto(newPar, oldData)
	xorInto(newPar, src)
	fns = fns[:0]
	for _, sg := range dataSegs {
		sg := sg
		sub := src[sg.off*bs : (sg.off+sg.n)*bs]
		fns = append(fns, func(c sim.Context) error { return writeDisk(c, p.disks[sg.phys], sg.row, sub) })
	}
	for _, sg := range parSegs {
		sg := sg
		sub := newPar[sg.off*bs : (sg.off+sg.n)*bs]
		fns = append(fns, func(c sim.Context) error { return writeDisk(c, p.disks[sg.phys], sg.row, sub) })
	}
	return par(ctx, fns...)
}
