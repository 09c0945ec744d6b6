// Run I/O for the parity store: what its vectored pair (vec.go) stages
// through. A run of rows on a visible device is split into maximal
// segments living on one physical drive (parity rotation moves blocks
// between drives row by row), each segment transfers as one coalesced
// device request, and segments proceed in parallel — so the per-request
// overhead of the device model is paid once per contiguous span rather
// than once per block. The §5 small write is one procedure here
// (smallWrite), for a row and for a run alike; a failed drive sends a
// run down the per-row paths of stripe.go (readBlock, writeBlock), which
// reconstruct from the survivors.

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

// readBlocks reads a contiguous run (dst is n blocks: readVec has
// checked) as one coalesced request per physical-drive segment (one
// request total without parity rotation), falling back to per-row
// reconstruction for segments on a failed drive.
func (p *Parity) readBlocks(ctx sim.Context, dev int, b int64, n int, dst []byte) error {
	bs := p.BlockSize()
	if n == 1 {
		return p.readBlock(ctx, dev, b, dst)
	}
	segs := segsBy(b, n, func(row int64) int { return p.phys(dev, row) })
	return sim.ParN(ctx, len(segs), func(c sim.Context, k int) error {
		sg := segs[k]
		sub := dst[sg.off*bs : (sg.off+sg.n)*bs]
		err := readDisk(c, p.disks[sg.phys], sg.row, sub)
		if err == nil || !errors.Is(err, device.ErrFailed) {
			return err
		}
		// Degraded: reconstruct the segment row by row under the row
		// locks.
		for r := 0; r < sg.n; r++ {
			if err := p.readBlock(c, dev, sg.row+int64(r), sub[r*bs:(r+1)*bs]); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeBlocks writes a contiguous run: with every row's data and parity
// drives up, one small write across it under all its row locks; a run
// touching a failed drive (or racing a failure) goes row by row through
// writeBlock, which handles every degraded mode.
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
		unlock := p.lockRows(ctx, b, n)
		err := p.smallWrite(ctx, dev, b, n, src)
		unlock()
		if err == nil || !errors.Is(err, device.ErrFailed) {
			return err
		}
		// A drive failed mid-run: redo the run row by row — each per-row
		// write re-reads current contents, so parity stays consistent
		// for whatever already landed.
	}
	for i := 0; i < n; i++ {
		if err := p.writeBlock(ctx, dev, b+int64(i), src[i*bs:(i+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// smallWrite is the §5 small write across rows [b, b+n), whose row locks
// the caller holds: old data and old parity are read as one request per
// physical segment, all in parallel (data segments first); every row's
// new parity — old parity XOR old data XOR new data — is XORed in
// memory; new data and new parity are written back the same way.
func (p *Parity) smallWrite(ctx sim.Context, dev int, b int64, n int, src []byte) error {
	bs := p.BlockSize()
	oldData := make([]byte, n*bs)
	newPar := make([]byte, n*bs) // old parity first, XORed in place below
	segs := segsBy(b, n, func(row int64) int { return p.phys(dev, row) })
	nData := len(segs)
	segs = append(segs, segsBy(b, n, p.parityPhys)...)
	segIO := func(write bool, data []byte) error {
		return sim.ParN(ctx, len(segs), func(c sim.Context, k int) error {
			sg, buf := segs[k], newPar
			if k < nData {
				buf = data
			}
			buf = buf[sg.off*bs : (sg.off+sg.n)*bs]
			if write {
				return writeDisk(c, p.disks[sg.phys], sg.row, buf)
			}
			return readDisk(c, p.disks[sg.phys], sg.row, buf)
		})
	}
	if err := segIO(false, oldData); err != nil {
		return err
	}
	xorInto(newPar, oldData)
	xorInto(newPar, src)
	return segIO(true, src)
}
