// Run I/O for the parity store: what its vectored pair (vec.go) stages
// through. A run of rows on a visible device is split into maximal
// segments living on one physical drive (parity rotation moves blocks
// between drives row by row) by the store's Requests, and readBlocks,
// writeBlocks and smallWrite iterate that list: what a dry issue prices
// is what runs. Each segment transfers as one coalesced device request,
// and segments proceed in parallel — so the per-request overhead of the
// device model is paid once per contiguous span rather than once per
// block. The §5 small write is one procedure here (smallWrite), for a
// row and for a run alike; a failed drive sends a run down the per-row
// paths of stripe.go (readBlock, writeBlock), which reconstruct from the
// survivors. A store with a failed drive keeps the list it has with
// every drive up: the degraded paths are not priced.

package stripe

import (
	"errors"
	"slices"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/sim"
)

// Requests implements blockio.Store. A run's requests are its maximal
// segments of rows on one physical drive: the data segments in row
// order — each after the first Later, as readBlocks' and smallWrite's
// sim.ParN issue them — and on a write then the parity rows' segments,
// every one read and then written (smallWrite). This is the one place
// the store maps a run onto its drives: the transfer issues these
// requests, and a dry issue prices them.
func (p *Parity) Requests(dst []blockio.Request, write bool, runs []blockio.Run) []blockio.Request {
	for _, r := range runs {
		first, end := len(dst), r.PBlock+r.N
		for dev := r.Dev; ; dev = -1 {
			for i := r.PBlock; i < end; {
				ph, j := p.phys(dev, i), i+1
				for j < end && p.phys(dev, j) == ph {
					j++
				}
				dst = append(dst, blockio.Request{Drive: ph, PBlock: i, N: j - i, Later: len(dst) > first, RMW: write})
				i = j
			}
			if !write || dev < 0 {
				break
			}
		}
	}
	return dst
}

// readBlocks reads a contiguous run (dst is n blocks: readVec has
// checked) as one coalesced request per physical-drive segment (one
// request total without parity rotation), falling back to per-row
// reconstruction for segments on a failed drive.
func (p *Parity) readBlocks(ctx sim.Context, dev int, b int64, n int, dst []byte) error {
	bs := int64(p.BlockSize())
	if n == 1 {
		return p.readBlock(ctx, dev, b, dst)
	}
	segs := p.Requests(nil, false, []blockio.Run{{Dev: dev, PBlock: b, N: int64(n)}})
	return sim.ParN(ctx, len(segs), func(c sim.Context, k int) error {
		sg := segs[k]
		sub := dst[(sg.PBlock-b)*bs : (sg.PBlock-b+sg.N)*bs]
		err := diskIO(c, false, p.disks[sg.Drive], sg.PBlock, sub)
		if err == nil || !errors.Is(err, device.ErrFailed) {
			return err
		}
		// Degraded: reconstruct the segment row by row under the row
		// locks.
		for r := int64(0); r < sg.N; r++ {
			if err := p.readBlock(c, dev, sg.PBlock+r, sub[r*bs:(r+1)*bs]); err != nil {
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
	segs := p.Requests(nil, true, []blockio.Run{{Dev: dev, PBlock: b, N: int64(n)}})
	if !slices.ContainsFunc(segs, func(sg blockio.Request) bool { return p.disks[sg.Drive].Failed() }) {
		unlock := p.lockRows(ctx, b, n)
		err := p.smallWrite(ctx, segs, b, src)
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

// smallWrite is the §5 small write of src onto the rows from b, whose row
// locks the caller holds, through segs, their write requests (Requests):
// old data and old parity are read, a request a segment, all in
// parallel; every row's new parity — old parity XOR old data XOR new
// data — is XORed in memory; new data and new parity are written back
// the same way.
func (p *Parity) smallWrite(ctx sim.Context, segs []blockio.Request, b int64, src []byte) error {
	bs := int64(p.BlockSize())
	oldData := make([]byte, len(src))
	newPar := make([]byte, len(src)) // old parity first, XORed in place below
	segIO := func(write bool, data []byte) error {
		return sim.ParN(ctx, len(segs), func(c sim.Context, k int) error {
			sg, buf := segs[k], data
			if sg.Drive == p.phys(-1, sg.PBlock) {
				buf = newPar
			}
			buf = buf[(sg.PBlock-b)*bs : (sg.PBlock-b+sg.N)*bs]
			return diskIO(c, write, p.disks[sg.Drive], sg.PBlock, buf)
		})
	}
	if err := segIO(false, oldData); err != nil {
		return err
	}
	xorInto(newPar, oldData)
	xorInto(newPar, src)
	return segIO(true, src)
}
