package device

// A drive keeps its blocks in memory as a table of cylinder-sized slabs
// and moves them a run at a time: a Disk makes one call per
// scatter/gather element of a request, never one per block. The store
// holds data only: the timing model never consults it.

// bitmap marks blocks that have been written.
type bitmap []uint64

// set marks blocks [lo, hi), growing the map as needed.
func (m *bitmap) set(lo, hi int64) {
	if need := int((hi + 63) / 64); need > len(*m) {
		*m = append(*m, make([]uint64, need-len(*m))...)
	}
	for b := lo; b < hi; b++ {
		(*m)[b/64] |= 1 << (b % 64)
	}
}

// has reports whether block b is marked.
func (m bitmap) has(b int64) bool { return b/64 < int64(len(m)) && m[b/64]>>(b%64)&1 != 0 }

// slab is one cylinder of a drive: data is zero wherever it was never
// written, and written marks the blocks that were.
type slab struct {
	data    []byte
	written bitmap
}

// store is a drive's slab table, indexed by block / per, each slab
// allocated on its first write. A run is copied in one piece per slab it
// touches.
type store struct {
	slabs []slab
	bs    int64 // bytes per block
	per   int64 // blocks per slab
}

// newStore builds an empty store for geometry g.
func newStore(g Geometry) store {
	return store{bs: int64(g.BlockSize), per: int64(g.BlocksPerCyl)}
}

// read copies the run of len(dst)/bs blocks starting at block into dst:
// blocks never written, and a missing slab, read as zeros.
func (m *store) read(block int64, dst []byte) {
	for len(dst) > 0 {
		si, off := block/m.per, block%m.per
		n := min(int64(len(dst)), (m.per-off)*m.bs)
		if si < int64(len(m.slabs)) && m.slabs[si].data != nil {
			copy(dst[:n], m.slabs[si].data[off*m.bs:])
		} else {
			clear(dst[:n])
		}
		dst, block = dst[n:], block+n/m.bs
	}
}

// write stores src, a whole number of blocks, as the run starting at
// block.
func (m *store) write(block int64, src []byte) {
	for len(src) > 0 {
		si, off := block/m.per, block%m.per
		n := min(int64(len(src)), (m.per-off)*m.bs)
		if si >= int64(len(m.slabs)) {
			m.slabs = append(m.slabs, make([]slab, si+1-int64(len(m.slabs)))...)
		}
		s := &m.slabs[si]
		if s.data == nil {
			s.data = make([]byte, m.per*m.bs)
		}
		copy(s.data[off*m.bs:], src[:n])
		s.written.set(off, off+n/m.bs)
		src, block = src[n:], block+n/m.bs
	}
}

// snapshot deep-copies every written block, one page per block.
func (m *store) snapshot() map[int64][]byte {
	out := make(map[int64][]byte)
	for si, s := range m.slabs {
		for i := int64(0); i < m.per; i++ {
			if s.written.has(i) {
				out[int64(si)*m.per+i] = append([]byte(nil), s.data[i*m.bs:(i+1)*m.bs]...)
			}
		}
	}
	return out
}
