package device

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Backend stores a disk's blocks and moves them a run at a time: a Disk
// makes one call per scatter/gather element of a request, never one per
// block. The default keeps a drive in memory as cylinder-sized slabs;
// FileBackend keeps it in a host file so simulated volumes can exceed
// RAM. A backend holds data only: the timing model never consults it.
type Backend interface {
	// ReadBlocks copies the run of len(dst)/BlockSize blocks starting at
	// block into dst; blocks never written read as zeros.
	ReadBlocks(block int64, dst []byte) error
	// WriteBlocks stores src, a whole number of blocks, as the run
	// starting at block.
	WriteBlocks(block int64, src []byte) error
	// Erase discards all blocks.
	Erase() error
	// Snapshot deep-copies every written block, one page per block.
	Snapshot() (map[int64][]byte, error)
	// Close releases backend resources.
	Close() error
}

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

// slab is one cylinder of an in-memory drive: data is zero wherever it
// was never written, and written marks the blocks that were.
type slab struct {
	data    []byte
	written bitmap
}

// memBackend is the default in-memory store: a table of cylinder-sized
// slabs indexed by block / per, each allocated on its first write. A run
// is copied in one piece per slab it touches.
type memBackend struct {
	slabs []slab
	bs    int64 // bytes per block
	per   int64 // blocks per slab
}

// newMemBackend builds an empty in-memory backend for geometry g.
func newMemBackend(g Geometry) *memBackend {
	return &memBackend{bs: int64(g.BlockSize), per: int64(g.BlocksPerCyl)}
}

// ReadBlocks implements Backend: a missing slab reads as zeros.
func (m *memBackend) ReadBlocks(block int64, dst []byte) error {
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
	return nil
}

// WriteBlocks implements Backend.
func (m *memBackend) WriteBlocks(block int64, src []byte) error {
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
	return nil
}

// Erase implements Backend.
func (m *memBackend) Erase() error {
	m.slabs = nil
	return nil
}

// Snapshot implements Backend.
func (m *memBackend) Snapshot() (map[int64][]byte, error) {
	out := make(map[int64][]byte)
	for si, s := range m.slabs {
		for i := int64(0); i < m.per; i++ {
			if s.written.has(i) {
				out[int64(si)*m.per+i] = append([]byte(nil), s.data[i*m.bs:(i+1)*m.bs]...)
			}
		}
	}
	return out, nil
}

// Close implements Backend.
func (m *memBackend) Close() error { return nil }

// FileBackend stores a drive in a host file at block-aligned offsets
// (sparse where the OS supports it): a run is one ReadAt or WriteAt.
// Written blocks are tracked in memory for Snapshot; a block never
// written is a hole, or lies past the end of the file, and reads as
// zeros.
type FileBackend struct {
	f       *os.File
	bs      int64
	written bitmap
}

// NewFileBackend creates (or truncates) the backing file at path.
func NewFileBackend(path string, blockSize int) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("device: file backend: %w", err)
	}
	return &FileBackend{f: f, bs: int64(blockSize)}, nil
}

// ReadBlocks implements Backend.
func (fb *FileBackend) ReadBlocks(block int64, dst []byte) error {
	n, err := fb.f.ReadAt(dst, block*fb.bs)
	if errors.Is(err, io.EOF) {
		clear(dst[n:])
		err = nil
	}
	if err != nil {
		return fmt.Errorf("device: file backend read block %d: %w", block, err)
	}
	return nil
}

// WriteBlocks implements Backend.
func (fb *FileBackend) WriteBlocks(block int64, src []byte) error {
	if _, err := fb.f.WriteAt(src, block*fb.bs); err != nil {
		return fmt.Errorf("device: file backend write block %d: %w", block, err)
	}
	fb.written.set(block, block+int64(len(src))/fb.bs)
	return nil
}

// Erase implements Backend.
func (fb *FileBackend) Erase() error {
	if err := fb.f.Truncate(0); err != nil {
		return err
	}
	fb.written = nil
	return nil
}

// Snapshot implements Backend.
func (fb *FileBackend) Snapshot() (map[int64][]byte, error) {
	out := make(map[int64][]byte)
	for b := int64(0); b < int64(len(fb.written))*64; b++ {
		if fb.written.has(b) {
			pg := make([]byte, fb.bs)
			if err := fb.ReadBlocks(b, pg); err != nil {
				return nil, err
			}
			out[b] = pg
		}
	}
	return out, nil
}

// Close implements Backend.
func (fb *FileBackend) Close() error { return fb.f.Close() }

var (
	_ Backend = (*memBackend)(nil)
	_ Backend = (*FileBackend)(nil)
)
