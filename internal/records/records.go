// Package records implements the paper's §3 data model: a file is a
// collection of fixed-size records grouped into blocks ("logical
// groupings of contiguous data rather than physical partitions"), which
// in turn are stored on fixed-size file-system (device) blocks.
//
// A Mapper translates record indices to byte spans on file-system
// blocks. Paper-blocks are padded up to a whole number of fs blocks so
// that every paper-block is device-aligned (a requirement for placing
// whole blocks on single devices); the global view skips the padding, so
// sequential consumers still see a gap-free record stream.
package records

import (
	"fmt"
	"math"
)

// Span is a byte range within one file-system block.
type Span struct {
	FSBlock int64 // logical fs-block index within the file
	Off     int   // byte offset within that fs block
	Len     int   // byte count
}

// Mapper fixes the framing parameters of one file.
type Mapper struct {
	recordSize   int   // bytes per record
	blockRecords int   // records per paper-block
	fsBlock      int   // device block bytes
	numRecords   int64 // file length in records

	fsPerBlock  int64 // fs blocks per paper-block (after padding)
	blockBytes  int   // paper-block payload bytes
	paddedBytes int   // paper-block allocated bytes
}

// NewMapper validates and builds a Mapper.
func NewMapper(recordSize, blockRecords, fsBlock int, numRecords int64) (*Mapper, error) {
	if recordSize <= 0 {
		return nil, fmt.Errorf("records: record size %d must be positive", recordSize)
	}
	if blockRecords <= 0 || blockRecords > math.MaxInt/recordSize {
		return nil, fmt.Errorf("records: block records %d must be positive, and a block of %d-byte records fit an int", blockRecords, recordSize)
	}
	if fsBlock <= 0 {
		return nil, fmt.Errorf("records: fs block size %d must be positive", fsBlock)
	}
	if numRecords < 0 {
		return nil, fmt.Errorf("records: negative record count %d", numRecords)
	}
	m := &Mapper{
		recordSize:   recordSize,
		blockRecords: blockRecords,
		fsBlock:      fsBlock,
		numRecords:   numRecords,
	}
	m.blockBytes = recordSize * blockRecords
	m.fsPerBlock = int64((m.blockBytes-1)/fsBlock + 1)
	m.paddedBytes = int(m.fsPerBlock) * fsBlock
	return m, nil
}

// RecordSize reports bytes per record.
func (m *Mapper) RecordSize() int { return m.recordSize }

// BlockRecords reports records per paper-block.
func (m *Mapper) BlockRecords() int { return m.blockRecords }

// FSBlockSize reports the device block size.
func (m *Mapper) FSBlockSize() int { return m.fsBlock }

// NumRecords reports the file length in records.
func (m *Mapper) NumRecords() int64 { return m.numRecords }

// NumBlocks reports the file length in paper-blocks (the final block may
// be short).
func (m *Mapper) NumBlocks() int64 {
	if m.numRecords == 0 {
		return 0
	}
	return (m.numRecords-1)/int64(m.blockRecords) + 1
}

// FSPerBlock reports fs blocks per paper-block.
func (m *Mapper) FSPerBlock() int64 { return m.fsPerBlock }

// TotalFSBlocks reports the fs blocks needed to store the whole file.
func (m *Mapper) TotalFSBlocks() int64 { return m.NumBlocks() * m.fsPerBlock }

// BlockOf reports the paper-block holding record r.
func (m *Mapper) BlockOf(r int64) int64 { return r / int64(m.blockRecords) }

// IndexInBlock reports r's position within its paper-block.
func (m *Mapper) IndexInBlock(r int64) int { return int(r % int64(m.blockRecords)) }

// RecordsInBlock reports how many records paper-block b actually holds
// (short for the final block).
func (m *Mapper) RecordsInBlock(b int64) int {
	if b < 0 || b >= m.NumBlocks() {
		return 0
	}
	if b == m.NumBlocks()-1 {
		if rem := m.numRecords - b*int64(m.blockRecords); rem < int64(m.blockRecords) {
			return int(rem)
		}
	}
	return m.blockRecords
}

// Check validates a record index.
func (m *Mapper) Check(r int64) error {
	if r < 0 || r >= m.numRecords {
		return fmt.Errorf("records: record %d out of range [0,%d)", r, m.numRecords)
	}
	return nil
}

// AppendSpans appends the byte spans of record r (in logical fs-block
// coordinates) to dst and returns it. A record occupies one span unless
// it straddles fs-block boundaries within its paper-block.
func (m *Mapper) AppendSpans(dst []Span, r int64) []Span {
	block := m.BlockOf(r)
	idx := m.IndexInBlock(r)
	baseFS := block * m.fsPerBlock
	start := idx * m.recordSize // byte offset within the padded paper-block
	remaining := m.recordSize
	for remaining > 0 {
		fs := baseFS + int64(start/m.fsBlock)
		off := start % m.fsBlock
		n := m.fsBlock - off
		if n > remaining {
			n = remaining
		}
		dst = append(dst, Span{FSBlock: fs, Off: off, Len: n})
		start += n
		remaining -= n
	}
	return dst
}

// Spans returns the byte spans of record r.
func (m *Mapper) Spans(r int64) []Span { return m.AppendSpans(nil, r) }
