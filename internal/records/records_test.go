package records

import (
	"testing"
	"testing/quick"
)

func mustMapper(t *testing.T, rs, br, fs int, n int64) *Mapper {
	t.Helper()
	m, err := NewMapper(rs, br, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapperValidation(t *testing.T) {
	cases := []struct {
		rs, br, fs int
		n          int64
	}{
		{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, -1},
		{1 << 40, 1 << 40, 4096, 1}, // a block's bytes overflow an int
	}
	for _, c := range cases {
		if _, err := NewMapper(c.rs, c.br, c.fs, c.n); err == nil {
			t.Fatalf("accepted invalid %+v", c)
		}
	}
}

func TestExactFit(t *testing.T) {
	// 4 records of 64 bytes per paper-block, 256-byte fs blocks: no padding.
	m := mustMapper(t, 64, 4, 256, 100)
	if m.FSPerBlock() != 1 || m.blockBytes != m.paddedBytes {
		t.Fatalf("exact fit wrong: fsPer=%d dense=%v", m.FSPerBlock(), m.blockBytes == m.paddedBytes)
	}
	if m.NumBlocks() != 25 {
		t.Fatalf("NumBlocks = %d, want 25", m.NumBlocks())
	}
	if m.TotalFSBlocks() != 25 {
		t.Fatalf("TotalFSBlocks = %d", m.TotalFSBlocks())
	}
}

func TestPadding(t *testing.T) {
	// 3 records of 100 bytes = 300 payload on 256-byte fs blocks -> 2 fs
	// blocks, 212 bytes padding.
	m := mustMapper(t, 100, 3, 256, 7)
	if m.FSPerBlock() != 2 || m.blockBytes == m.paddedBytes {
		t.Fatalf("padding wrong: fsPer=%d dense=%v", m.FSPerBlock(), m.blockBytes == m.paddedBytes)
	}
	if m.NumBlocks() != 3 { // 7 records, 3 per block -> blocks of 3,3,1
		t.Fatalf("NumBlocks = %d", m.NumBlocks())
	}
	if m.RecordsInBlock(0) != 3 || m.RecordsInBlock(2) != 1 {
		t.Fatalf("RecordsInBlock: %d %d", m.RecordsInBlock(0), m.RecordsInBlock(2))
	}
	if m.RecordsInBlock(3) != 0 || m.RecordsInBlock(-1) != 0 {
		t.Fatal("out-of-range block should hold 0 records")
	}
}

func TestEmptyFile(t *testing.T) {
	m := mustMapper(t, 8, 2, 64, 0)
	if m.NumBlocks() != 0 || m.TotalFSBlocks() != 0 {
		t.Fatal("empty file has blocks")
	}
	if err := m.Check(0); err == nil {
		t.Fatal("Check(0) on empty file passed")
	}
}

func TestSpansSingle(t *testing.T) {
	m := mustMapper(t, 64, 4, 256, 100)
	s := m.Spans(5) // block 1, index 1 -> fs block 1, offset 64
	if len(s) != 1 {
		t.Fatalf("spans = %v", s)
	}
	if s[0].FSBlock != 1 || s[0].Off != 64 || s[0].Len != 64 {
		t.Fatalf("span = %+v", s[0])
	}
}

func TestSpansStraddle(t *testing.T) {
	// 100-byte records on 256-byte fs blocks: record 2 of a block spans
	// bytes 200..299 -> straddles fs blocks 0 and 1 of the paper-block.
	m := mustMapper(t, 100, 3, 256, 9)
	s := m.Spans(2)
	if len(s) != 2 {
		t.Fatalf("want 2 spans, got %v", s)
	}
	if s[0].FSBlock != 0 || s[0].Off != 200 || s[0].Len != 56 {
		t.Fatalf("span0 = %+v", s[0])
	}
	if s[1].FSBlock != 1 || s[1].Off != 0 || s[1].Len != 44 {
		t.Fatalf("span1 = %+v", s[1])
	}
	// Record 3 starts the next paper-block: fs block 2.
	s3 := m.Spans(3)
	if s3[0].FSBlock != 2 || s3[0].Off != 0 {
		t.Fatalf("record 3 span = %+v", s3[0])
	}
}

func TestSpansLargeRecordManyBlocks(t *testing.T) {
	// One 1000-byte record per paper-block on 256-byte fs blocks: 4 fs
	// blocks per paper-block, record spans all 4.
	m := mustMapper(t, 1000, 1, 256, 3)
	s := m.Spans(1)
	if len(s) != 4 {
		t.Fatalf("want 4 spans, got %d: %v", len(s), s)
	}
	total := 0
	for i, sp := range s {
		total += sp.Len
		if i > 0 && sp.Off != 0 {
			t.Fatalf("continuation span has nonzero offset: %+v", sp)
		}
	}
	if total != 1000 {
		t.Fatalf("span bytes = %d, want 1000", total)
	}
	if s[0].FSBlock != 4 { // paper-block 1 starts at fs block 4
		t.Fatalf("first span fs block = %d, want 4", s[0].FSBlock)
	}
}

func TestSpansCoverExactlyOnceQuick(t *testing.T) {
	// Property: across all records, spans tile the payload bytes of the
	// file exactly once and never touch padding.
	err := quick.Check(func(rs8, br8, fs8 uint8, n8 uint8) bool {
		rs := int(rs8%50) + 1
		br := int(br8%5) + 1
		fs := int(fs8%100) + 10
		n := int64(n8%40) + 1
		m, err := NewMapper(rs, br, fs, n)
		if err != nil {
			return false
		}
		type cell struct {
			fs  int64
			off int
		}
		seen := make(map[cell]bool)
		for r := int64(0); r < n; r++ {
			for _, sp := range m.Spans(r) {
				if sp.FSBlock < 0 || sp.FSBlock >= m.TotalFSBlocks() {
					return false
				}
				if sp.Off < 0 || sp.Off+sp.Len > fs || sp.Len <= 0 {
					return false
				}
				for i := 0; i < sp.Len; i++ {
					c := cell{sp.FSBlock, sp.Off + i}
					if seen[c] {
						return false // overlap
					}
					seen[c] = true
				}
			}
		}
		// Total covered bytes must equal record payload.
		return int64(len(seen)) == n*int64(rs)
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheck(t *testing.T) {
	m := mustMapper(t, 8, 2, 64, 10)
	if err := m.Check(9); err != nil {
		t.Fatal(err)
	}
	if err := m.Check(10); err == nil {
		t.Fatal("Check(10) passed for 10-record file")
	}
	if err := m.Check(-1); err == nil {
		t.Fatal("Check(-1) passed")
	}
}

func TestBlockOfIndexInBlock(t *testing.T) {
	m := mustMapper(t, 8, 4, 64, 100)
	for r := int64(0); r < 100; r++ {
		if m.BlockOf(r) != r/4 || int64(m.IndexInBlock(r)) != r%4 {
			t.Fatalf("record %d: block %d idx %d", r, m.BlockOf(r), m.IndexInBlock(r))
		}
	}
}
