package device

import (
	"bytes"
	"testing"
)

// TestMemBackendFound: in a drive's slab store a block never written
// reads as zeros, and one written by a run across a slab boundary is
// found in its slab and in snapshot.
func TestMemBackendFound(t *testing.T) {
	m := newStore(Geometry{BlockSize: 4, BlocksPerCyl: 2, Cylinders: 4})
	buf := bytes.Repeat([]byte{0xff}, 12)
	m.read(1, buf)
	if !bytes.Equal(buf, make([]byte, 12)) {
		t.Fatalf("empty store: %v", buf)
	}
	// A run across the slab boundary at block 2 lands in both slabs.
	m.write(1, []byte{1, 1, 1, 1, 2, 2, 2, 2})
	m.read(0, buf)
	if want := []byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}; !bytes.Equal(buf, want) {
		t.Fatalf("after write: %v, want %v", buf, want)
	}
	if snap := m.snapshot(); len(snap) != 2 || snap[1][0] != 1 || snap[2][0] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}
