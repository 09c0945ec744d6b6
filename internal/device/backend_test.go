package device

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// fileDisk builds a file-backed disk in a temp dir.
func fileDisk(t *testing.T) *Disk {
	t.Helper()
	geom := Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 32}
	fb, err := NewFileBackend(filepath.Join(t.TempDir(), "disk.img"), geom.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{Name: "filed", Geometry: geom, Backend: fb})
	t.Cleanup(func() { d.Close() })
	return d
}

func TestFileBackendRoundTrip(t *testing.T) {
	d := fileDisk(t)
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	src := bytes.Repeat([]byte{0x5e}, bs)
	if err := writeBlocks(d, ctx, 9, 1, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, bs)
	if err := readBlocks(d, ctx, 9, 1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("file-backed round trip mismatch")
	}
	// Unwritten blocks still read as zeros.
	if err := readBlocks(d, ctx, 10, 1, dst); err != nil {
		t.Fatal(err)
	}
	for _, b := range dst {
		if b != 0 {
			t.Fatal("unwritten block nonzero")
		}
	}
}

func TestFileBackendPartialWrites(t *testing.T) {
	d := fileDisk(t)
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	// Two whole-block writes, then a run read across their boundary into
	// a buffer cut at it: each page comes back from the file intact, and
	// an overwrite of one block leaves its neighbour alone.
	two := make([]byte, 2*bs)
	copy(two[bs-7:], "straddling the boundary")
	if err := writeBlocks(d, ctx, 0, 2, two); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*bs)
	read := func() string {
		if err := d.ReadBlocksVec(ctx, 0, 2, [][]byte{got[:bs], got[bs:]}); err != nil {
			t.Fatal(err)
		}
		return string(got[bs-7 : bs-7+len("straddling the boundary")])
	}
	if s := read(); s != "straddling the boundary" {
		t.Fatalf("got %q", s)
	}
	blk := make([]byte, bs)
	copy(blk, "DDL")
	if err := writeBlocks(d, ctx, 1, 1, blk); err != nil {
		t.Fatal(err)
	}
	if s := read(); s[:7] != "straddl" || s[7:10] != "DDL" {
		t.Fatalf("partial overwrite corrupted: %q", s)
	}
}

func TestFileBackendSnapshotRestoreErase(t *testing.T) {
	d := fileDisk(t)
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	if err := writeBlocks(d, ctx, 1, 1, bytes.Repeat([]byte{0x11}, bs)); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || snap[1][0] != 0x11 {
		t.Fatalf("snapshot = %v blocks", len(snap))
	}
	if err := writeBlocks(d, ctx, 1, 1, bytes.Repeat([]byte{0x22}, bs)); err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, bs)
	if err := readBlocks(d, ctx, 1, 1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0x11 {
		t.Fatalf("restored block = %#x", dst[0])
	}
	if err := d.Erase(); err != nil {
		t.Fatal(err)
	}
	if err := readBlocks(d, ctx, 1, 1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 {
		t.Fatal("erase left data")
	}
}

func TestFileBackendUnderEngine(t *testing.T) {
	// The timing model is orthogonal to the backend: a file-backed disk
	// under the engine charges identical virtual time to a memory one.
	runWith := func(backend Backend) (dur int64) {
		e := sim.NewEngine()
		geom := Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 32}
		d := New(Config{Geometry: geom, Engine: e, Backend: backend})
		e.Go("w", func(p *sim.Proc) {
			buf := make([]byte, geom.BlockSize)
			for b := int64(0); b < 16; b++ {
				if err := writeBlocks(d, p, b, 1, buf); err != nil {
					t.Error(err)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return int64(e.Now())
	}
	fb, err := NewFileBackend(filepath.Join(t.TempDir(), "disk.img"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if m, f := runWith(nil), runWith(fb); m != f {
		t.Fatalf("virtual time differs: mem %d vs file %d", m, f)
	}
}

func TestFileBackendBadPath(t *testing.T) {
	if _, err := NewFileBackend("/nonexistent/dir/disk.img", 256); err == nil {
		t.Fatal("bad path accepted")
	}
}

// TestMemBackendFound: a block never written reads as zeros, and one written
// by a run across a slab boundary is found in its slab and in Snapshot.
func TestMemBackendFound(t *testing.T) {
	m := newMemBackend(Geometry{BlockSize: 4, BlocksPerCyl: 2, Cylinders: 4})
	buf := bytes.Repeat([]byte{0xff}, 12)
	if err := m.ReadBlocks(1, buf); err != nil || !bytes.Equal(buf, make([]byte, 12)) {
		t.Fatalf("empty backend: %v err=%v", buf, err)
	}
	// A run across the slab boundary at block 2 lands in both slabs.
	if err := m.WriteBlocks(1, []byte{1, 1, 1, 1, 2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadBlocks(0, buf); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}; !bytes.Equal(buf, want) {
		t.Fatalf("after write: %v, want %v", buf, want)
	}
	if snap, _ := m.Snapshot(); len(snap) != 2 || snap[1][0] != 1 || snap[2][0] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}
