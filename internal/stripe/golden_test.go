package stripe

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/sim"
)

// The transfer goldens: modeled end time, device requests and bytes, and
// an image hash for every way a Set moves blocks — one block, a range, a
// vectored descriptor, the sieved paths with and without holes, a
// cross-file batch — over every store (healthy and with one drive
// failed) and every layout family, two processes issuing at once under
// an engine. The table was captured through the entry points that
// existed before the vectored run became the only Store transfer
// (ReadRange, ReadVecSieved, BatchVec.Read, …) and is now driven through
// the ones that survive; the adapters below are the only part of this
// file that changed. A row that carries a second pair of numbers moved:
// see the comment on goldenRow.

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/transfer_goldens.txt from this run")

const goldenFile = "testdata/transfer_goldens.txt"

// The entry points under test. A range is a one-segment descriptor, a
// sieved transfer a descriptor under StrategySieved, and a batch the one
// window of its plan.

func gReadRange(ctx sim.Context, s *blockio.Set, b, n int64, buf []byte) error {
	return s.ReadVec(ctx, blockio.Vec{{Block: b, N: n}}, buf)
}

func gWriteRange(ctx sim.Context, s *blockio.Set, b, n int64, buf []byte) error {
	return s.WriteVec(ctx, blockio.Vec{{Block: b, N: n}}, buf)
}

func gReadSieved(ctx sim.Context, s *blockio.Set, vec blockio.Vec, buf []byte) error {
	return s.Transfer(ctx, false, blockio.StrategySieved, vec, blockio.Space{{Buf: buf}})
}

func gWriteSieved(ctx sim.Context, s *blockio.Set, vec blockio.Vec, buf []byte) error {
	return s.Transfer(ctx, true, blockio.StrategySieved, vec, blockio.Space{{Buf: buf}})
}

// gBatch transfers a cross-file batch whose items address one shared
// buffer.
func gBatch(ctx sim.Context, write bool, batch blockio.BatchVec, buf []byte) error {
	plan, err := batch.Plan(nil)
	if err != nil {
		return err
	}
	return plan.Transfer(ctx, write, 0, 1, blockio.Space{{Buf: buf}})
}

// goldenRow is one pinned transfer. parentEnd/parentReqs are set on the
// rows that moved when ranged transfers became one-segment descriptors:
// a drive's physically adjacent units now merge before issue (see the
// check in TestTransferGoldens for what such a row is held to).
type goldenRow struct {
	name        string
	end         time.Duration
	reqs, bytes int64
	hash        uint64
	moved       bool
	parentEnd   time.Duration
	parentReqs  int64
	line        int
	seen        bool
}

func loadGoldens(t *testing.T) map[string]*goldenRow {
	t.Helper()
	rows := make(map[string]*goldenRow)
	f, err := os.Open(goldenFile)
	if err != nil {
		if *updateGoldens {
			return rows
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		r := &goldenRow{line: n}
		var end, pend int64
		k, _ := fmt.Sscanf(line, "%s %d %d %d %x was %d %d", &r.name, &end, &r.reqs, &r.bytes, &r.hash, &pend, &r.parentReqs)
		switch k {
		case 5:
		case 7:
			r.moved = true
		default:
			t.Fatalf("%s:%d: malformed row %q", goldenFile, n, line)
		}
		r.end, r.parentEnd = time.Duration(end), time.Duration(pend)
		rows[r.name] = r
	}
	return rows
}

// goldenStore is one store variant over fresh timed drives.
type goldenStore struct {
	name  string
	store blockio.Store
	disks []*device.Disk
}

func goldenStores(t *testing.T, e *sim.Engine) []goldenStore {
	t.Helper()
	mk := func(n int, tag string) []*device.Disk {
		ds := make([]*device.Disk, n)
		for i := range ds {
			ds[i] = device.New(device.Config{
				Name:     fmt.Sprintf("%s%d", tag, i),
				Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 64},
				Engine:   e,
			})
		}
		return ds
	}
	var out []goldenStore
	dd := mk(4, "d")
	direct, err := blockio.NewDirect(dd)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, goldenStore{"direct", direct, dd})
	for _, rotate := range []bool{true, false} {
		pd := mk(5, "p")
		par, err := NewParity(pd, rotate)
		if err != nil {
			t.Fatal(err)
		}
		name := "parity-ded"
		if rotate {
			name = "parity-rot"
		}
		out = append(out, goldenStore{name, par, pd})
	}
	mp, ms := mk(4, "m"), mk(4, "s")
	mir, err := NewMirror(mp, ms)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, goldenStore{"mirror", mir, append(mp, ms...)})
}

const goldenTotal = 96 // logical blocks per golden file

func goldenLayouts(t *testing.T) []struct {
	name   string
	layout blockio.Layout
} {
	t.Helper()
	parts := []int64{12, 12, 12, 12, 12, 12, 12, 12}
	pc, err := blockio.NewPartitioned(4, parts, 4, blockio.PackContiguous)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := blockio.NewPartitioned(4, parts, 4, blockio.PackInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := blockio.NewInterleaved(4, 8, 2, goldenTotal, blockio.PackContiguous)
	if err != nil {
		t.Fatal(err)
	}
	ii, err := blockio.NewInterleaved(4, 8, 2, goldenTotal, blockio.PackInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		layout blockio.Layout
	}{
		{"striped-u1", blockio.NewStriped(4, 1)},
		{"striped-u8", blockio.NewStriped(4, 8)},
		{"part-contig", pc},
		{"part-inter", pi},
		{"il-contig", ic},
		{"il-inter", ii},
	}
}

// goldenVec is issuer i's strided descriptor: seven pieces of 3 (issuer
// 0) or 4 (issuer 1) blocks, 13 blocks apart, disjoint from the other
// issuer's, their buffer slots in reverse order.
func goldenVec(i int, bs int64) (blockio.Vec, int64) {
	n, first := int64(3), int64(1)
	if i == 1 {
		n, first = 4, 6
	}
	var vec blockio.Vec
	for k := int64(0); k < 7; k++ {
		vec = append(vec, blockio.VecSeg{Block: first + 13*k, N: n, BufOff: (6 - k) * n * bs})
	}
	return vec, 7 * n * bs
}

// goldenDense is issuer i's hole-free descriptor: one contiguous range
// as abutting 8-block segments whose buffer slots are rotated by one.
func goldenDense(i int, bs int64) (blockio.Vec, int64) {
	first, segs := int64(8), int64(4)
	if i == 1 {
		first, segs = 48, 5
	}
	var vec blockio.Vec
	for k := int64(0); k < segs; k++ {
		vec = append(vec, blockio.VecSeg{Block: first + 8*k, N: 8, BufOff: ((k + 1) % segs) * 8 * bs})
	}
	return vec, segs * 8 * bs
}

func fill(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = seed + byte(i*7) + byte(i>>8)
	}
}

// goldenKinds lists the transfers: each runs as issuer i (0 or 1) of two
// and returns the buffer it read into (nil for writes).
var goldenKinds = []struct {
	name string
	run  func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error)
}{
	{"blk-r", func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error) {
		bs := s.Store().BlockSize()
		buf := make([]byte, 3*bs)
		for k, b := range [][]int64{{5, 6, 41}, {50, 7, 90}}[i] {
			if err := s.ReadVec(ctx, blockio.Vec{{Block: b, N: 1}}, buf[k*bs:(k+1)*bs]); err != nil {
				return buf, err
			}
		}
		return buf, nil
	}},
	{"blk-w", func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error) {
		bs := s.Store().BlockSize()
		buf := make([]byte, 3*bs)
		fill(buf, byte(0x10+i))
		for k, b := range [][]int64{{5, 6, 41}, {50, 7, 90}}[i] {
			if err := s.WriteVec(ctx, blockio.Vec{{Block: b, N: 1}}, buf[k*bs:(k+1)*bs]); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}},
	{"rng-r", func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error) {
		b, n := [][2]int64{{3, 40}, {50, 37}}[i][0], [][2]int64{{3, 40}, {50, 37}}[i][1]
		buf := make([]byte, n*int64(s.Store().BlockSize()))
		return buf, gReadRange(ctx, s, b, n, buf)
	}},
	{"rng-w", func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error) {
		b, n := [][2]int64{{3, 40}, {50, 37}}[i][0], [][2]int64{{3, 40}, {50, 37}}[i][1]
		buf := make([]byte, n*int64(s.Store().BlockSize()))
		fill(buf, byte(0x20+i))
		return nil, gWriteRange(ctx, s, b, n, buf)
	}},
	{"vec-r", func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error) {
		vec, n := goldenVec(i, int64(s.Store().BlockSize()))
		buf := make([]byte, n)
		return buf, s.ReadVec(ctx, vec, buf)
	}},
	{"vec-w", func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error) {
		vec, n := goldenVec(i, int64(s.Store().BlockSize()))
		buf := make([]byte, n)
		fill(buf, byte(0x30+i))
		return nil, s.WriteVec(ctx, vec, buf)
	}},
	{"sv-r", func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error) {
		vec, n := goldenVec(i, int64(s.Store().BlockSize()))
		buf := make([]byte, n)
		return buf, gReadSieved(ctx, s, vec, buf)
	}},
	{"sv-w", func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error) {
		vec, n := goldenVec(i, int64(s.Store().BlockSize()))
		buf := make([]byte, n)
		fill(buf, byte(0x40+i))
		return nil, gWriteSieved(ctx, s, vec, buf)
	}},
	{"svd-r", func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error) {
		vec, n := goldenDense(i, int64(s.Store().BlockSize()))
		buf := make([]byte, n)
		return buf, gReadSieved(ctx, s, vec, buf)
	}},
	{"svd-w", func(ctx sim.Context, s *blockio.Set, i int) ([]byte, error) {
		vec, n := goldenDense(i, int64(s.Store().BlockSize()))
		buf := make([]byte, n)
		fill(buf, byte(0x50+i))
		return nil, gWriteSieved(ctx, s, vec, buf)
	}},
}

// goldenResult hashes what a row left behind: per issuer whether it
// failed and what it read, then the logical image block by block (a
// block that cannot be read — a failed plain drive — hashes as a
// marker).
func goldenResult(sets []*blockio.Set, total int64, errs [2]error, bufs [2][]byte) uint64 {
	h := fnv.New64a()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			h.Write([]byte("err"))
		} else {
			h.Write([]byte("ok"))
		}
		h.Write(bufs[i])
	}
	wall := sim.NewWall()
	for _, s := range sets {
		blk := make([]byte, s.Store().BlockSize())
		for b := int64(0); b < total; b++ {
			if err := s.ReadVec(wall, blockio.Vec{{Block: b, N: 1}}, blk); err != nil {
				h.Write([]byte("unreadable"))
				continue
			}
			h.Write(blk)
		}
	}
	return h.Sum64()
}

const abutBlocks = 24 // blocks per file of the cross-file batch rows

func TestTransferGoldens(t *testing.T) {
	want := loadGoldens(t)
	var got []string
	check := func(name string, end time.Duration, reqs, bytes int64, hash uint64) {
		line := fmt.Sprintf("%s %d %d %d %016x", name, end.Nanoseconds(), reqs, bytes, hash)
		w := want[name]
		if *updateGoldens {
			// A row that moves keeps its first capture beside it.
			switch {
			case w != nil && w.moved:
				line += fmt.Sprintf(" was %d %d", w.parentEnd.Nanoseconds(), w.parentReqs)
			case w != nil && (w.end != end || w.reqs != reqs):
				line += fmt.Sprintf(" was %d %d", w.end.Nanoseconds(), w.reqs)
			}
			got = append(got, line)
			return
		}
		if w == nil {
			t.Errorf("%s: no golden row (got %s)", name, line)
			return
		}
		w.seen = true
		if w.end != end || w.reqs != reqs || w.bytes != bytes || w.hash != hash {
			t.Errorf("%s: got end %d reqs %d bytes %d hash %016x, golden (line %d) end %d reqs %d bytes %d hash %016x",
				name, end.Nanoseconds(), reqs, bytes, hash, w.line, w.end.Nanoseconds(), w.reqs, w.bytes, w.hash)
		}
		if w.moved {
			// Only a ranged transfer may differ from the capture, and only
			// by merging: on plain and mirrored drives fewer requests and
			// no more time. Parity rows are held to their pinned numbers
			// alone. Parity takes the row locks of a whole run for its
			// batched small-write, and redoes a run that touches a failed
			// drive row by row; a merged run is a longer such run, so the
			// sibling runs that share its parity rows queue behind more of
			// it than they did behind a unit. Requests and time then move
			// either way — as they always have for the same shape issued
			// as a descriptor: the vec-* rows did not move.
			if !strings.Contains(name, "/rng-") {
				t.Errorf("%s: golden marked as moved, but only ranged rows may move", name)
			}
			if !strings.HasPrefix(name, "parity-") && (w.end > w.parentEnd || w.reqs >= w.parentReqs) {
				t.Errorf("%s: moved row must fall in requests and not rise in time: end %d → %d, reqs %d → %d",
					name, w.parentEnd.Nanoseconds(), w.end.Nanoseconds(), w.parentReqs, w.reqs)
			}
		}
	}

	for _, failed := range []bool{false, true} {
		// Store and layout lists are rebuilt per row: every row starts
		// from fresh drives and a fresh engine.
		for si := range goldenStores(t, nil) {
			health := "ok"
			if failed {
				health = "failed"
			}
			for li, lt := range goldenLayouts(t) {
				for _, kind := range goldenKinds {
					e := sim.NewEngine()
					st := goldenStores(t, e)[si]
					layout := goldenLayouts(t)[li].layout
					set, err := blockio.NewSet(st.store, layout, []int64{16, 16, 16, 16}, goldenTotal)
					if err != nil {
						t.Fatal(err)
					}
					goldenPrepare(t, []*blockio.Set{set}, goldenTotal, st, failed)
					var errs [2]error
					var bufs [2][]byte
					for i := 0; i < 2; i++ {
						e.Go(fmt.Sprintf("issuer%d", i), func(p *sim.Proc) {
							bufs[i], errs[i] = kind.run(p, set, i)
						})
					}
					if err := e.Run(); err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s-%s/%s/%s", st.name, health, lt.name, kind.name)
					reqs, bytes := goldenTraffic(st.disks)
					check(name, e.Now(), reqs, bytes, goldenResult([]*blockio.Set{set}, goldenTotal, errs, bufs))
				}
			}
			// The cross-file batch: four files whose extents abut on every
			// drive, issuer 0 moving files 0+1 and issuer 1 files 2+3 as
			// one batch each, so every drive serves one merged request per
			// issuer.
			for _, write := range []bool{true, false} {
				e := sim.NewEngine()
				st := goldenStores(t, e)[si]
				per := blockio.PerDevice(blockio.NewStriped(4, 2), abutBlocks)[0]
				var sets []*blockio.Set
				for f := int64(0); f < 4; f++ {
					base := 16 + f*per
					s, err := blockio.NewSet(st.store, blockio.NewStriped(4, 2), []int64{base, base, base, base}, abutBlocks)
					if err != nil {
						t.Fatal(err)
					}
					sets = append(sets, s)
				}
				goldenPrepare(t, sets, abutBlocks, st, failed)
				bs := int64(sets[0].Store().BlockSize())
				var errs [2]error
				var bufs [2][]byte
				for i := 0; i < 2; i++ {
					e.Go(fmt.Sprintf("issuer%d", i), func(p *sim.Proc) {
						buf := make([]byte, 2*abutBlocks*bs)
						batch := blockio.BatchVec{
							{Set: sets[2*i], Vec: blockio.Vec{{Block: 0, N: abutBlocks, BufOff: 0}}},
							{Set: sets[2*i+1], Vec: blockio.Vec{{Block: 0, N: abutBlocks, BufOff: abutBlocks * bs}}},
						}
						if write {
							fill(buf, byte(0x60+i))
						} else {
							bufs[i] = buf
						}
						errs[i] = gBatch(p, write, batch, buf)
					})
				}
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				kind := "bat-r"
				if write {
					kind = "bat-w"
				}
				name := fmt.Sprintf("%s-%s/abut/%s", st.name, health, kind)
				reqs, bytes := goldenTraffic(st.disks)
				check(name, e.Now(), reqs, bytes, goldenResult(sets, abutBlocks, errs, bufs))
			}
		}
	}

	if *updateGoldens {
		sort.Strings(got)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		head := "# name end_ns device_requests device_bytes image_hash [was parent_end_ns parent_requests]\n" +
			"# Captured at the commit before the vectored run became the only Store transfer;\n" +
			"# regenerate with: go test ./internal/stripe -run TestTransferGoldens -update-goldens\n"
		if err := os.WriteFile(goldenFile, []byte(head+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, w := range want {
		if !w.seen {
			t.Errorf("%s: golden row (line %d) matches no transfer in the table", name, w.line)
		}
	}
}

// goldenTraffic sums the drives' served requests and bytes.
func goldenTraffic(disks []*device.Disk) (reqs, bytes int64) {
	for _, d := range disks {
		reqs += d.Stats().Requests()
		bytes += d.Stats().Bytes()
	}
	return reqs, bytes
}

// goldenPrepare writes the base image through the healthy store, then
// fails one drive holding visible data (when asked) and zeroes the drive
// counters.
func goldenPrepare(t *testing.T, sets []*blockio.Set, total int64, st goldenStore, failed bool) {
	t.Helper()
	wall := sim.NewWall()
	for f, s := range sets {
		blk := make([]byte, s.Store().BlockSize())
		for b := int64(0); b < total; b++ {
			fill(blk, byte(int64(f)*31+b))
			if err := s.WriteVec(wall, blockio.Vec{{Block: b, N: 1}}, blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if failed {
		st.disks[1].Fail()
	}
	for _, d := range st.disks {
		d.ResetStats()
	}
}
