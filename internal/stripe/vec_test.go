package stripe

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/sim"
)

// vecStores builds each Store implementation over fresh untimed drives,
// plus an injector that fails one drive holding visible data.
func vecStores(t *testing.T) []struct {
	name  string
	store blockio.Store
	fail  func()
} {
	t.Helper()
	geom := device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 32}
	mk := func(n int) []*device.Disk {
		ds := make([]*device.Disk, n)
		for i := range ds {
			ds[i] = device.New(device.Config{Name: fmt.Sprintf("d%d", i), Geometry: geom})
		}
		return ds
	}
	direct, err := blockio.NewDirect(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	parityDisks := mk(5)
	parity, err := NewParity(parityDisks, true)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := NewMirror(mk(4), mk(4))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		store blockio.Store
		fail  func()
	}{
		{"direct", direct, nil},
		{"parity", parity, func() { parityDisks[1].Fail() }},
		{"mirror", mirror, func() { mirror.Drives()[1].Fail() }},
	}
}

// vecLayouts enumerates the three layout families sized for 48 blocks,
// including the unit-1 declustered case vectored I/O exists for.
func vecLayouts(t *testing.T) []struct {
	name   string
	layout blockio.Layout
	total  int64
} {
	t.Helper()
	part, err := blockio.NewPartitioned(4, []int64{14, 10, 16, 8}, 2, blockio.PackInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	il, err := blockio.NewInterleaved(4, 6, 2, 48, blockio.PackContiguous)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		layout blockio.Layout
		total  int64
	}{
		{"striped-unit1", blockio.NewStriped(4, 1), 48},
		{"partitioned", part, 48},
		{"interleaved", il, 48},
	}
}

// TestVecStoreEquivalence checks ReadVec/WriteVec against per-block
// loops for every layout × store combination, then re-checks reads with
// one drive failed (degraded parity reconstruction, mirror failover).
func TestVecStoreEquivalence(t *testing.T) {
	for _, lt := range vecLayouts(t) {
		for _, st := range vecStores(t) {
			t.Run(lt.name+"/"+st.name, func(t *testing.T) {
				set, err := blockio.NewSet(st.store, lt.layout, make([]int64, lt.layout.Devices()), lt.total)
				if err != nil {
					t.Fatal(err)
				}
				ctx := sim.NewWall()
				bs := int64(set.Store().BlockSize())
				rng := rand.New(rand.NewSource(11))
				// Strided descriptor: every other pair of blocks, buffer
				// slots shuffled.
				var vec blockio.Vec
				var off int64
				for b := int64(0); b < lt.total; b += 4 {
					vec = append(vec, blockio.VecSeg{Block: b, N: 2, BufOff: off})
					off += 2 * bs
				}
				rng.Shuffle(len(vec), func(i, j int) {
					vec[i].BufOff, vec[j].BufOff = vec[j].BufOff, vec[i].BufOff
				})
				src := make([]byte, off)
				rng.Read(src)
				if err := set.WriteVec(ctx, vec, src); err != nil {
					t.Fatalf("WriteVec: %v", err)
				}
				// Per-block readback must see exactly the vec-written data.
				rb := make([]byte, bs)
				for _, sg := range vec {
					for i := int64(0); i < sg.N; i++ {
						if err := set.ReadVec(ctx, blockio.Vec{{Block: sg.Block + i, N: 1}}, rb); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(rb, src[sg.BufOff+i*bs:sg.BufOff+(i+1)*bs]) {
							t.Fatalf("block %d: WriteVec data differs from per-block read", sg.Block+i)
						}
					}
				}
				check := func(phase string) {
					got := make([]byte, off)
					if err := set.ReadVec(ctx, vec, got); err != nil {
						t.Fatalf("%s ReadVec: %v", phase, err)
					}
					if !bytes.Equal(got, src) {
						t.Fatalf("%s ReadVec differs from written data", phase)
					}
				}
				check("healthy")
				if st.fail != nil {
					st.fail()
					check("degraded")
				}
			})
		}
	}
}

// TestParityVecScratchPooled pins the ROADMAP carry-over fix: the
// contiguous staging buffer the Parity vectored paths gather/scatter
// through comes from a pool, so a steady-state vectored sweep allocates
// no more than the equivalent contiguous call (which pays the run path's
// own per-call allocations) plus a small constant — not a fresh n×bs
// buffer per call. Under -race the assertion stands down: the race
// runtime's sync.Pool drops Puts at random, so a pooled buffer is
// sometimes allocated afresh.
func TestParityVecScratchPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's sync.Pool drops Puts at random")
	}
	ctx := sim.NewWall()
	geom := device.Geometry{BlockSize: 64, BlocksPerCyl: 16, Cylinders: 8}
	disks := make([]*device.Disk, 5)
	for i := range disks {
		disks[i] = device.New(device.Config{Name: fmt.Sprintf("d%d", i), Geometry: geom})
	}
	p, err := NewParity(disks, true)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	bs := p.BlockSize()
	flat := make([]byte, n*bs)
	iov := make([][]byte, n) // one slice per block: the staged multi-iov path
	for i := range iov {
		iov[i] = flat[i*bs : (i+1)*bs]
	}
	for _, op := range []struct {
		name  string
		plain func() error
		vec   func() error
	}{
		{"write",
			func() error { return p.writeVec(ctx, 0, 0, n, [][]byte{flat}) },
			func() error { return p.writeVec(ctx, 0, 0, n, iov) }},
		{"read",
			func() error { return p.readVec(ctx, 0, 0, n, [][]byte{flat}) },
			func() error { return p.readVec(ctx, 0, 0, n, iov) }},
	} {
		if err := op.vec(); err != nil { // warm the pool
			t.Fatal(err)
		}
		plain := testing.AllocsPerRun(50, func() {
			if err := op.plain(); err != nil {
				t.Fatal(err)
			}
		})
		vec := testing.AllocsPerRun(50, func() {
			if err := op.vec(); err != nil {
				t.Fatal(err)
			}
		})
		if vec > plain+2 {
			t.Errorf("%s: vectored path allocates %.0f/run vs %.0f for the contiguous path — scratch is not pooled",
				op.name, vec, plain)
		}
	}
}

// TestRedundantTransferAddsNoAllocs: a redundant store's Transfer hands
// each run to the store's per-run path and allocates nothing of its own —
// no closure for a lone run, none for a fan-out of several — so a
// transfer costs exactly what its runs' readVec / writeVec
// calls cost.
func TestRedundantTransferAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	ctx := sim.NewWall()
	geom := device.Geometry{BlockSize: 64, BlocksPerCyl: 16, Cylinders: 8}
	mk := func(n int) []*device.Disk {
		ds := make([]*device.Disk, n)
		for i := range ds {
			ds[i] = device.New(device.Config{Name: fmt.Sprintf("d%d", i), Geometry: geom})
		}
		return ds
	}
	p, err := NewParity(mk(5), true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMirror(mk(2), mk(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []struct {
		name  string
		store interface {
			blockio.Store
			runStore
		}
	}{{"Parity", p}, {"Mirror", m}} {
		bs := st.store.BlockSize()
		buf := make([]byte, 4*bs)
		runs := []blockio.Bound{
			{Dev: 0, PBlock: 0, N: 2, Iov: [][]byte{buf[:2*bs]}},
			{Dev: 1, PBlock: 4, N: 2, Iov: [][]byte{buf[2*bs : 3*bs], buf[3*bs:]}},
		}
		for _, write := range []bool{true, false} {
			for k := 1; k <= len(runs); k++ {
				transfer := func() {
					if err := st.store.Transfer(ctx, write, runs[:k]); err != nil {
						t.Fatal(err)
					}
				}
				perRun := func() {
					for _, r := range runs[:k] {
						if err := transferRun(ctx, st.store, write, r); err != nil {
							t.Fatal(err)
						}
					}
				}
				transfer() // warm the pools
				perRun()
				if got, want := testing.AllocsPerRun(50, transfer), testing.AllocsPerRun(50, perRun); got != want {
					t.Errorf("%s write=%v, %d runs: Transfer allocates %.0f/call, its runs' own calls %.0f", st.name, write, k, got, want)
				}
			}
		}
	}
}

// requests sums completed requests over drives.
func requests(ds []*device.Disk) int64 {
	var n int64
	for _, d := range ds {
		n += d.Stats().Requests()
	}
	return n
}

// TestParityRebuildBatched verifies a 64-row parity rebuild reconstructs
// correct data while issuing ≥4× fewer device requests than row-by-row
// reconstruction would (which needs one read per surviving drive plus
// one write, per row).
func TestParityRebuildBatched(t *testing.T) {
	ctx := sim.NewWall()
	geom := device.Geometry{BlockSize: 64, BlocksPerCyl: 16, Cylinders: 8}
	disks := make([]*device.Disk, 4)
	for i := range disks {
		disks[i] = device.New(device.Config{Name: fmt.Sprintf("d%d", i), Geometry: geom})
	}
	p, err := NewParity(disks, true)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 64
	bs := p.BlockSize()
	want := make([][]byte, p.Devices())
	for dev := range want {
		want[dev] = make([]byte, rows*bs)
		for i := range want[dev] {
			want[dev][i] = byte(dev*13 + i)
		}
		if err := writeBlocks(p, ctx, dev, 0, rows, want[dev]); err != nil {
			t.Fatal(err)
		}
	}
	const victim = 2
	disks[victim].Fail()
	if err := disks[victim].Erase(); err != nil {
		t.Fatal(err)
	}
	disks[victim].Repair()
	for _, d := range disks {
		d.ResetStats()
	}
	if err := p.Rebuild(ctx, victim, rows); err != nil {
		t.Fatal(err)
	}
	got := requests(disks)
	rowByRow := int64(rows * len(disks)) // (drives-1) reads + 1 write per row
	if got*4 > rowByRow {
		t.Fatalf("batched rebuild issued %d requests; row-by-row would issue %d, want ≥4× fewer", got, rowByRow)
	}
	for dev := range want {
		buf := make([]byte, rows*bs)
		if err := readBlocks(p, ctx, dev, 0, rows, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[dev]) {
			t.Fatalf("device %d data corrupted by rebuild", dev)
		}
	}
}

// TestMirrorRebuildBatched is the mirror counterpart: a 64-row rebuild
// copies in extents, ≥4× fewer requests than row-by-row copying.
func TestMirrorRebuildBatched(t *testing.T) {
	ctx := sim.NewWall()
	geom := device.Geometry{BlockSize: 64, BlocksPerCyl: 16, Cylinders: 8}
	mk := func(n int) []*device.Disk {
		ds := make([]*device.Disk, n)
		for i := range ds {
			ds[i] = device.New(device.Config{Geometry: geom})
		}
		return ds
	}
	primary, shadow := mk(2), mk(2)
	m, err := NewMirror(primary, shadow)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 64
	bs := m.BlockSize()
	want := make([]byte, rows*bs)
	for i := range want {
		want[i] = byte(i * 3)
	}
	if err := writeBlocks(m, ctx, 0, 0, rows, want); err != nil {
		t.Fatal(err)
	}
	if err := primary[0].Erase(); err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]*device.Disk{}, primary...), shadow...) {
		d.ResetStats()
	}
	if err := m.Rebuild(ctx, 0, rows, true); err != nil {
		t.Fatal(err)
	}
	got := requests(primary) + requests(shadow)
	if rowByRow := int64(rows * 2); got*4 > rowByRow {
		t.Fatalf("batched mirror rebuild issued %d requests; row-by-row would issue %d, want ≥4× fewer", got, rowByRow)
	}
	buf := make([]byte, rows*bs)
	if err := diskIO(ctx, false, primary[0], 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("rebuilt primary differs from shadow data")
	}
}
