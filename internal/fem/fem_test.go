package fem

import (
	"io"
	"testing"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testVolume(t *testing.T, devs int) *pfs.Volume {
	t.Helper()
	disks := make([]*device.Disk, devs)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 512},
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	return pfs.NewVolume(store)
}

func TestManagerValidation(t *testing.T) {
	v := testVolume(t, 2)
	if _, err := NewManager(v, "app", 0, 1); err == nil {
		t.Fatal("0 procs accepted")
	}
	if _, err := NewManager(v, "app", 1, 0); err == nil {
		t.Fatal("0 files accepted")
	}
}

func TestFileCountGrowth(t *testing.T) {
	v := testVolume(t, 2)
	m, err := NewManager(v, "app", 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "several separate files per process ... multiplied by 16
	// processors, the sheer number of files became unwieldy."
	if m.FileCount() != 64 {
		t.Fatalf("FileCount = %d", m.FileCount())
	}
}

func TestCreateDeleteLifecycle(t *testing.T) {
	v := testVolume(t, 2)
	m, err := NewManager(v, "app", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CreateAll(64, 8); err != nil {
		t.Fatal(err)
	}
	if len(v.Files()) != 8 {
		t.Fatalf("directory has %d files", len(v.Files()))
	}
	if _, err := m.ProcFile(2, 1); err != nil {
		t.Fatal(err)
	}
	// Deleting is one directory operation a file, as the paper complains.
	for p := 0; p < 4; p++ {
		for i := 0; i < 2; i++ {
			if err := v.Remove(m.FileName(p, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(v.Files()); n != 0 {
		t.Fatalf("dir = %d after deleting every file", n)
	}
}

func TestPartitionMergeRoundTrip(t *testing.T) {
	v := testVolume(t, 2)
	const procs = 4
	const total = 64
	global, err := v.Create(pfs.Spec{Name: "input", RecordSize: 64, NumRecords: total})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewWall()
	// Fill global input.
	w, err := core.OpenWriter(global, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for r := int64(0); r < total; r++ {
		workload.Record(buf, 3, r)
		if _, err := w.WriteRecord(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(v, "app", procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CreateAll(64, total/procs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Partition(ctx, global, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// Each proc file holds its round-robin share.
	for p := 0; p < procs; p++ {
		f, err := m.ProcFile(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.OpenReader(f, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		i := int64(0)
		for {
			data, _, err := r.ReadRecord(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			want := i*procs + int64(p)
			if err := workload.CheckRecord(data, 3, want); err != nil {
				t.Fatalf("proc %d: %v", p, err)
			}
			i++
		}
		if i != total/procs {
			t.Fatalf("proc %d holds %d records", p, i)
		}
		_ = r.Close(ctx)
	}
	// Merge back into a fresh global file and verify canonical order.
	out, err := v.Create(pfs.Spec{Name: "output", RecordSize: 64, NumRecords: total})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Merge(ctx, out, core.Options{}); err != nil {
		t.Fatal(err)
	}
	r, err := core.OpenReader(out, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(0); want < total; want++ {
		data, _, err := r.ReadRecord(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.CheckRecord(data, 3, want); err != nil {
			t.Fatal(err)
		}
	}
	_ = r.Close(ctx)
}

func TestPartitionMergeCostGrowsWithProcs(t *testing.T) {
	// Under virtual time, the sequential pre/post utilities cost real
	// simulated time that a single PS parallel file avoids.
	run := func(procs int) (elapsed int64) {
		e := sim.NewEngine()
		disks := make([]*device.Disk, 2)
		for i := range disks {
			disks[i] = device.New(device.Config{
				Geometry: device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 512},
				Engine:   e,
			})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			t.Fatal(err)
		}
		v := pfs.NewVolume(store)
		global, err := v.Create(pfs.Spec{Name: "input", RecordSize: 64, NumRecords: 64})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(v, "app", procs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CreateAll(64, 64/int64(procs)); err != nil {
			t.Fatal(err)
		}
		e.Go("driver", func(p *sim.Proc) {
			buf := make([]byte, 64)
			w, err := core.OpenWriter(global, core.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			for r := int64(0); r < 64; r++ {
				workload.Record(buf, 1, r)
				if _, err := w.WriteRecord(p, buf); err != nil {
					t.Error(err)
					return
				}
			}
			if err := w.Close(p); err != nil {
				t.Error(err)
			}
			d, err := m.Partition(p, global, core.Options{})
			if err != nil {
				t.Error(err)
			}
			elapsed = int64(d)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if run(4) <= 0 {
		t.Fatal("partition pass cost no virtual time")
	}
}
