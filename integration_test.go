package pario_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	pario "repro"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stripe"
	"repro/internal/workload"
)

// TestIntegrationParityStoreFullStack runs the whole stack — engine,
// parity store, volume, PS access methods — through a mid-run drive
// failure: writers complete, a drive dies, and readers still see every
// record via degraded reads.
func TestIntegrationParityStoreFullStack(t *testing.T) {
	e := sim.NewEngine()
	geom := device.Geometry{BlockSize: 4096, BlocksPerCyl: 16, Cylinders: 64}
	disks := make([]*device.Disk, 5)
	for i := range disks {
		disks[i] = device.New(device.Config{Name: fmt.Sprintf("d%d", i), Geometry: geom, Engine: e})
	}
	par, err := stripe.NewParity(disks, true)
	if err != nil {
		t.Fatal(err)
	}
	vol := pfs.NewVolume(par)
	const parts = 4
	const records = 128
	f, err := vol.Create(pfs.Spec{
		Name: "data", Org: pfs.OrgPartitioned, RecordSize: 4096,
		NumRecords: records, Parts: parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("driver", func(p *sim.Proc) {
		var g sim.Group
		for w := 0; w < parts; w++ {
			wid := w
			g.Spawn(p.Engine(), "writer", func(c *sim.Proc) {
				wr, err := core.OpenPartWriter(f, wid, core.DefaultOptions())
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 4096)
				first, end := f.PartRecordRange(wid)
				for r := first; r < end; r++ {
					workload.Record(buf, 0xF00D, r)
					if _, err := wr.WriteRecord(c, buf); err != nil {
						t.Error(err)
						return
					}
				}
				if err := wr.Close(c); err != nil {
					t.Error(err)
				}
			})
		}
		g.Wait(p)
		// Disaster strikes a data drive.
		par.Drives()[1].Fail()
		// All partitions remain readable (reconstruction on the fly).
		var g2 sim.Group
		for w := 0; w < parts; w++ {
			wid := w
			g2.Spawn(p.Engine(), "reader", func(c *sim.Proc) {
				rd, err := core.OpenPartReader(f, wid, core.DefaultOptions())
				if err != nil {
					t.Error(err)
					return
				}
				defer rd.Close(c)
				n := 0
				for {
					data, rec, err := rd.ReadRecord(c)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Errorf("degraded read: %v", err)
						return
					}
					if err := workload.CheckRecord(data, 0xF00D, rec); err != nil {
						t.Error(err)
						return
					}
					n++
				}
				if n != records/parts {
					t.Errorf("part %d read %d records", wid, n)
				}
			})
		}
		g2.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationConvertChain converts PS -> IS -> (global) and checks
// the data survives both conversions.
func TestIntegrationConvertChain(t *testing.T) {
	disks := make([]*pario.Disk, 4)
	for i := range disks {
		disks[i] = pario.NewDisk(pario.DiskConfig{Name: fmt.Sprintf("d%d", i)})
	}
	vol, err := pario.NewVolume(disks)
	if err != nil {
		t.Fatal(err)
	}
	ctx := pario.NewWall()
	ps, err := vol.Create(pario.Spec{
		Name: "ps", Org: pario.OrgPartitioned, RecordSize: 512,
		NumRecords: 256, Parts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := pario.OpenWriter(ps, pario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for r := int64(0); r < 256; r++ {
		workload.Record(buf, 0xBEEF, r)
		if _, err := w.WriteRecord(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	is, err := convert.ToOrganization(ctx, vol, ps, "is", pario.OrgInterleaved, 4, pario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := convert.ToOrganization(ctx, vol, is, "ss", pario.OrgSelfScheduled, 1, pario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := pario.OpenGlobalReader(ss, ctx)
	if err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 256; r++ {
		if err := workload.CheckRecord(all[r*512:(r+1)*512], 0xBEEF, r); err != nil {
			t.Fatalf("after two conversions: %v", err)
		}
	}
}

// TestIntegrationMPPProgram runs an mpp process group (ranks, barrier,
// reduction) whose phases use an IS parallel file — the paper's wrapped
// matrix pattern with collective synchronization.
func TestIntegrationMPPProgram(t *testing.T) {
	e := sim.NewEngine()
	disks := make([]*device.Disk, 4)
	for i := range disks {
		disks[i] = device.New(device.Config{Name: fmt.Sprintf("d%d", i), Engine: e})
	}
	vol, err := pario.NewVolume(disks)
	if err != nil {
		t.Fatal(err)
	}
	const procs = 4
	const rows = 32
	f, err := vol.Create(pfs.Spec{
		Name: "m", Org: pfs.OrgInterleaved, RecordSize: 512,
		BlockRecords: 1, NumRecords: rows, Parts: procs,
	})
	if err != nil {
		t.Fatal(err)
	}
	var grandTotal float64
	_, join := mpp.Run(e, procs, "rank", func(p *mpp.Proc) {
		// Phase 1: every rank writes its wrapped rows.
		w, err := core.OpenInterleavedWriter(f, p.Rank(), p.Size(), core.DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 512)
		for row := p.Rank(); row < rows; row += p.Size() {
			binary.BigEndian.PutUint64(buf, uint64(row))
			if _, err := w.WriteRecord(p, buf); err != nil {
				t.Error(err)
				return
			}
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
		}
		p.Barrier()
		// Phase 2: every rank reads its rows back and reduces a sum.
		r, err := core.OpenInterleavedReader(f, p.Rank(), p.Size(), core.DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		local := 0.0
		for {
			data, _, err := r.ReadRecord(p)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
			local += float64(binary.BigEndian.Uint64(data))
		}
		_ = r.Close(p)
		total := p.ReduceSum(local)
		if p.Rank() == 0 {
			grandTotal = total
		}
	})
	e.Go("join", func(p *sim.Proc) { join.Wait(p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := float64(rows * (rows - 1) / 2); grandTotal != want {
		t.Fatalf("reduced sum %v, want %v", grandTotal, want)
	}
}

// TestIntegrationSSWriteThenRead produces a file with self-scheduled
// writers and consumes it with self-scheduled readers, a full SS
// pipeline under the engine.
func TestIntegrationSSWriteThenRead(t *testing.T) {
	m := pario.NewMachine(4)
	const records = 96
	f, err := m.Volume.Create(pario.Spec{
		Name: "ss", Org: pario.OrgSelfScheduled, RecordSize: 4096, NumRecords: records,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Go("driver", func(p *pario.Proc) {
		wh, err := pario.OpenSelfSched(f, pario.SSWrite, pario.DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		var g pario.Group
		for w := 0; w < 3; w++ {
			g.Spawn(p.Engine(), "producer", func(c *pario.Proc) {
				buf := make([]byte, 4096)
				for {
					// The record index is assigned at claim time; write a
					// self-describing payload afterwards via a second pass
					// is impossible, so tag with a constant checksum.
					for i := range buf {
						buf[i] = 0x5a
					}
					if _, err := wh.WriteNext(c, buf); err != nil {
						return
					}
					c.Sleep(time.Millisecond)
				}
			})
		}
		g.Wait(p)
		if err := wh.Close(p); err != nil {
			t.Error(err)
		}
		rh, err := pario.OpenSelfSched(f, pario.SSRead, pario.DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		count := 0
		var g2 pario.Group
		for w := 0; w < 5; w++ {
			g2.Spawn(p.Engine(), "consumer", func(c *pario.Proc) {
				buf := make([]byte, 4096)
				for {
					if _, err := rh.ReadNext(c, buf); err != nil {
						return
					}
					if buf[0] != 0x5a || buf[4095] != 0x5a {
						t.Error("corrupt record through SS pipeline")
						return
					}
					count++
				}
			})
		}
		g2.Wait(p)
		if err := rh.Close(p); err != nil {
			t.Error(err)
		}
		if count != records {
			t.Errorf("consumed %d of %d", count, records)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationVolumeOnMirrorPersists mixes redundancy with access
// methods: a shadowed volume serves reads with a failed primary, and the
// per-drive statistics show writes really hit both drives.
func TestIntegrationVolumeOnMirrorPersists(t *testing.T) {
	e := sim.NewEngine()
	mk := func(prefix string) []*device.Disk {
		ds := make([]*device.Disk, 2)
		for i := range ds {
			ds[i] = device.New(device.Config{Name: fmt.Sprintf("%s%d", prefix, i), Engine: e})
		}
		return ds
	}
	prim, shad := mk("p"), mk("s")
	mir, err := stripe.NewMirror(prim, shad)
	if err != nil {
		t.Fatal(err)
	}
	vol := pfs.NewVolume(mir)
	f, err := vol.Create(pfs.Spec{Name: "d", RecordSize: 4096, NumRecords: 32})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("driver", func(p *sim.Proc) {
		w, err := core.OpenWriter(f, core.DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		for r := int64(0); r < 32; r++ {
			workload.Record(buf, 7, r)
			if _, err := w.WriteRecord(p, buf); err != nil {
				t.Error(err)
				return
			}
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
		}
		prim[0].Fail()
		rd, err := core.OpenReader(f, core.DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		for {
			data, rec, err := rd.ReadRecord(p)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Errorf("read with failed primary: %v", err)
				return
			}
			if err := workload.CheckRecord(data, 7, rec); err != nil {
				t.Error(err)
			}
		}
		_ = rd.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range prim {
		pw := prim[i].Stats().BytesWritten
		sw := shad[i].Stats().BytesWritten
		if pw == 0 || pw != sw {
			t.Fatalf("drive %d: primary wrote %d, shadow wrote %d (must match)", i, pw, sw)
		}
	}
}

// TestIntegrationSharedGDAWriters hammers one shared Direct handle from
// four processes with interleaved reads and writes over disjoint record
// sets, through a small cache that forces constant eviction; the final
// state must be exact.
func TestIntegrationSharedGDAWriters(t *testing.T) {
	e := sim.NewEngine()
	disks := make([]*device.Disk, 2)
	for i := range disks {
		disks[i] = device.New(device.Config{Name: fmt.Sprintf("d%d", i), Engine: e})
	}
	vol, err := pario.NewVolume(disks)
	if err != nil {
		t.Fatal(err)
	}
	const records = 128
	f, err := vol.Create(pfs.Spec{Name: "gda", Org: pfs.OrgGlobalDirect, RecordSize: 512, NumRecords: records})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.CacheBlocks = 2 // constant eviction pressure
	d, err := core.OpenDirect(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Go("driver", func(p *sim.Proc) {
		var g sim.Group
		for w := 0; w < 4; w++ {
			wid := w
			g.Spawn(p.Engine(), "writer", func(c *sim.Proc) {
				rng := rand.New(rand.NewSource(int64(wid) + 1))
				buf := make([]byte, 512)
				// Each worker owns records ≡ wid (mod 4); random order,
				// each written twice with a read-back in between.
				recs := []int64{}
				for r := int64(wid); r < records; r += 4 {
					recs = append(recs, r)
				}
				for pass := 0; pass < 2; pass++ {
					for _, i := range rng.Perm(len(recs)) {
						r := recs[i]
						workload.Record(buf, uint64(pass+1), r)
						if err := d.WriteRecordAt(c, r, buf); err != nil {
							t.Error(err)
							return
						}
						if err := d.ReadRecordAt(c, r, buf); err != nil {
							t.Error(err)
							return
						}
						if err := workload.CheckRecord(buf, uint64(pass+1), r); err != nil {
							t.Errorf("read-back: %v", err)
							return
						}
					}
				}
			})
		}
		g.Wait(p)
		if err := d.Close(p); err != nil {
			t.Error(err)
		}
		// Final state: every record carries pass-2 data.
		rd, err := core.OpenReader(f, core.DefaultOptions())
		if err != nil {
			t.Error(err)
			return
		}
		defer rd.Close(p)
		for {
			data, rec, err := rd.ReadRecord(p)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
			if err := workload.CheckRecord(data, 2, rec); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
