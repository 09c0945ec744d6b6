package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzStreamBatch holds the batched stream I/O processes to the
// synchronous path. A stream's I/O process sends every extent it can
// claim (a reader: one per free buffer; a writer: every consecutive one
// queued) as one descriptor over a space of the extents' frames; with
// IOProcs 0 every extent is its own transfer from one buffer. For S, PS
// and IS views, any NBufs 1–6, ExtentBlocks 1–40 and IOProcs 0–3, and
// records that may straddle fs blocks, the file the batched writers leave
// must equal, byte for byte, the one the synchronous writers leave, and
// the batched readers must return what the synchronous readers return.
func FuzzStreamBatch(f *testing.F) {
	for view := uint8(0); view < 3; view++ {
		for i := uint8(0); i < 4; i++ {
			f.Add(view, i, 1+7*i, i, uint8(5*i+view), uint16(60+41*uint16(i)), uint64(i)*5+uint64(view))
		}
	}
	f.Fuzz(func(t *testing.T, view, nbufs8, ext8, procs8, shape uint8, n16 uint16, seed uint64) {
		view %= 3
		opts := Options{NBufs: 1 + int(nbufs8%6), ExtentBlocks: 1 + int(ext8%40), IOProcs: int(procs8 % 4)}
		sync := opts
		sync.IOProcs = 0
		// 96-byte records straddle the 256-byte fs blocks; 64-byte ones
		// tile them.
		rs := []int{96, 64, 200}[shape%3]
		blockRecords := 1 + int(shape/3)%5
		numRecords := int64(n16%400) + 1
		parts := 1
		if view > 0 {
			parts = 2 + int(seed%3)
		}
		org := []pfs.Organization{pfs.OrgSequential, pfs.OrgPartitioned, pfs.OrgInterleaved}[view]

		e := sim.NewEngine()
		disks := make([]*device.Disk, 3)
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
		vol := pfs.NewVolume(store)
		create := func(name string) *pfs.File {
			file, err := vol.Create(pfs.Spec{Name: name, Org: org, Parts: parts,
				RecordSize: rs, BlockRecords: blockRecords, NumRecords: numRecords})
			if err != nil {
				t.Fatal(err)
			}
			return file
		}
		batched, plain := create("batched"), create("plain")
		if batched.Parts() != parts {
			parts = batched.Parts()
		}
		openW := func(file *pfs.File, part int, o Options) (*StreamWriter, error) {
			switch view {
			case 0:
				return OpenWriter(file, o)
			case 1:
				return OpenPartWriter(file, part, o)
			}
			return OpenInterleavedWriter(file, part, parts, o)
		}
		openR := func(file *pfs.File, part int, o Options) (*StreamReader, error) {
			switch view {
			case 0:
				return OpenReader(file, o)
			case 1:
				return OpenPartReader(file, part, o)
			}
			return OpenInterleavedReader(file, part, parts, o)
		}
		// pause is a seeded compute between records, so batches form
		// differently from run to run.
		pause := func(c *sim.Proc, rng *sim.RNG) {
			if rng.Intn(4) == 0 {
				c.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
			}
		}
		// each runs fn for every part concurrently and joins them.
		each := func(p *sim.Proc, fn func(c *sim.Proc, part int) error) error {
			errs := make([]error, parts)
			var g sim.Group
			for part := 0; part < parts; part++ {
				g.Spawn(p.Engine(), "part", func(c *sim.Proc) { errs[part] = fn(c, part) })
			}
			g.Wait(p)
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		}
		write := func(file *pfs.File, o Options) func(c *sim.Proc, part int) error {
			return func(c *sim.Proc, part int) error {
				w, err := openW(file, part, o)
				if err != nil {
					return err
				}
				rng := sim.NewRNG(seed + uint64(part))
				buf := make([]byte, rs)
				for {
					pos := w.nextBlock()
					if pos < 0 {
						break
					}
					rec := pos*int64(blockRecords) + int64(w.i)
					workload.Record(buf, seed, rec)
					if _, err := w.WriteRecord(c, buf); err != nil {
						return err
					}
					pause(c, rng)
				}
				return w.Close(c)
			}
		}
		// read collects part's records, index and bytes, in stream order,
		// checking each against its stamp.
		var recs int64
		read := func(file *pfs.File, o Options, out [][]byte) func(c *sim.Proc, part int) error {
			return func(c *sim.Proc, part int) error {
				r, err := openR(file, part, o)
				if err != nil {
					return err
				}
				rng := sim.NewRNG(seed + 99 + uint64(part))
				for {
					data, rec, err := r.ReadRecord(c)
					if err == io.EOF {
						break
					}
					if err != nil {
						return err
					}
					if err := workload.CheckRecord(data, seed, rec); err != nil {
						return fmt.Errorf("%+v: part %d: %w", o, part, err)
					}
					recs++
					out[part] = binary.BigEndian.AppendUint64(out[part], uint64(rec))
					out[part] = append(out[part], data...)
					pause(c, rng)
				}
				return r.Close(c)
			}
		}
		e.Go("driver", func(p *sim.Proc) {
			if err := each(p, write(batched, opts)); err != nil {
				t.Error(err)
				return
			}
			if err := each(p, write(plain, sync)); err != nil {
				t.Error(err)
				return
			}
			total := batched.Mapper().TotalFSBlocks()
			a := make([]byte, total*256)
			b := make([]byte, total*256)
			if err := batched.Set().ReadVec(p, blockio.Vec{{Block: 0, N: total}}, a); err != nil {
				t.Error(err)
				return
			}
			if err := plain.Set().ReadVec(p, blockio.Vec{{Block: 0, N: total}}, b); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%+v: the batched writers left a file unlike the synchronous writers'", opts)
				return
			}
			got, want := make([][]byte, parts), make([][]byte, parts)
			if err := each(p, read(batched, opts, got)); err != nil {
				t.Error(err)
				return
			}
			if err := each(p, read(batched, sync, want)); err != nil {
				t.Error(err)
				return
			}
			for part := range got {
				if !bytes.Equal(got[part], want[part]) {
					t.Errorf("%+v: part %d read batched differs from the synchronous read", opts, part)
				}
			}
			if recs != 2*numRecords {
				t.Errorf("%+v: the views read %d records twice over, want %d", opts, recs, 2*numRecords)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
