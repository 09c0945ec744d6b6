package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestQuickRoundTripAllFramings is the package's central property test:
// for arbitrary record sizes, block groupings, file lengths, device
// counts and organizations, writing every record through the
// organization's own view and reading back through both the same view
// and the global sequential view must reproduce the data exactly.
func TestQuickRoundTripAllFramings(t *testing.T) {
	check := func(rs16, n16 uint16, br8, devs8, parts8, org8 uint8) bool {
		recordSize := int(rs16%500) + 1
		numRecords := int64(n16%300) + 1
		blockRecords := int(br8%5) + 1
		devs := int(devs8%4) + 1
		parts := int(parts8%4) + 1
		orgs := []pfs.Organization{
			pfs.OrgSequential, pfs.OrgPartitioned, pfs.OrgInterleaved,
			pfs.OrgGlobalDirect, pfs.OrgPartitionedDirect,
		}
		org := orgs[int(org8)%len(orgs)]

		disks := make([]*device.Disk, devs)
		for i := range disks {
			disks[i] = device.New(device.Config{
				Geometry: device.Geometry{BlockSize: 512, BlocksPerCyl: 16, Cylinders: 512},
			})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			t.Log(err)
			return false
		}
		vol := pfs.NewVolume(store)
		spec := pfs.Spec{
			Name: "q", Org: org, RecordSize: recordSize,
			BlockRecords: blockRecords, NumRecords: numRecords,
		}
		if org == pfs.OrgPartitioned || org == pfs.OrgInterleaved || org == pfs.OrgPartitionedDirect {
			spec.Parts = parts
		}
		f, err := vol.Create(spec)
		if err != nil {
			t.Log(err)
			return false
		}
		ctx := sim.NewWall()
		seed := uint64(rs16) ^ uint64(n16)<<16

		buf := make([]byte, recordSize)

		// Write through the organization's own view.
		switch org {
		case pfs.OrgSequential:
			w, err := OpenWriter(f, Options{})
			if err != nil {
				return false
			}
			for r := int64(0); r < numRecords; r++ {
				workload.Record(buf, seed, r)
				if _, err := w.WriteRecord(ctx, buf); err != nil {
					t.Log(err)
					return false
				}
			}
			if err := w.Close(ctx); err != nil {
				return false
			}
		case pfs.OrgPartitioned:
			for p := 0; p < parts; p++ {
				w, err := OpenPartWriter(f, p, Options{})
				if err != nil {
					return false
				}
				first, end := f.PartRecordRange(p)
				for r := first; r < end; r++ {
					workload.Record(buf, seed, r)
					if _, err := w.WriteRecord(ctx, buf); err != nil {
						t.Log(err)
						return false
					}
				}
				if err := w.Close(ctx); err != nil {
					return false
				}
			}
		case pfs.OrgInterleaved:
			for p := 0; p < parts; p++ {
				w, err := OpenInterleavedWriter(f, p, parts, Options{})
				if err != nil {
					return false
				}
				m := f.Mapper()
				for b := int64(p); b < m.NumBlocks(); b += int64(parts) {
					for i := 0; i < m.RecordsInBlock(b); i++ {
						r := b*int64(m.BlockRecords()) + int64(i)
						workload.Record(buf, seed, r)
						if _, err := w.WriteRecord(ctx, buf); err != nil {
							t.Log(err)
							return false
						}
					}
				}
				if err := w.Close(ctx); err != nil {
					return false
				}
			}
		case pfs.OrgGlobalDirect:
			d, err := OpenDirect(f, Options{CacheBlocks: 3})
			if err != nil {
				return false
			}
			// Scrambled write order.
			perm := rand.New(rand.NewSource(int64(seed))).Perm(int(numRecords))
			for _, ri := range perm {
				workload.Record(buf, seed, int64(ri))
				if err := d.WriteRecordAt(ctx, int64(ri), buf); err != nil {
					t.Log(err)
					return false
				}
			}
			if err := d.Close(ctx); err != nil {
				return false
			}
		case pfs.OrgPartitionedDirect:
			for p := 0; p < parts; p++ {
				d, err := OpenDirectPart(f, p, Options{CacheBlocks: 3})
				if err != nil {
					return false
				}
				m := f.Mapper()
				for b := int64(0); b < m.NumBlocks(); b++ {
					if f.BlockOwner(b) != p {
						continue
					}
					for i := 0; i < m.RecordsInBlock(b); i++ {
						r := b*int64(m.BlockRecords()) + int64(i)
						workload.Record(buf, seed, r)
						if err := d.WriteRecordAt(ctx, r, buf); err != nil {
							t.Log(err)
							return false
						}
					}
				}
				if err := d.Close(ctx); err != nil {
					return false
				}
			}
		}

		// Read back through the global sequential view.
		rd, err := OpenReader(f, Options{})
		if err != nil {
			return false
		}
		defer rd.Close(ctx)
		var count int64
		for {
			data, rec, err := rd.ReadRecord(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Log(err)
				return false
			}
			if rec != count {
				t.Logf("out of order: %d at position %d", rec, count)
				return false
			}
			if err := workload.CheckRecord(data, seed, rec); err != nil {
				t.Logf("org=%v rs=%d br=%d n=%d devs=%d parts=%d: %v",
					org, recordSize, blockRecords, numRecords, devs, parts, err)
				return false
			}
			count++
		}
		return count == numRecords
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSelfSched checks the SS invariant under random framing (no-straddle
// framings only): claimants take every record exactly once, whatever
// their number and compute skew, reading or writing, a record or a block
// a claim, with early release or without, at any extent. A read returns
// the record's stamp; a write lands where its claim said, so the file
// ends equal to the image the claims describe.
func FuzzSelfSched(f *testing.F) {
	for mode := uint8(0); mode < 8; mode++ {
		for ext := uint8(0); ext < 3; ext++ {
			f.Add(uint16(37+13*mode), 1+mode%6, 1+ext, mode, ext, uint64(mode)*3+uint64(ext))
		}
	}
	f.Fuzz(func(t *testing.T, n16 uint16, claimants8, br8, mode, ext8 uint8, seed uint64) {
		numRecords := int64(n16%200) + 1
		claimants := int(claimants8%6) + 1
		blockRecords := int(br8%4) + 1
		write, blocks, early := mode&1 != 0, mode&2 != 0, mode&4 != 0
		const rs = 128
		opts := Options{NBufs: 1 + int(seed%4), IOProcs: int(seed/4) % 3, EarlyRelease: early,
			ExtentBlocks: []int{1, 3, 32}[ext8%3]}

		e := sim.NewEngine()
		disks := make([]*device.Disk, 2)
		for i := range disks {
			disks[i] = device.New(device.Config{
				Geometry: device.Geometry{BlockSize: 512, BlocksPerCyl: 16, Cylinders: 512},
				Engine:   e,
			})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			t.Fatal(err)
		}
		file, err := pfs.NewVolume(store).Create(pfs.Spec{
			Name: "ss", Org: pfs.OrgSelfScheduled, RecordSize: rs,
			BlockRecords: blockRecords, NumRecords: numRecords,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := file.Mapper()
		claimed := make([]int, numRecords)
		image := make([]byte, numRecords*rs) // what the write claims put where
		// claimant is process w's loop: claim until the file is exhausted,
		// computing a skewed while after each claim.
		claimant := func(c *sim.Proc, w int, ss *SelfSched) error {
			rng := sim.NewRNG(seed + uint64(w))
			payload := make([]byte, blockRecords*rs)
			for k := 0; ; k++ {
				var first int64
				var data []byte
				var err error
				switch {
				case write:
					for i := range payload {
						payload[i] = byte(w*31 + k + i/rs)
					}
					if blocks {
						var b int64
						if b, err = ss.WriteNextBlock(c, payload); err != nil && !errors.Is(err, io.ErrShortWrite) {
							// Only the short last block refuses a full payload.
							data = payload[:m.RecordsInBlock(m.NumBlocks()-1)*rs]
							b, err = ss.WriteNextBlock(c, data)
						} else {
							data = payload
						}
						first = b * int64(blockRecords)
					} else {
						data = payload[:rs]
						first, err = ss.WriteNext(c, data)
					}
					if errors.Is(err, io.ErrShortWrite) {
						return nil
					}
					if err == nil {
						copy(image[first*rs:], data)
					}
				case blocks:
					var b int64
					data, b, err = ss.ReadNextBlock(c)
					first = b * int64(blockRecords)
				default:
					data = payload[:rs]
					first, err = ss.ReadNext(c, data)
				}
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				for i := 0; i < len(data)/rs; i++ {
					claimed[first+int64(i)]++
					if !write {
						if err := workload.CheckRecord(data[i*rs:][:rs], seed, first+int64(i)); err != nil {
							return err
						}
					}
				}
				c.Sleep(time.Duration(1+rng.Intn(3*(w+1))) * 100 * time.Microsecond)
			}
		}
		e.Go("driver", func(p *sim.Proc) {
			buf := make([]byte, rs)
			if !write {
				w, err := OpenWriter(file, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				for r := int64(0); r < numRecords; r++ {
					workload.Record(buf, seed, r)
					if _, err := w.WriteRecord(p, buf); err != nil {
						t.Error(err)
						return
					}
				}
				if err := w.Close(p); err != nil {
					t.Error(err)
					return
				}
			}
			dir := SSRead
			if write {
				dir = SSWrite
			}
			ss, err := OpenSelfSched(file, dir, opts)
			if err != nil {
				t.Error(err)
				return
			}
			errs := make([]error, claimants)
			var g sim.Group
			for w := 0; w < claimants; w++ {
				g.Spawn(p.Engine(), "w", func(c *sim.Proc) { errs[w] = claimant(c, w, ss) })
			}
			g.Wait(p)
			if err := errors.Join(append(errs, ss.Close(p))...); err != nil {
				t.Error(err)
				return
			}
			for r, n := range claimed {
				if n != 1 {
					t.Errorf("record %d claimed %d times", r, n)
				}
			}
			if !write {
				return
			}
			rd, err := OpenReader(file, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			for r := int64(0); r < numRecords; r++ {
				data, _, err := rd.ReadRecord(p)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(data, image[r*rs:][:rs]) {
					t.Errorf("record %d differs from the image its claim wrote", r)
					return
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
