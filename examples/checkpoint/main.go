// Checkpoint: a specialized parallel file (§2) used for checkpointing,
// stored on shadowed drive pairs (§5) so a drive failure between
// checkpoints cannot lose the saved state. The example fails a primary
// drive after the checkpoint is written, restores the computation from
// the surviving shadow, and verifies the restart state.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"

	pario "repro"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/stripe"
)

const (
	procs      = 4
	recordSize = 4096
	records    = 128
)

func main() {
	e := pario.NewEngine()
	primaries := device.NewDrives(procs, device.Config{Name: "p", Engine: e})
	shadows := device.NewDrives(procs, device.Config{Name: "s", Engine: e})
	mirror, err := stripe.NewMirror(primaries, shadows)
	if err != nil {
		log.Fatal(err)
	}
	vol := pfs.NewVolume(mirror)

	ckpt, err := vol.Create(pario.Spec{
		Name:       "checkpoint.0001",
		Org:        pario.OrgPartitioned,
		Category:   pario.Specialized,
		RecordSize: recordSize,
		NumRecords: records,
		Parts:      procs,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: all processes checkpoint their state in parallel; every
	// write lands on a drive and its shadow.
	e.Go("driver", func(p *pario.Proc) {
		var g pario.Group
		for w := 0; w < procs; w++ {
			wid := w
			g.Spawn(p.Engine(), fmt.Sprintf("proc-%d", wid), func(c *pario.Proc) {
				wr, err := pario.OpenPartWriter(ckpt, wid, pario.DefaultOptions())
				if err != nil {
					log.Fatal(err)
				}
				buf := make([]byte, recordSize)
				first, end := ckpt.PartRecordRange(wid)
				for r := first; r < end; r++ {
					binary.BigEndian.PutUint64(buf, uint64(r)|uint64(wid)<<56)
					if _, err := wr.WriteRecord(c, buf); err != nil {
						log.Fatal(err)
					}
				}
				if err := wr.Close(c); err != nil {
					log.Fatal(err)
				}
			})
		}
		g.Wait(p)
		checkpointDone := p.Now()

		// Disaster: primary drive 2 dies (the mirror's drives are the
		// primaries, then their shadows).
		mirror.Drives()[2].Fail()

		// Phase 2: restart — every process reloads its partition; reads
		// on device 2 fail over to the shadow transparently.
		var g2 pario.Group
		bad := 0
		for w := 0; w < procs; w++ {
			wid := w
			g2.Spawn(p.Engine(), fmt.Sprintf("restart-%d", wid), func(c *pario.Proc) {
				rd, err := pario.OpenPartReader(ckpt, wid, pario.DefaultOptions())
				if err != nil {
					log.Fatal(err)
				}
				for {
					data, rec, err := rd.ReadRecord(c)
					if err == io.EOF {
						break
					}
					if err != nil {
						log.Fatalf("restart read failed: %v", err)
					}
					if binary.BigEndian.Uint64(data) != uint64(rec)|uint64(wid)<<56 {
						bad++
					}
				}
				_ = rd.Close(c)
			})
		}
		g2.Wait(p)
		fmt.Printf("checkpoint of %d records by %d processes done at t=%v\n", records, procs, checkpointDone)
		fmt.Printf("primary drive 2 failed; restart completed at t=%v with %d bad records (want 0)\n",
			p.Now(), bad)
		if bad != 0 {
			log.Fatalf("restart read %d bad records", bad)
		}

		// Repair: replacement drive rebuilt from its shadow.
		if err := mirror.Drives()[2].Erase(); err != nil {
			log.Fatal(err)
		}
		mirror.Drives()[2].Repair()
		if err := mirror.Rebuild(p, 2, ckpt.Mapper().TotalFSBlocks(), true); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replacement primary rebuilt from shadow at t=%v\n", p.Now())
	})
	if err := e.Run(); err != nil {
		log.Fatal(err)
	}
}
