// Outofcore: a PDA file as paged backing store for a computation whose
// data does not fit in memory — the paper's description of partitioned
// direct access: "blocks can be thought of as pages of virtual memory,
// with the direct access feature allowing multiple passes on the data."
//
// Four processes run a two-pass out-of-core transformation over their
// partitions, accessing records randomly within owned blocks through a
// small private block cache; the cache hit rates show the locality the
// paper expects.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"

	pario "repro"
)

const (
	procs        = 4
	recordSize   = 1024
	blockRecords = 4
	records      = 512 // 128 blocks, 32 per partition
)

func main() {
	m := pario.NewMachine(procs)
	f, err := m.Volume.Create(pario.Spec{
		Name:         "pages",
		Org:          pario.OrgPartitionedDirect,
		Category:     pario.Specialized,
		RecordSize:   recordSize,
		BlockRecords: blockRecords,
		NumRecords:   records,
		Parts:        procs,
	})
	if err != nil {
		log.Fatal(err)
	}

	hits := make([]float64, procs)
	m.Go("driver", func(p *pario.Proc) {
		var g pario.Group
		for w := 0; w < procs; w++ {
			wid := w
			g.Spawn(p.Engine(), fmt.Sprintf("proc-%d", wid), func(c *pario.Proc) {
				opts := pario.DefaultOptions()
				opts.CacheBlocks = 8 // memory budget: 8 pages
				h, err := pario.OpenDirectPart(f, wid, opts)
				if err != nil {
					log.Fatal(err)
				}
				first, end := f.PartRecordRange(wid)
				buf := make([]byte, recordSize)
				// Pass 1: initialize owned records (random-ish order:
				// stride through the partition).
				n := end - first
				for i := int64(0); i < n; i++ {
					r := first + (i*7)%n
					binary.BigEndian.PutUint64(buf, uint64(r))
					if err := h.WriteRecordAt(c, r, buf); err != nil {
						log.Fatal(err)
					}
				}
				// Pass 2: read-modify-write every record again.
				for i := int64(0); i < n; i++ {
					r := first + (i*13)%n
					if err := h.ReadRecordAt(c, r, buf); err != nil {
						log.Fatal(err)
					}
					v := binary.BigEndian.Uint64(buf)
					binary.BigEndian.PutUint64(buf, v*3)
					if err := h.WriteRecordAt(c, r, buf); err != nil {
						log.Fatal(err)
					}
				}
				if err := h.Close(c); err != nil {
					log.Fatal(err)
				}
				hits[wid] = h.CacheStats().HitRate()
			})
		}
		g.Wait(p)
	})
	if err := m.Run(); err != nil {
		log.Fatal(err)
	}

	// Verify sequentially.
	ctx := pario.NewWall()
	r, err := pario.OpenReader(f, pario.Options{NBufs: 2})
	if err != nil {
		log.Fatal(err)
	}
	bad := 0
	for {
		data, rec, err := r.ReadRecord(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if binary.BigEndian.Uint64(data) != uint64(rec)*3 {
			bad++
		}
	}
	_ = r.Close(ctx)

	fmt.Printf("out-of-core 2-pass transform: %d records in %d-block pages, %d processes\n",
		records, blockRecords, procs)
	fmt.Printf("finished at virtual t=%v, %d bad records (want 0)\n", m.Engine.Now(), bad)
	if bad != 0 {
		log.Fatalf("verification found %d bad records", bad)
	}
	for w, h := range hits {
		fmt.Printf("proc %d private page-cache hit rate: %.1f%%\n", w, h*100)
	}
}
