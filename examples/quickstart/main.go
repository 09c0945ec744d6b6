// Quickstart: create a partitioned (PS) parallel file, have four worker
// processes write their partitions concurrently, then read the result
// back through the conventional global view — the paper's core promise
// that one file serves both parallel and sequential programs.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"

	pario "repro"
)

func main() {
	const (
		workers    = 4
		recordSize = 4096
		records    = 256
	)
	m := pario.NewMachine(workers) // one drive per worker

	f, err := m.Volume.Create(pario.Spec{
		Name:       "results",
		Org:        pario.OrgPartitioned,
		RecordSize: recordSize,
		NumRecords: records,
		Parts:      workers,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Parallel phase: each worker writes its own partition.
	for w := 0; w < workers; w++ {
		wid := w
		m.Go(fmt.Sprintf("worker-%d", wid), func(p *pario.Proc) {
			wr, err := pario.OpenPartWriter(f, wid, pario.DefaultOptions())
			if err != nil {
				log.Fatal(err)
			}
			rec := make([]byte, recordSize)
			first, end := f.PartRecordRange(wid)
			for r := first; r < end; r++ {
				binary.BigEndian.PutUint64(rec, uint64(r)) // payload: record index
				if _, err := wr.WriteRecord(p, rec); err != nil {
					log.Fatal(err)
				}
			}
			if err := wr.Close(p); err != nil {
				log.Fatal(err)
			}
		})
	}
	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel write of %d records finished at virtual t=%v\n", records, m.Engine.Now())

	// Sequential phase: a conventional program scans the global view.
	// (Single-goroutine use needs no engine — a Wall context suffices.)
	gr, err := pario.OpenGlobalReader(f, pario.NewWall())
	if err != nil {
		log.Fatal(err)
	}
	defer gr.Close()
	var sum, count uint64
	buf := make([]byte, recordSize)
	for {
		if _, err := io.ReadFull(gr, buf); err != nil {
			break
		}
		sum += binary.BigEndian.Uint64(buf)
		count++
	}
	want := uint64(records * (records - 1) / 2)
	fmt.Printf("global view: %d records, payload checksum %d (expect %d)\n", count, sum, want)
	if count != records || sum != want {
		log.Fatalf("global view read %d records, checksum %d: want %d and %d", count, sum, records, want)
	}

	for i, d := range m.Disks {
		st := d.Stats()
		fmt.Printf("drive %d: %d requests, %.1f KiB moved\n", i, st.Requests(), float64(st.Bytes())/1024)
	}
}
