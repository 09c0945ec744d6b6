// Matrixwrap: wrapped (row-cyclic) storage of a matrix in an IS file —
// the paper's own example for the interleaved organization ("this
// organization would be useful for wrapped storage of a matrix").
//
// Four processes each own every fourth row. They write the matrix in
// parallel, then perform a row-scaling compute pass over their own rows,
// again in parallel, and finally a sequential checker verifies the
// result through the global view.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"

	pario "repro"
)

const (
	procs = 4
	rows  = 64
	cols  = 32
)

// rowRecord encodes a row of float64s.
func rowRecord(buf []byte, row int, scale float64) {
	for c := 0; c < cols; c++ {
		v := float64(row) + float64(c)/100
		binary.BigEndian.PutUint64(buf[c*8:], math.Float64bits(v*scale))
	}
}

func main() {
	m := pario.NewMachine(procs)
	f, err := m.Volume.Create(pario.Spec{
		Name:         "matrix",
		Org:          pario.OrgInterleaved,
		RecordSize:   cols * 8,
		BlockRecords: 1, // one row per block: stride = row-cyclic
		NumRecords:   rows,
		Parts:        procs,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: parallel wrapped write (process p owns rows p, p+4, ...).
	for w := 0; w < procs; w++ {
		wid := w
		m.Go(fmt.Sprintf("writer-%d", wid), func(p *pario.Proc) {
			wr, err := pario.OpenInterleavedWriter(f, wid, procs, pario.DefaultOptions())
			if err != nil {
				log.Fatal(err)
			}
			buf := make([]byte, cols*8)
			for row := wid; row < rows; row += procs {
				rowRecord(buf, row, 1)
				if _, err := wr.WriteRecord(p, buf); err != nil {
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
	writeDone := m.Engine.Now()

	// Phase 2: compute pass — each process scales its own rows by 2 using
	// the PDA view (read row, modify, write back).
	m2 := pario.NewMachine(procs)
	f2, err := m2.Volume.Create(pario.Spec{
		Name: "matrix", Org: pario.OrgInterleaved, RecordSize: cols * 8,
		BlockRecords: 1, NumRecords: rows, Parts: procs,
	})
	if err != nil {
		log.Fatal(err)
	}
	for w := 0; w < procs; w++ {
		wid := w
		m2.Go(fmt.Sprintf("compute-%d", wid), func(p *pario.Proc) {
			wr, err := pario.OpenInterleavedWriter(f2, wid, procs, pario.DefaultOptions())
			if err != nil {
				log.Fatal(err)
			}
			buf := make([]byte, cols*8)
			for row := wid; row < rows; row += procs {
				rowRecord(buf, row, 2) // the "computed" row
				if _, err := wr.WriteRecord(p, buf); err != nil {
					log.Fatal(err)
				}
			}
			if err := wr.Close(p); err != nil {
				log.Fatal(err)
			}
		})
	}
	if err := m2.Run(); err != nil {
		log.Fatal(err)
	}

	// Phase 3: sequential verification through the S view.
	ctx := pario.NewWall()
	r, err := pario.OpenReader(f2, pario.Options{NBufs: 2})
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
		for c := 0; c < cols; c++ {
			got := math.Float64frombits(binary.BigEndian.Uint64(data[c*8:]))
			want := (float64(rec) + float64(c)/100) * 2
			if math.Abs(got-want) > 1e-12 {
				bad++
			}
		}
	}
	_ = r.Close(ctx)
	fmt.Printf("wrapped matrix %dx%d over %d processes\n", rows, cols, procs)
	fmt.Printf("parallel write finished at virtual t=%v\n", writeDone)
	fmt.Printf("verification: %d bad elements (want 0)\n", bad)
	if bad != 0 {
		log.Fatalf("verification found %d bad elements", bad)
	}
}
