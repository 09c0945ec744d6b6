// Reduction: a complete mini parallel program in the style the paper
// assumes (§2's MIMD machine): an mpp process group reads a wrapped (IS)
// matrix from a parallel file, computes local row norms, synchronizes at
// a barrier, and combines results with collective reductions — no
// pre-partitioned per-process files anywhere.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"

	pario "repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mpp"
	"repro/internal/sim"
)

const (
	procs = 4
	rows  = 48
	cols  = 16
)

func main() {
	e := pario.NewEngine()
	disks := device.NewDrives(procs, device.Config{Engine: e})
	vol, err := pario.NewVolume(disks)
	if err != nil {
		log.Fatal(err)
	}
	f, err := vol.Create(pario.Spec{
		Name: "matrix", Org: pario.OrgInterleaved,
		RecordSize: cols * 8, BlockRecords: 1, NumRecords: rows, Parts: procs,
	})
	if err != nil {
		log.Fatal(err)
	}

	var frobenius, maxRow float64
	_, join := mpp.Run(e, procs, "rank", func(p *mpp.Proc) {
		// Phase 1: each rank writes its wrapped rows.
		w, err := core.OpenInterleavedWriter(f, p.Rank(), p.Size(), core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, cols*8)
		for row := p.Rank(); row < rows; row += p.Size() {
			for c := 0; c < cols; c++ {
				binary.BigEndian.PutUint64(buf[c*8:], math.Float64bits(float64(row+c)))
			}
			if _, err := w.WriteRecord(p, buf); err != nil {
				log.Fatal(err)
			}
		}
		if err := w.Close(p); err != nil {
			log.Fatal(err)
		}
		p.Barrier() // everyone's rows are on disk

		// Phase 2: each rank reads its rows back, computes local sums.
		r, err := core.OpenInterleavedReader(f, p.Rank(), p.Size(), core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		localSq, localMax := 0.0, 0.0
		for {
			data, _, err := r.ReadRecord(p)
			if err == io.EOF {
				break
			}
			if err != nil {
				log.Fatal(err)
			}
			rowSq := 0.0
			for c := 0; c < cols; c++ {
				v := math.Float64frombits(binary.BigEndian.Uint64(data[c*8:]))
				rowSq += v * v
			}
			localSq += rowSq
			if rowSq > localMax {
				localMax = rowSq
			}
			p.Compute(500 * 1000) // 0.5 ms of virtual compute per row
		}
		_ = r.Close(p)

		// Phase 3: collectives.
		totalSq := p.ReduceSum(localSq)
		rowMax := p.ReduceMax(localMax)
		if p.Rank() == 0 {
			frobenius = math.Sqrt(totalSq)
			maxRow = math.Sqrt(rowMax)
		}
	})
	e.Go("join", func(p *sim.Proc) { join.Wait(p) })
	if err := e.Run(); err != nil {
		log.Fatal(err)
	}

	// Cross-check sequentially.
	want := 0.0
	for row := 0; row < rows; row++ {
		for c := 0; c < cols; c++ {
			want += float64(row+c) * float64(row+c)
		}
	}
	fmt.Printf("%d ranks over a wrapped %dx%d matrix (virtual t=%v)\n", procs, rows, cols, e.Now())
	fmt.Printf("Frobenius norm (reduced) = %.4f, check = %.4f\n", frobenius, math.Sqrt(want))
	fmt.Printf("max row norm  (reduced) = %.4f\n", maxRow)
	if math.Abs(frobenius-math.Sqrt(want)) > 1e-9*math.Sqrt(want) {
		log.Fatalf("reduced Frobenius norm %.6f differs from the sequential %.6f", frobenius, math.Sqrt(want))
	}
}
