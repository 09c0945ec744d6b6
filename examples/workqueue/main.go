// Workqueue: a self-scheduled (SS) file as a queue with multiple
// servers — the paper's motivating use: "self-scheduled input is
// appropriate for algorithms which select the next available unit of
// work for processing, as in a queue with multiple servers."
//
// Tasks grow progressively harder (service time ramps with task id), so
// a static contiguous split hands one server all the hard work;
// self-scheduling balances the load automatically. The example runs the
// same queue both ways and reports the speedup. Both hand each finished
// task's record to a self-scheduled output file (SSWrite) — a
// self-scheduled server claims the next record, a static one the next
// whole block once it has filled one — and check that file read back.
//
// A third section adds result checkpointing: the servers, now a rank
// group, write each round's results collectively. The blocking variant
// stalls every round on WriteAll; the nonblocking variant routes the
// device phase through an I/O server lane (IWriteAll) and computes
// round k+1 while round k's results drain, waiting on the handle only
// before reusing the slot — compute/I/O overlap from the split
// collective, with identical bytes on disk.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"time"

	pario "repro"
)

const (
	workers    = 4
	tasks      = 128
	recordSize = 256
	minService = time.Millisecond
	maxService = 24 * time.Millisecond
)

// buildQueue fills the task file: record i describes task i.
func buildQueue(m *pario.Machine, name string) *pario.File {
	f, err := m.Volume.Create(pario.Spec{
		Name: name, Org: pario.OrgSelfScheduled,
		RecordSize: recordSize, NumRecords: tasks,
	})
	if err != nil {
		log.Fatal(err)
	}
	return f
}

// checkResults exits nonzero unless f holds every task's record once.
func checkResults(f *pario.File) {
	rd, err := pario.OpenGlobalReader(f, pario.NewWall())
	if err != nil {
		log.Fatal(err)
	}
	all, err := io.ReadAll(rd)
	seen := map[int64]bool{}
	for ; err == nil && len(all) > 0; all = all[recordSize:] {
		id := int64(binary.BigEndian.Uint64(all))
		if seen[id] || time.Duration(binary.BigEndian.Uint64(all[8:])) != serviceOf(id) {
			log.Fatalf("results: task %d's record is repeated or wrong", id)
		}
		seen[id] = true
	}
	if len(seen) != tasks {
		log.Fatalf("results: %d of %d tasks (%v)", len(seen), tasks, err)
	}
}

// serviceOf ramps task difficulty linearly with the id.
func serviceOf(id int64) time.Duration {
	return minService + time.Duration(int64(maxService-minService)*id/tasks)
}

func fill(p *pario.Proc, f *pario.File) {
	w, err := pario.OpenWriter(f, pario.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, recordSize)
	for id := int64(0); id < tasks; id++ {
		binary.BigEndian.PutUint64(buf[0:], uint64(id))
		binary.BigEndian.PutUint64(buf[8:], uint64(serviceOf(id)))
		if _, err := w.WriteRecord(p, buf); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(p); err != nil {
		log.Fatal(err)
	}
}

// selfScheduled runs the queue with SS claims.
func selfScheduled() (time.Duration, []int) {
	m := pario.NewMachine(workers)
	f, results := buildQueue(m, "tasks"), buildQueue(m, "results")
	counts := make([]int, workers)
	m.Go("driver", func(p *pario.Proc) {
		fill(p, f)
		ss, err := pario.OpenSelfSched(f, pario.SSRead, pario.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		out, err := pario.OpenSelfSched(results, pario.SSWrite, pario.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		var g pario.Group
		for w := 0; w < workers; w++ {
			wid := w
			g.Spawn(p.Engine(), fmt.Sprintf("server-%d", wid), func(c *pario.Proc) {
				buf := make([]byte, recordSize)
				for {
					if _, err := ss.ReadNext(c, buf); err == io.EOF {
						return
					} else if err != nil {
						log.Fatal(err)
					}
					service := time.Duration(binary.BigEndian.Uint64(buf[8:]))
					c.Sleep(service) // do the work
					if _, err := out.WriteNext(c, buf); err != nil {
						log.Fatal(err)
					}
					counts[wid]++
				}
			})
		}
		g.Wait(p)
		if err := ss.Close(p); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(p); err != nil {
			log.Fatal(err)
		}
	})
	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	checkResults(results)
	return m.Engine.Now(), counts
}

// staticPartition runs the same tasks with a fixed 1/workers split.
func staticPartition() time.Duration {
	m := pario.NewMachine(workers)
	f, results := buildQueue(m, "tasks"), buildQueue(m, "results")
	m.Go("driver", func(p *pario.Proc) {
		fill(p, f)
		out, err := pario.OpenSelfSched(results, pario.SSWrite, pario.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		var g pario.Group
		per := tasks / workers
		for w := 0; w < workers; w++ {
			wid := w
			g.Spawn(p.Engine(), fmt.Sprintf("server-%d", wid), func(c *pario.Proc) {
				// Static contiguous share, read via the block-range view.
				r, err := pario.OpenBlockRangeReader(f,
					int64(wid*per)/int64(f.Mapper().BlockRecords()),
					int64((wid+1)*per)/int64(f.Mapper().BlockRecords()),
					pario.DefaultOptions())
				if err != nil {
					log.Fatal(err)
				}
				block := make([]byte, 0, f.Mapper().BlockRecords()*recordSize)
				for {
					data, _, err := r.ReadRecord(c)
					if err != nil {
						break
					}
					service := time.Duration(binary.BigEndian.Uint64(data[8:]))
					c.Sleep(service)
					if block = append(block, data...); len(block) == cap(block) {
						if _, err := out.WriteNextBlock(c, block); err != nil {
							log.Fatal(err)
						}
						block = block[:0]
					}
				}
				_ = r.Close(c)
			})
		}
		g.Wait(p)
		if err := out.Close(p); err != nil {
			log.Fatal(err)
		}
	})
	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	checkResults(results)
	return m.Engine.Now()
}

const (
	rounds     = 8
	resultSize = 4096
)

// checkpointed runs the ramped tasks round by round on a rank group,
// writing each round's result records through a collective — blocking
// WriteAll, or nonblocking IWriteAll through an I/O server lane with
// the next round's compute overlapping the drain. Returns the modeled
// finish time and a digest of the results file.
func checkpointed(nonblocking bool) (time.Duration, uint64) {
	m := pario.NewMachine(workers)
	f, err := m.Volume.Create(pario.Spec{
		Name: "results", Org: pario.OrgGlobalDirect,
		RecordSize: resultSize, BlockRecords: 1, NumRecords: tasks,
		Placement: pario.PlaceStriped, StripeUnitFS: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	group, err := m.Volume.OpenGroup("results")
	if err != nil {
		log.Fatal(err)
	}
	var opts pario.CollectiveOptions
	var srv *pario.IOServer
	if nonblocking {
		srv = pario.NewIOServer(pario.IOServerConfig{Workers: 1})
		opts.Service = srv.AddJob(pario.IOJobConfig{Name: "results"})
		srv.Start(m.Engine)
	}
	col, err := pario.OpenCollective(group, workers, opts)
	if err != nil {
		log.Fatal(err)
	}
	var done pario.Group
	done.Add(workers)
	perRound := tasks / rounds
	perRank := perRound / workers
	m.GoRanks(workers, "server", func(r *pario.Rank) {
		defer done.Done(r.Proc)
		var pending *pario.IOHandle
		for k := 0; k < rounds; k++ {
			first := int64(k*perRound + r.Rank()*perRank)
			buf := make([]byte, perRank*resultSize)
			for i := int64(0); i < int64(perRank); i++ {
				id := first + i
				r.Proc.Sleep(serviceOf(id)) // do the work
				binary.BigEndian.PutUint64(buf[i*resultSize:], uint64(id*id))
			}
			reqs := []pario.VecReq{{File: 0, Vec: pario.Vec{{Block: first, N: int64(perRank)}}}}
			if !nonblocking {
				if err := col.WriteAll(r, reqs, buf); err != nil {
					log.Fatal(err)
				}
				continue
			}
			// Round k-1's results are still draining on the server while
			// this round computed; rendezvous only now.
			if pending != nil {
				if err := pending.Wait(r); err != nil {
					log.Fatal(err)
				}
			}
			h, err := col.IWriteAll(r, reqs, buf)
			if err != nil {
				log.Fatal(err)
			}
			pending = h
		}
		if pending != nil {
			if err := pending.Wait(r); err != nil {
				log.Fatal(err)
			}
		}
	})
	m.Go("driver", func(p *pario.Proc) {
		done.Wait(p)
		if srv != nil {
			srv.Stop(p)
		}
	})
	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	finished := m.Engine.Now()

	// Digest the results file (FNV-1a) so the two variants' images can
	// be compared; the global view reads it as one byte stream.
	rd, err := pario.OpenGlobalReader(f, pario.NewWall())
	if err != nil {
		log.Fatal(err)
	}
	defer rd.Close()
	sum := uint64(14695981039346656037)
	buf := make([]byte, resultSize)
	for {
		n, err := rd.Read(buf)
		for _, b := range buf[:n] {
			sum = (sum ^ uint64(b)) * 1099511628211
		}
		if err != nil {
			break
		}
	}
	return finished, sum
}

func main() {
	ssTime, counts := selfScheduled()
	stTime := staticPartition()
	fmt.Printf("%d tasks, service %v..%v, %d servers\n", tasks, minService, maxService, workers)
	fmt.Printf("self-scheduled: finished at %v, per-server tasks %v\n", ssTime, counts)
	fmt.Printf("static split:   finished at %v\n", stTime)
	fmt.Printf("self-scheduling speedup: %.2fx\n", float64(stTime)/float64(ssTime))

	blockT, blockSum := checkpointed(false)
	nbT, nbSum := checkpointed(true)
	fmt.Printf("\nresult checkpointing, %d rounds:\n", rounds)
	fmt.Printf("blocking WriteAll:        finished at %v\n", blockT)
	fmt.Printf("nonblocking IWriteAll:    finished at %v (compute overlaps the drain)\n", nbT)
	fmt.Printf("overlap speedup: %.2fx, images identical: %v\n", float64(blockT)/float64(nbT), blockSum == nbSum)
	if blockSum != nbSum {
		log.Fatal("the blocking and nonblocking checkpoints wrote different images")
	}
}
