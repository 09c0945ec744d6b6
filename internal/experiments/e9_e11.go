package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/boundary"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fem"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E9ViewMismatch measures the §5 remedies when a file written with a PS
// organization must later be consumed with an IS view: the alternate
// software view (degraded), the global-view fallback (serial), and copy
// conversion (expensive once, fast thereafter).
func E9ViewMismatch(rec *probe.Recorder) (*Result, error) {
	const recordSize = 4096
	const totalRecords = 512
	const devs = 4
	const procs = 4
	table := stats.NewTable("E9: PS-written 2 MiB file consumed with an IS view (4 processes, 4 devices)",
		"strategy", "1 pass", "4 passes", "notes")
	table.Note = "copy-convert pays the conversion once; alternate view pays the placement mismatch every pass"
	metrics := map[string]float64{}

	// readPass performs one full parallel IS-view consumption of f.
	readPass := func(p *sim.Proc, f *pfs.File, native bool) error {
		var g sim.Group
		for w := 0; w < procs; w++ {
			wid := w
			g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
				r, err := core.OpenInterleavedReader(f, wid, procs, core.Options{NBufs: 2, IOProcs: 1})
				if err != nil {
					return
				}
				for {
					if _, _, err := r.ReadRecord(c); err != nil {
						break
					}
					c.Sleep(time.Millisecond)
				}
				_ = r.Close(c)
			})
		}
		g.Wait(p)
		return nil
	}

	mkPS := func(e *sim.Engine) (*pfs.Volume, *pfs.File, error) {
		_, vol, err := array(rec, e, devs, device.FCFS)
		if err != nil {
			return nil, nil, err
		}
		f, err := vol.Create(pfs.Spec{
			Name: "ps", Org: pfs.OrgPartitioned, RecordSize: recordSize,
			BlockRecords: 1, NumRecords: totalRecords, Parts: procs,
		})
		return vol, f, err
	}
	fill := func(p *sim.Proc, f *pfs.File) error {
		w, err := core.OpenWriter(f, core.Options{NBufs: 8, IOProcs: 4})
		if err != nil {
			return err
		}
		buf := make([]byte, recordSize)
		for r := int64(0); r < totalRecords; r++ {
			workload.Record(buf, 1, r)
			if _, err := w.WriteRecord(p, buf); err != nil {
				return err
			}
		}
		return w.Close(p)
	}

	// Strategy 1: alternate view directly on the PS file.
	altOne, altFour := time.Duration(0), time.Duration(0)
	{
		e := sim.NewEngine()
		_, f, err := mkPS(e)
		if err != nil {
			return nil, err
		}
		if _, err := runMain(e, func(p *sim.Proc) error {
			if err := fill(p, f); err != nil {
				return err
			}
			start := p.Now()
			if err := readPass(p, f, false); err != nil {
				return err
			}
			altOne = p.Now() - start
			for i := 0; i < 3; i++ {
				if err := readPass(p, f, false); err != nil {
					return err
				}
			}
			altFour = p.Now() - start
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Strategy 2: global-view fallback (single sequential consumer).
	glbOne, glbFour := time.Duration(0), time.Duration(0)
	{
		e := sim.NewEngine()
		_, f, err := mkPS(e)
		if err != nil {
			return nil, err
		}
		if _, err := runMain(e, func(p *sim.Proc) error {
			if err := fill(p, f); err != nil {
				return err
			}
			start := p.Now()
			pass := func() error {
				r, err := core.OpenReader(f, core.Options{NBufs: 8, IOProcs: 4})
				if err != nil {
					return err
				}
				for {
					if _, _, err := r.ReadRecord(p); err != nil {
						if err == io.EOF {
							return r.Close(p)
						}
						return err
					}
					p.Sleep(time.Millisecond / 4) // same total compute, one process
				}
			}
			if err := pass(); err != nil {
				return err
			}
			glbOne = p.Now() - start
			for i := 0; i < 3; i++ {
				if err := pass(); err != nil {
					return err
				}
			}
			glbFour = p.Now() - start
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Strategy 3: copy-convert to IS, then native passes.
	cpOne, cpFour := time.Duration(0), time.Duration(0)
	{
		e := sim.NewEngine()
		vol, f, err := mkPS(e)
		if err != nil {
			return nil, err
		}
		if _, err := runMain(e, func(p *sim.Proc) error {
			if err := fill(p, f); err != nil {
				return err
			}
			start := p.Now()
			is, err := convert.ToOrganization(p, vol, f, "is", pfs.OrgInterleaved, procs,
				core.Options{NBufs: 8, IOProcs: 4})
			if err != nil {
				return err
			}
			if err := readPass(p, is, true); err != nil {
				return err
			}
			cpOne = p.Now() - start
			for i := 0; i < 3; i++ {
				if err := readPass(p, is, true); err != nil {
					return err
				}
			}
			cpFour = p.Now() - start
			return nil
		}); err != nil {
			return nil, err
		}
	}

	table.AddRow("alternate view (PS placement)", altOne, altFour, "stride fights placement every pass")
	table.AddRow("global-view fallback", glbOne, glbFour, "one sequential consumer")
	table.AddRow("copy-convert to IS", cpOne, cpFour, "includes one full copy")
	metrics["alt_one_s"] = altOne.Seconds()
	metrics["alt_four_s"] = altFour.Seconds()
	metrics["glb_one_s"] = glbOne.Seconds()
	metrics["copy_one_s"] = cpOne.Seconds()
	metrics["copy_four_s"] = cpFour.Seconds()
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// E10Boundary measures the §5 boundary-data remedies on an out-of-core
// 1-D stencil: replicating halo records in the file (bigger file, clean
// per-partition streams, dirty global view) versus caching halos in
// memory (clean file, extra random reads on the first pass only).
func E10Boundary(rec *probe.Recorder) (*Result, error) {
	const recordSize = 4096
	const points = 512
	const parts = 4
	const devs = 4
	table := stats.NewTable("E10: 1-D stencil, 512 records, 4 partitions, 4 devices",
		"halo", "strategy", "file overhead", "1 pass", "4 passes", "global view scan")
	table.Note = "replicate stores halos in the file; cache reads them once via direct access and holds them in memory"
	metrics := map[string]float64{}

	for _, halo := range []int64{1, 8} {
		l, err := boundary.New(parts, points, halo)
		if err != nil {
			return nil, err
		}

		// Strategy A: replicated file.
		var repOne, repFour, repGlobal time.Duration
		{
			e := sim.NewEngine()
			_, vol, err := array(rec, e, devs, device.FCFS)
			if err != nil {
				return nil, err
			}
			f, err := boundary.CreateReplicated(vol, "halo", recordSize, l)
			if err != nil {
				return nil, err
			}
			if _, err := runMain(e, func(p *sim.Proc) error {
				src := func(rec int64, buf []byte) error {
					workload.Record(buf, 2, rec)
					return nil
				}
				for part := 0; part < parts; part++ {
					if err := boundary.WriteReplicated(p, f, l, part, src, core.Options{NBufs: 4, IOProcs: 2}); err != nil {
						return err
					}
				}
				start := p.Now()
				pass := func() error {
					var g sim.Group
					for part := 0; part < parts; part++ {
						pid := part
						g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
							pr, err := boundary.OpenPartReader(f, l, pid, core.Options{NBufs: 2, IOProcs: 1})
							if err != nil {
								return
							}
							for {
								if _, _, err := pr.ReadRecord(c); err != nil {
									break
								}
								c.Sleep(time.Millisecond)
							}
							_ = pr.Close(c)
						})
					}
					g.Wait(p)
					return nil
				}
				if err := pass(); err != nil {
					return err
				}
				repOne = p.Now() - start
				for i := 0; i < 3; i++ {
					if err := pass(); err != nil {
						return err
					}
				}
				repFour = p.Now() - start
				// Global-view scan pays the dedup machinery.
				gStart := p.Now()
				dr, err := boundary.OpenDedupReader(f, l, p, core.Options{NBufs: 4, IOProcs: 2})
				if err != nil {
					return err
				}
				for {
					if _, _, err := dr.ReadRecord(p); err != nil {
						break
					}
				}
				if err := dr.Close(p); err != nil {
					return err
				}
				repGlobal = p.Now() - gStart
				return nil
			}); err != nil {
				return nil, err
			}
		}

		// Strategy B: plain file + in-memory halo cache.
		var cacheOne, cacheFour, plainGlobal time.Duration
		{
			e := sim.NewEngine()
			_, vol, err := array(rec, e, devs, device.FCFS)
			if err != nil {
				return nil, err
			}
			f, err := boundary.CreatePlain(vol, "plain", recordSize, l)
			if err != nil {
				return nil, err
			}
			if _, err := runMain(e, func(p *sim.Proc) error {
				w, err := core.OpenWriter(f, core.Options{NBufs: 8, IOProcs: 4})
				if err != nil {
					return err
				}
				buf := make([]byte, recordSize)
				for r := int64(0); r < points; r++ {
					workload.Record(buf, 2, r)
					if _, err := w.WriteRecord(p, buf); err != nil {
						return err
					}
				}
				if err := w.Close(p); err != nil {
					return err
				}
				start := p.Now()
				// Pass 1 includes halo fills.
				var g sim.Group
				caches := make([]*boundary.HaloCache, parts)
				for part := 0; part < parts; part++ {
					pid := part
					g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
						h := boundary.NewHaloCache(l, pid, recordSize)
						caches[pid] = h
						if err := h.Fill(c, f, core.Options{CacheBlocks: 4}); err != nil {
							return
						}
						r, err := core.OpenPartReader(f, pid, core.Options{NBufs: 2, IOProcs: 1})
						if err != nil {
							return
						}
						for {
							if _, _, err := r.ReadRecord(c); err != nil {
								break
							}
							c.Sleep(time.Millisecond)
						}
						_ = r.Close(c)
					})
				}
				g.Wait(p)
				cacheOne = p.Now() - start
				// Later passes: own records only, halos from memory.
				for i := 0; i < 3; i++ {
					var g2 sim.Group
					for part := 0; part < parts; part++ {
						pid := part
						g2.Spawn(p.Engine(), "w", func(c *sim.Proc) {
							r, err := core.OpenPartReader(f, pid, core.Options{NBufs: 2, IOProcs: 1})
							if err != nil {
								return
							}
							for {
								if _, _, err := r.ReadRecord(c); err != nil {
									break
								}
								c.Sleep(time.Millisecond)
							}
							_ = r.Close(c)
						})
					}
					g2.Wait(p)
				}
				cacheFour = p.Now() - start
				// Global view of the plain file is a free, clean scan.
				gStart := p.Now()
				r, err := core.OpenReader(f, core.Options{NBufs: 4, IOProcs: 2})
				if err != nil {
					return err
				}
				for {
					if _, _, err := r.ReadRecord(p); err != nil {
						break
					}
				}
				if err := r.Close(p); err != nil {
					return err
				}
				plainGlobal = p.Now() - gStart
				return nil
			}); err != nil {
				return nil, err
			}
		}

		ov := fmt.Sprintf("%.1f%%", l.Overhead()*100)
		table.AddRow(halo, "replicate in file", ov, repOne, repFour, repGlobal)
		table.AddRow(halo, "cache in memory", "0%", cacheOne, cacheFour, plainGlobal)
		metrics[fmt.Sprintf("rep_one_h%d_s", halo)] = repOne.Seconds()
		metrics[fmt.Sprintf("rep_four_h%d_s", halo)] = repFour.Seconds()
		metrics[fmt.Sprintf("cache_one_h%d_s", halo)] = cacheOne.Seconds()
		metrics[fmt.Sprintf("cache_four_h%d_s", halo)] = cacheFour.Seconds()
		metrics[fmt.Sprintf("overhead_h%d", halo)] = l.Overhead()
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// E11FemBaseline quantifies the §3 Finite Element Machine experience:
// file-per-process working sets versus one PS parallel file — object
// counts and the pre/post-processing passes users "balked at".
func E11FemBaseline(rec *probe.Recorder) (*Result, error) {
	const recordSize = 4096
	const devs = 4
	table := stats.NewTable("E11: file-per-process (FEM) vs one PS parallel file, 1 MiB of records",
		"procs", "files/proc", "fs objects", "partition pass", "merge pass", "pre+post overhead", "PS parallel file")
	table.Note = "overhead = sequential partition+merge time the PS organization eliminates; PS column = objects it needs"
	metrics := map[string]float64{}

	const totalRecords = 256
	for _, procs := range []int{4, 16, 64} {
		for _, perProc := range []int{1, 4} {
			e := sim.NewEngine()
			_, vol, err := array(rec, e, devs, device.FCFS)
			if err != nil {
				return nil, err
			}
			global, err := vol.Create(pfs.Spec{
				Name: "input", Org: pfs.OrgSequential, RecordSize: recordSize,
				BlockRecords: 1, NumRecords: totalRecords, StripeUnitFS: 1,
			})
			if err != nil {
				return nil, err
			}
			output, err := vol.Create(pfs.Spec{
				Name: "output", Org: pfs.OrgSequential, RecordSize: recordSize,
				BlockRecords: 1, NumRecords: totalRecords, StripeUnitFS: 1,
			})
			if err != nil {
				return nil, err
			}
			m, err := fem.NewManager(vol, "app", procs, perProc)
			if err != nil {
				return nil, err
			}
			if err := m.CreateAll(recordSize, totalRecords/int64(procs)); err != nil {
				return nil, err
			}
			var partT, mergeT time.Duration
			if _, err := runMain(e, func(p *sim.Proc) error {
				w, err := core.OpenWriter(global, core.Options{NBufs: 8, IOProcs: 4})
				if err != nil {
					return err
				}
				buf := make([]byte, recordSize)
				for r := int64(0); r < totalRecords; r++ {
					workload.Record(buf, 3, r)
					if _, err := w.WriteRecord(p, buf); err != nil {
						return err
					}
				}
				if err := w.Close(p); err != nil {
					return err
				}
				partT, err = m.Partition(p, global, core.Options{NBufs: 4, IOProcs: 2})
				if err != nil {
					return err
				}
				mergeT, err = m.Merge(p, output, core.Options{NBufs: 4, IOProcs: 2})
				return err
			}); err != nil {
				return nil, err
			}
			table.AddRow(procs, perProc, m.FileCount(), partT, mergeT, partT+mergeT, "1 object, 0 pre/post")
			metrics[fmt.Sprintf("files_p%d_f%d", procs, perProc)] = float64(m.FileCount())
			metrics[fmt.Sprintf("prepost_s_p%d_f%d", procs, perProc)] = (partT + mergeT).Seconds()
		}
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}
