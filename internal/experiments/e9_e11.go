package experiments

import (
	"fmt"
	"time"

	"repro/internal/boundary"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fourPasses is a body that runs the same phase four times.
func fourPasses(cs []consumer) [][]consumer { return [][]consumer{cs, cs, cs, cs} }

// e9ViewMismatch measures the §5 remedies when a file written with a PS
// organization must later be consumed with an IS view: the alternate
// software view (degraded), the global-view fallback (serial), and copy
// conversion (expensive once, fast thereafter).
func e9ViewMismatch(rec *probe.Recorder) (*Result, error) {
	const recordSize = 4096
	const totalRecords = 512
	const devs = 4
	const procs = 4
	table := stats.NewTable("E9: PS-written 2 MiB file consumed with an IS view (4 processes, 4 devices)",
		"strategy", "1 pass", "4 passes", "notes")
	table.Note = "copy-convert pays the conversion once; alternate view pays the placement mismatch every pass"

	// One pass is a full parallel IS-view consumption, 1 ms a record, or
	// one sequential consumer doing the same total compute.
	isPass := team(procs, interleaved, core.Options{NBufs: 2, IOProcs: 1}, time.Millisecond)
	var one, four [3]time.Duration
	for i, s := range []struct {
		label, notes string
		pass         []consumer
		convert      bool
	}{
		{"alternate view (PS placement)", "stride fights placement every pass", isPass, false},
		{"global-view fallback", "one sequential consumer", team(1, global, core.Options{NBufs: 8, IOProcs: 4}, time.Millisecond/4), false},
		{"copy-convert to IS", "includes one full copy", isPass, true},
	} {
		o := organization{
			drives: devs,
			spec: pfs.Spec{Name: "ps", Org: pfs.OrgPartitioned, RecordSize: recordSize,
				BlockRecords: 1, NumRecords: totalRecords, Parts: procs},
			fillOpts: core.Options{NBufs: 8, IOProcs: 4},
			phases:   fourPasses(s.pass),
		}
		if s.convert {
			o.before = func(p *sim.Proc, vol *pfs.Volume, f *pfs.File) (*pfs.File, error) {
				return convert.ToOrganization(p, vol, f, "is", pfs.OrgInterleaved, procs, core.Options{NBufs: 8, IOProcs: 4})
			}
		}
		res, err := o.run(rec)
		if err != nil {
			return nil, err
		}
		one[i], four[i] = res.ends[0], res.ends[3]
		table.AddRow(s.label, one[i], four[i], s.notes)
	}
	metrics := map[string]float64{
		"alt_one_s": one[0].Seconds(), "alt_four_s": four[0].Seconds(),
		"glb_one_s":  one[1].Seconds(),
		"copy_one_s": one[2].Seconds(), "copy_four_s": four[2].Seconds(),
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// e10Boundary measures the §5 boundary-data remedies on an out-of-core
// 1-D stencil: replicating halo records in the file (bigger file, clean
// per-partition streams, dirty global view) versus caching halos in
// memory (clean file, extra random reads on the first pass only).
func e10Boundary(rec *probe.Recorder) (*Result, error) {
	const recordSize = 4096
	const points = 512
	const parts = 4
	const devs = 4
	table := stats.NewTable("E10: 1-D stencil, 512 records, 4 partitions, 4 devices",
		"halo", "strategy", "file overhead", "1 pass", "4 passes", "global view scan")
	table.Note = "replicate stores halos in the file; cache reads them once via direct access and holds them in memory"
	metrics := map[string]float64{}

	partOpts := core.Options{NBufs: 2, IOProcs: 1}
	// pass is the partitions' consumers, 1 ms a record, each opening open.
	pass := func(open func(p *sim.Proc, f *pfs.File, part int) (recordReader, error)) []consumer {
		cs := team(parts, part, partOpts, time.Millisecond)
		for i := range cs {
			cs[i].open = open
		}
		return cs
	}
	for _, halo := range []int64{1, 8} {
		l, err := boundary.New(parts, points, halo)
		if err != nil {
			return nil, err
		}

		// Strategy A: replicated file, each partition's stream filled with
		// its owned and halo records; the global view pays the dedup
		// machinery.
		repPass := pass(func(_ *sim.Proc, f *pfs.File, part int) (recordReader, error) {
			return boundary.OpenPartReader(f, l, part, partOpts)
		})
		rep, err := organization{
			drives: devs,
			create: func(vol *pfs.Volume) (*pfs.File, error) {
				return boundary.CreateReplicated(vol, "halo", recordSize, l)
			},
			fill: func(p *sim.Proc, f *pfs.File) error {
				src := func(r int64, buf []byte) error { record(buf, r); return nil }
				for part := 0; part < parts; part++ {
					if err := boundary.WriteReplicated(p, f, l, part, src, core.Options{NBufs: 4, IOProcs: 2}); err != nil {
						return err
					}
				}
				return nil
			},
			phases: [][]consumer{repPass, repPass, repPass, repPass, {{
				open: func(p *sim.Proc, f *pfs.File, _ int) (recordReader, error) {
					return boundary.OpenDedupReader(f, l, p, core.Options{NBufs: 4, IOProcs: 2})
				},
			}}},
		}.run(rec)
		if err != nil {
			return nil, err
		}

		// Strategy B: plain file; pass 1 fills each partition's halo cache
		// through direct access first, later passes take halos from memory,
		// and the global view is a free, clean scan.
		haloPass := pass(func(p *sim.Proc, f *pfs.File, part int) (recordReader, error) {
			h := boundary.NewHaloCache(l, part, recordSize)
			if err := h.Fill(p, f, core.Options{CacheBlocks: 4}); err != nil {
				return nil, err
			}
			first, end := l.OwnedRange(part)
			for r := max(first-halo, 0); r < min(end+halo, points); r++ {
				if r < first || r >= end {
					if err := workload.CheckRecord(h.Get(r), fillSeed, r); err != nil {
						return nil, err
					}
				}
			}
			return core.OpenPartReader(f, part, partOpts)
		})
		partPass := team(parts, part, partOpts, time.Millisecond)
		cache, err := organization{
			drives: devs,
			create: func(vol *pfs.Volume) (*pfs.File, error) {
				return boundary.CreatePlain(vol, "plain", recordSize, l)
			},
			fillOpts: core.Options{NBufs: 8, IOProcs: 4},
			phases:   [][]consumer{haloPass, partPass, partPass, partPass, team(1, global, core.Options{NBufs: 4, IOProcs: 2}, 0)},
		}.run(rec)
		if err != nil {
			return nil, err
		}

		ov := fmt.Sprintf("%.1f%%", l.Overhead()*100)
		table.AddRow(halo, "replicate in file", ov, rep.ends[0], rep.ends[3], rep.ends[4]-rep.ends[3])
		table.AddRow(halo, "cache in memory", "0%", cache.ends[0], cache.ends[3], cache.ends[4]-cache.ends[3])
		metrics[fmt.Sprintf("rep_one_h%d_s", halo)] = rep.ends[0].Seconds()
		metrics[fmt.Sprintf("rep_four_h%d_s", halo)] = rep.ends[3].Seconds()
		metrics[fmt.Sprintf("cache_one_h%d_s", halo)] = cache.ends[0].Seconds()
		metrics[fmt.Sprintf("cache_four_h%d_s", halo)] = cache.ends[3].Seconds()
		metrics[fmt.Sprintf("overhead_h%d", halo)] = l.Overhead()
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// e11FemBaseline quantifies the §3 Finite Element Machine experience:
// file-per-process working sets versus one PS parallel file — object
// counts and the pre/post-processing passes users "balked at".
func e11FemBaseline(rec *probe.Recorder) (*Result, error) {
	const recordSize = 4096
	const devs = 4
	table := stats.NewTable("E11: file-per-process (FEM) vs one PS parallel file, 1 MiB of records",
		"procs", "files/proc", "fs objects", "partition pass", "merge pass", "pre+post overhead", "PS parallel file")
	table.Note = "overhead = sequential partition+merge time the PS organization eliminates; PS column = objects it needs"
	metrics := map[string]float64{}

	const totalRecords = 256
	spec := pfs.Spec{Name: "input", Org: pfs.OrgSequential, RecordSize: recordSize,
		BlockRecords: 1, NumRecords: totalRecords, StripeUnitFS: 1}
	for _, procs := range []int{4, 16, 64} {
		for _, perProc := range []int{1, 4} {
			// The body partitions the input into per-process files and
			// merges them into an output file, which is then read back.
			var m *fem.Manager
			var partT, mergeT time.Duration
			if _, err := (organization{
				drives: devs, spec: spec,
				fillOpts: core.Options{NBufs: 8, IOProcs: 4},
				before: func(p *sim.Proc, vol *pfs.Volume, input *pfs.File) (*pfs.File, error) {
					out := spec
					out.Name = "output"
					output, err := vol.Create(out)
					if err != nil {
						return nil, err
					}
					if m, err = fem.NewManager(vol, "app", procs, perProc); err != nil {
						return nil, err
					}
					if err := m.CreateAll(recordSize, totalRecords/int64(procs)); err != nil {
						return nil, err
					}
					if partT, err = m.Partition(p, input, core.Options{NBufs: 4, IOProcs: 2}); err != nil {
						return nil, err
					}
					mergeT, err = m.Merge(p, output, core.Options{NBufs: 4, IOProcs: 2})
					return output, err
				},
				phases: [][]consumer{team(1, global, core.Options{}, 0)},
			}).run(rec); err != nil {
				return nil, err
			}
			table.AddRow(procs, perProc, m.FileCount(), partT, mergeT, partT+mergeT, "1 object, 0 pre/post")
			metrics[fmt.Sprintf("files_p%d_f%d", procs, perProc)] = float64(m.FileCount())
			metrics[fmt.Sprintf("prepost_s_p%d_f%d", procs, perProc)] = (partT + mergeT).Seconds()
		}
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}
