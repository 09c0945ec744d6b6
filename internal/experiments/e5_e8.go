package experiments

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stripe"
	"repro/internal/workload"
)

// e5Decluster reproduces the Livny et al. comparison the paper cites:
// "by splitting blocks across multiple drives rather than allocating
// whole blocks to individual drives, contention problems caused by
// non-uniform access patterns are reduced". Whole blocks live on single
// drives (round-robin); declustered blocks are split into one chunk per
// drive, accessed as a synchronized gang (Kim's interleaving).
func e5Decluster(rec *probe.Recorder) (*Result, error) {
	const blockBytes = 65536 // one database block (transfer-dominated)
	const nBlocks = 64
	const accesses = 48 // per worker
	const workers = 8
	bs := geom1989().BlockSize
	table := stats.NewTable("E5: direct-access database blocks (64 KiB), 8 workers, 48 accesses each",
		"devices", "pattern", "placement", "elapsed", "blocks/s", "mean response", "max drive busy share")
	table.Note = "whole = block on one drive; declustered = block split across all drives (synchronized gang read)"
	metrics := map[string]float64{}

	run := func(devs int, skew float64, declustered bool) (time.Duration, time.Duration, float64, error) {
		e := sim.NewEngine()
		disks := device.NewDrives(devs, device.Config{Geometry: geom1989(), Engine: e})
		attach(rec, "", e, disks, nil)
		var elapsed time.Duration
		var respSum time.Duration
		errs := make([]error, workers)
		_, err := runMain(e, func(p *sim.Proc) error {
			start := p.Now()
			var g sim.Group
			for w := 0; w < workers; w++ {
				seed := uint64(1000 + w)
				g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
					var pat *workload.AccessPattern
					if skew > 0 {
						pat = workload.NewZipfAccess(seed, nBlocks, skew)
					} else {
						pat = workload.NewUniformAccess(seed, nBlocks)
					}
					// read moves dst from drive d's blocks from block on, as one
					// run; the worker keeps the first error it meets.
					read := func(rp *sim.Proc, d int, block int64, dst []byte) {
						err := disks[d].ReadBlocksVec(rp, block, len(dst)/bs, [][]byte{dst})
						if err != nil && errs[w] == nil {
							errs[w] = fmt.Errorf("worker %d: %w", w, err)
						}
					}
					buf := make([]byte, blockBytes)
					for i := 0; i < accesses; i++ {
						b := pat.Next()
						t0 := c.Now()
						if declustered {
							// Synchronized gang read: one chunk per drive.
							chunk := blockBytes / devs
							first := b * int64(chunk/bs)
							var ior sim.Group
							for d := 1; d < devs; d++ {
								ior.Spawn(c.Engine(), "gang", func(gc *sim.Proc) {
									read(gc, d, first, buf[d*chunk:(d+1)*chunk])
								})
							}
							read(c, 0, first, buf[:chunk])
							ior.Wait(c)
						} else {
							drive := int(b % int64(devs))
							read(c, drive, b/int64(devs)*int64(blockBytes/bs), buf)
						}
						respSum += c.Now() - t0
					}
				})
			}
			g.Wait(p)
			elapsed = p.Now() - start
			return errors.Join(errs...)
		})
		if err != nil {
			return 0, 0, 0, err
		}
		var total, max time.Duration
		for _, d := range disks {
			bt := d.Stats().BusyTime
			total += bt
			if bt > max {
				max = bt
			}
		}
		share := 0.0
		if total > 0 {
			share = float64(max) / float64(total) * float64(devs)
		}
		meanResp := respSum / time.Duration(workers*accesses)
		return elapsed, meanResp, share, nil
	}

	for _, devs := range []int{4, 8} {
		for _, pat := range []struct {
			name string
			skew float64
		}{{"uniform", 0}, {"zipf(2.0)", 2.0}} {
			for _, decl := range []bool{false, true} {
				name := "whole"
				if decl {
					name = "declustered"
				}
				elapsed, resp, share, err := run(devs, pat.skew, decl)
				if err != nil {
					return nil, err
				}
				rate := float64(workers*accesses) / elapsed.Seconds()
				table.AddRow(devs, pat.name, name, elapsed, rate, resp, share)
				metrics[fmt.Sprintf("s_d%d_%s_%s", devs, pat.name, name)] = elapsed.Seconds()
				metrics[fmt.Sprintf("resp_ms_d%d_%s_%s", devs, pat.name, name)] = float64(resp) / 1e6
			}
		}
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// e6Buffering reproduces the §4 buffering claims: "buffering overheads
// can be a significant factor in limiting speedups" and "reading ahead
// and deferred writing can be used to overlap I/O operations with
// computation".
func e6Buffering(rec *probe.Recorder) (*Result, error) {
	const records = 256
	const recordSize = 4096
	const devs = 4
	compute := 6 * time.Millisecond // comparable to one block service
	table := stats.NewTable("E6: type-S scan with 6 ms compute per record, 4 striped devices",
		"mode", "buffers", "I/O procs", "elapsed", "vs unbuffered")
	table.Note = "unbuffered = synchronous fetch per record; multiple buffering overlaps transfers with compute"
	metrics := map[string]float64{}

	var baseRead, baseWrite time.Duration
	for _, c := range []struct {
		label          string
		nbufs, ioprocs int
		write          bool
	}{
		{"read, unbuffered", 1, 0, false},
		{"read, single buffer", 1, 1, false},
		{"read, double buffer", 2, 1, false},
		{"read, 4 buffers", 4, 2, false},
		{"read, 8 buffers", 8, 4, false},
		{"write, synchronous", 1, 0, true},
		{"write, deferred x2", 2, 1, true},
		{"write, deferred x4", 4, 2, true},
	} {
		// A read scans what a 4-buffer writer left; a write is the fill,
		// computing before every record, then read back unmeasured.
		opts := core.Options{NBufs: c.nbufs, IOProcs: c.ioprocs}
		o := organization{
			drives: devs,
			spec: pfs.Spec{Name: "s", Org: pfs.OrgSequential, RecordSize: recordSize,
				BlockRecords: 1, NumRecords: records, StripeUnitFS: 1},
			fillOpts: core.Options{NBufs: 4, IOProcs: 2},
			phases:   [][]consumer{team(1, global, opts, compute)},
		}
		if c.write {
			o.fillOpts, o.fillCompute = opts, compute
			o.phases = [][]consumer{team(1, global, opts, 0)}
		}
		res, err := o.run(rec)
		if err != nil {
			return nil, err
		}
		elapsed := res.ends[0]
		if c.write {
			elapsed = res.fill
		}
		if c.label == "read, unbuffered" {
			baseRead = elapsed
		}
		if c.label == "write, synchronous" {
			baseWrite = elapsed
		}
		base := baseRead
		if c.write {
			base = baseWrite
		}
		table.AddRow(c.label, c.nbufs, c.ioprocs, elapsed, stats.Speedup(base, elapsed))
		metrics[c.label] = elapsed.Seconds()
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// e7GlobalView measures the §4 warnings about reading parallel files
// through the global (sequential) view: striped S files parallelize,
// PS files are serial ("all of the data would have to be read from the
// first disk, followed by ... the second"), and IS files degrade when
// the block size approaches the buffer space.
func e7GlobalView(rec *probe.Recorder) (*Result, error) {
	const recordSize = 4096
	const totalRecords = 512
	const devs = 4
	table := stats.NewTable("E7: single-process global-view scan of a 2 MiB file on 4 devices",
		"written as", "paper-block (fs blocks)", "buffers", "elapsed", "MB/s")
	table.Note = "scan uses 8 buffers / 4 I/O procs unless noted; striped-S sets the parallel ceiling"
	metrics := map[string]float64{}

	for _, c := range []struct {
		label          string
		org            pfs.Organization
		blockRecords   int
		nbufs, ioprocs int
	}{
		{"S striped (unit 1)", pfs.OrgSequential, 1, 8, 4},
		{"PS (partition per device)", pfs.OrgPartitioned, 1, 8, 4},
		{"IS (1-block groups)", pfs.OrgInterleaved, 1, 8, 4},
		{"IS (8-block groups, buffers >= group)", pfs.OrgInterleaved, 8, 24, 24},
		{"IS (8-block groups, buffers < group)", pfs.OrgInterleaved, 8, 4, 4},
	} {
		spec := pfs.Spec{Name: "f", Org: c.org, RecordSize: recordSize, BlockRecords: c.blockRecords, NumRecords: totalRecords}
		if c.org == pfs.OrgSequential {
			spec.StripeUnitFS = 1
		} else {
			spec.Parts = devs
		}
		res, err := organization{
			drives: devs, spec: spec,
			fillOpts: core.Options{NBufs: 8, IOProcs: 4},
			phases:   [][]consumer{team(1, global, core.Options{NBufs: c.nbufs, IOProcs: c.ioprocs}, 0)},
		}.run(rec)
		if err != nil {
			return nil, err
		}
		bytes := int64(totalRecords) * recordSize
		elapsed := res.ends[0]
		table.AddRow(c.label, res.file.Mapper().FSPerBlock(), c.nbufs, elapsed, stats.MBps(bytes, elapsed))
		metrics[c.label] = stats.MBps(bytes, elapsed)
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// e8Reliability reproduces the §5 analysis: the MTBF table (including
// the paper's 10-device and 100-device numbers), Monte-Carlo loss rates
// with and without redundancy, and measured inject/recover scenarios on
// parity and shadowed stores.
func e8Reliability(rec *probe.Recorder) (*Result, error) {
	mtbfTable := stats.NewTable("E8a: system MTBF, 30,000 h drives (§5 arithmetic)",
		"devices", "system MTBF", "failures/year", "paper says")
	paperNote := map[int]string{
		10:  "fails every 3000 hours, about 3 times per year",
		100: "more than one failure every two weeks",
	}
	metrics := map[string]float64{}
	for _, n := range []int{1, 10, 50, 100} {
		m := reliability.SystemMTBF(reliability.DeviceMTBF1989, n)
		note := ""
		if s, ok := paperNote[n]; ok {
			note = s
		}
		mtbfTable.AddRow(n, m, reliability.FailuresPerYear(m), note)
		metrics[fmt.Sprintf("mtbf_h_n%d", n)] = m.Hours()
	}

	campTable := stats.NewTable("E8b: Monte-Carlo data-loss probability, 3000 h mission, 24 h repair, 800 missions",
		"devices", "organization", "drives used", "loss probability", "analytic MTTF (hours)")
	mttr := 24 * reliability.Hours
	mission := 3000 * reliability.Hours
	for _, n := range []int{10, 100} {
		plain := reliability.Campaign(sim.NewRNG(42), 800, n, 1, 0, reliability.DeviceMTBF1989, mttr, mission)
		parity := reliability.Campaign(sim.NewRNG(42), 800, n+1, 1, 1, reliability.DeviceMTBF1989, mttr, mission)
		shadow := reliability.Campaign(sim.NewRNG(42), 800, 2*n, n, 1, reliability.DeviceMTBF1989, mttr, mission)
		campTable.AddRow(n, "plain", n, plain.LossRate(),
			reliability.SystemMTBF(reliability.DeviceMTBF1989, n).Hours())
		campTable.AddRow(n, "parity (striped only, §5)", n+1, parity.LossRate(),
			reliability.MTTFSingleFaultHours(reliability.DeviceMTBF1989, mttr, n+1))
		campTable.AddRow(n, "shadowed pairs (2x cost)", 2*n, shadow.LossRate(),
			reliability.MTTFSingleFaultHours(reliability.DeviceMTBF1989, mttr, 2)/float64(n))
		metrics[fmt.Sprintf("loss_plain_n%d", n)] = plain.LossRate()
		metrics[fmt.Sprintf("loss_parity_n%d", n)] = parity.LossRate()
		metrics[fmt.Sprintf("loss_shadow_n%d", n)] = shadow.LossRate()
	}

	// Measured inject/recover scenarios (virtual time).
	scenTable := stats.NewTable("E8c: measured failure scenarios on a 96-block file",
		"store", "scenario", "rebuild time", "data intact")
	geom := device.Geometry{BlockSize: 4096, BlocksPerCyl: 16, Cylinders: 64}
	{
		e := sim.NewEngine()
		disks := device.NewDrives(5, device.Config{Geometry: geom, Engine: e})
		attach(rec, "", e, disks, nil)
		par, err := stripe.NewParity(disks, true)
		if err != nil {
			return nil, err
		}
		vol := pfs.NewVolume(par)
		f, err := vol.Create(pfs.Spec{Name: "data", RecordSize: 4096, NumRecords: 96})
		if err != nil {
			return nil, err
		}
		var rebuild time.Duration
		if _, err := runMain(e, func(p *sim.Proc) error {
			var serr error
			rebuild, serr = reliability.ParityScenario(p, par, f, 2, 0x1)
			return serr
		}); err != nil {
			return nil, err
		}
		scenTable.AddRow("parity (4+1, rotated)", "fail drive, degraded reads, rebuild", rebuild, "yes")
		metrics["parity_rebuild_s"] = rebuild.Seconds()
	}
	{
		e := sim.NewEngine()
		primary := device.NewDrives(2, device.Config{Name: "p", Geometry: geom, Engine: e})
		shadow := device.NewDrives(2, device.Config{Name: "s", Geometry: geom, Engine: e})
		attach(rec, "", e, slices.Concat(primary, shadow), nil)
		mir, err := stripe.NewMirror(primary, shadow)
		if err != nil {
			return nil, err
		}
		vol := pfs.NewVolume(mir)
		f, err := vol.Create(pfs.Spec{Name: "data", RecordSize: 4096, NumRecords: 96})
		if err != nil {
			return nil, err
		}
		var rebuild time.Duration
		if _, err := runMain(e, func(p *sim.Proc) error {
			var serr error
			rebuild, serr = reliability.MirrorScenario(p, mir, f, 0, 0x2)
			return serr
		}); err != nil {
			return nil, err
		}
		scenTable.AddRow("shadowed (2x2)", "fail primary, failover, rebuild from shadow", rebuild, "yes")
		metrics["mirror_rebuild_s"] = rebuild.Seconds()
	}
	{
		// Rollback consistency demo (§5): single-drive restore corrupts.
		e := sim.NewEngine()
		disks, vol, err := array(rec, e, 4, device.Config{Geometry: geom})
		if err != nil {
			return nil, err
		}
		f, err := vol.Create(pfs.Spec{Name: "data", RecordSize: 4096, NumRecords: 96})
		if err != nil {
			return nil, err
		}
		var inconsistent, consistent bool
		if _, err := runMain(e, func(p *sim.Proc) error {
			var derr error
			inconsistent, consistent, derr = reliability.RollbackDemo(p, disks, f, 1)
			return derr
		}); err != nil {
			return nil, err
		}
		scenTable.AddRow("plain striped", "restore ONE drive from backup", time.Duration(0),
			fmt.Sprintf("corrupted=%v (must roll back all drives: ok=%v)", inconsistent, consistent))
		if inconsistent {
			metrics["rollback_hazard"] = 1
		}
		if consistent {
			metrics["rollback_fix"] = 1
		}
	}

	return &Result{Tables: []*stats.Table{mtbfTable, campTable, scenTable}, Metrics: metrics}, nil
}
