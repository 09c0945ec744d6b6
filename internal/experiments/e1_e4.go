package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E1Striping measures sequential (type S) read and write bandwidth as
// the file is striped over 1..16 devices — the §4 claim that "disk
// striping can be used to spread the file across multiple drives,
// resulting in higher transfer rates".
func E1Striping(rec *probe.Recorder) (*Result, error) {
	const records = 1024 // 4 MiB with 4 KiB records
	const recordSize = 4096
	table := stats.NewTable("E1: type-S scan of a 4 MiB file, striped (stripe unit = 1 block)",
		"devices", "read time", "read MB/s", "read speedup", "write time", "write MB/s")
	table.Note = "read-ahead/write-behind sized to the device count; speedup is vs 1 device"
	metrics := map[string]float64{}

	var baseRead time.Duration
	for _, devs := range []int{1, 2, 4, 8, 16} {
		e := sim.NewEngine()
		_, vol, err := array(rec, e, devs, device.FCFS)
		if err != nil {
			return nil, err
		}
		f, err := vol.Create(pfs.Spec{
			Name: "s", Org: pfs.OrgSequential, RecordSize: recordSize,
			BlockRecords: 1, NumRecords: records, StripeUnitFS: 1,
		})
		if err != nil {
			return nil, err
		}
		opts := core.Options{NBufs: 2 * devs, IOProcs: devs, EarlyRelease: true}
		var writeTime, readTime time.Duration
		if _, err := runMain(e, func(p *sim.Proc) error {
			start := p.Now()
			w, err := core.OpenWriter(f, opts)
			if err != nil {
				return err
			}
			buf := make([]byte, recordSize)
			for r := int64(0); r < records; r++ {
				if _, err := w.WriteRecord(p, buf); err != nil {
					return err
				}
			}
			if err := w.Close(p); err != nil {
				return err
			}
			writeTime = p.Now() - start

			start = p.Now()
			rd, err := core.OpenReader(f, opts)
			if err != nil {
				return err
			}
			for {
				if _, _, err := rd.ReadRecord(p); err != nil {
					if err == io.EOF {
						break
					}
					return err
				}
			}
			if err := rd.Close(p); err != nil {
				return err
			}
			readTime = p.Now() - start
			return nil
		}); err != nil {
			return nil, err
		}

		bytes := int64(records) * recordSize
		if devs == 1 {
			baseRead = readTime
		}
		table.AddRow(devs, readTime, stats.MBps(bytes, readTime),
			stats.Speedup(baseRead, readTime), writeTime, stats.MBps(bytes, writeTime))
		metrics[fmt.Sprintf("read_mbps_d%d", devs)] = stats.MBps(bytes, readTime)
		metrics[fmt.Sprintf("read_speedup_d%d", devs)] = stats.Speedup(baseRead, readTime)
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// E2SelfSched measures the §4 self-scheduling optimization: early
// pointer release vs holding the shared pointer through each transfer,
// across compute/IO ratios.
func E2SelfSched(rec *probe.Recorder) (*Result, error) {
	const records = 512
	const recordSize = 4096
	const workers = 8
	const devs = 4
	table := stats.NewTable("E2: 8 workers self-scheduling 512 records from a 4-device striped SS file",
		"compute/record", "early release", "serialized", "speedup")
	table.Note = "early release = pointer advanced and buffer reserved before the transfer completes (§4)"
	metrics := map[string]float64{}

	run := func(early bool, compute time.Duration) (time.Duration, error) {
		e := sim.NewEngine()
		_, vol, err := array(rec, e, devs, device.FCFS)
		if err != nil {
			return 0, err
		}
		f, err := vol.Create(pfs.Spec{
			Name: "ss", Org: pfs.OrgSelfScheduled, RecordSize: recordSize,
			BlockRecords: 1, NumRecords: records, StripeUnitFS: 1,
		})
		if err != nil {
			return 0, err
		}
		var elapsed time.Duration
		_, err = runMain(e, func(p *sim.Proc) error {
			w, err := core.OpenWriter(f, core.Options{NBufs: 2 * devs, IOProcs: devs})
			if err != nil {
				return err
			}
			buf := make([]byte, recordSize)
			for r := int64(0); r < records; r++ {
				if _, err := w.WriteRecord(p, buf); err != nil {
					return err
				}
			}
			if err := w.Close(p); err != nil {
				return err
			}
			start := p.Now()
			opts := core.Options{NBufs: 2 * devs, IOProcs: devs, EarlyRelease: early}
			ss, err := core.OpenSelfSched(f, core.SSRead, opts)
			if err != nil {
				return err
			}
			var g sim.Group
			for wk := 0; wk < workers; wk++ {
				g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
					dst := make([]byte, recordSize)
					for {
						if _, err := ss.ReadNext(c, dst); err != nil {
							return
						}
						if compute > 0 {
							c.Sleep(compute)
						}
					}
				})
			}
			g.Wait(p)
			if err := ss.Close(p); err != nil {
				return err
			}
			elapsed = p.Now() - start
			return nil
		})
		return elapsed, err
	}

	for _, compute := range []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
		early, err := run(true, compute)
		if err != nil {
			return nil, err
		}
		serial, err := run(false, compute)
		if err != nil {
			return nil, err
		}
		table.AddRow(compute, early, serial, stats.Speedup(serial, early))
		metrics[fmt.Sprintf("speedup_c%dms", compute/time.Millisecond)] = stats.Speedup(serial, early)
	}

	// Extension (§3.1): "self-scheduling by block for multi-record blocks
	// could be provided if needed" — claiming whole 4-record blocks
	// amortizes the shared-pointer critical section.
	granTable := stats.NewTable("E2b: claim granularity, 512 records in 4-record blocks, 2 ms compute/record",
		"claim unit", "elapsed", "pointer claims")
	runBlocks := func(byBlock bool) (time.Duration, int64, error) {
		e := sim.NewEngine()
		_, vol, err := array(rec, e, devs, device.FCFS)
		if err != nil {
			return 0, 0, err
		}
		f, err := vol.Create(pfs.Spec{
			Name: "ssb", Org: pfs.OrgSelfScheduled, RecordSize: recordSize,
			BlockRecords: 4, NumRecords: records, StripeUnitFS: 1,
		})
		if err != nil {
			return 0, 0, err
		}
		var elapsed time.Duration
		var claims int64
		_, err = runMain(e, func(p *sim.Proc) error {
			w, err := core.OpenWriter(f, core.Options{NBufs: 2 * devs, IOProcs: devs})
			if err != nil {
				return err
			}
			buf := make([]byte, recordSize)
			for r := int64(0); r < records; r++ {
				if _, err := w.WriteRecord(p, buf); err != nil {
					return err
				}
			}
			if err := w.Close(p); err != nil {
				return err
			}
			start := p.Now()
			ss, err := core.OpenSelfSched(f, core.SSRead, core.Options{NBufs: 2 * devs, IOProcs: devs, EarlyRelease: true})
			if err != nil {
				return err
			}
			var g sim.Group
			for wk := 0; wk < workers; wk++ {
				g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
					dst := make([]byte, recordSize)
					for {
						if byBlock {
							payload, _, err := ss.ReadNextBlock(c)
							if err != nil {
								return
							}
							claims++
							n := len(payload) / recordSize
							c.Sleep(time.Duration(n) * 2 * time.Millisecond)
						} else {
							if _, err := ss.ReadNext(c, dst); err != nil {
								return
							}
							claims++
							c.Sleep(2 * time.Millisecond)
						}
					}
				})
			}
			g.Wait(p)
			if err := ss.Close(p); err != nil {
				return err
			}
			elapsed = p.Now() - start
			return nil
		})
		return elapsed, claims, err
	}
	recElapsed, recClaims, err := runBlocks(false)
	if err != nil {
		return nil, err
	}
	blkElapsed, blkClaims, err := runBlocks(true)
	if err != nil {
		return nil, err
	}
	granTable.AddRow("record", recElapsed, recClaims)
	granTable.AddRow("block (4 records)", blkElapsed, blkClaims)
	metrics["claims_record"] = float64(recClaims)
	metrics["claims_block"] = float64(blkClaims)

	return &Result{Tables: []*stats.Table{table, granTable}, Metrics: metrics}, nil
}

// E3DevicePerProcess shows the §4 property of PS/IS placements: with one
// device per process, processes "are free to proceed at different
// rates"; sharing one device couples them.
func E3DevicePerProcess(rec *probe.Recorder) (*Result, error) {
	const procs = 4
	const blocksPerPart = 64
	const recordSize = 4096
	table := stats.NewTable("E3: 4 PS partitions, per-process compute rates 0/4/8/12 ms per block",
		"devices", "finish p0", "finish p1", "finish p2", "finish p3", "fast proc slowdown vs private")
	table.Note = "private devices let the light process finish early; a shared device couples everyone"
	metrics := map[string]float64{}

	run := func(devs int) ([procs]time.Duration, error) {
		var finish [procs]time.Duration
		e := sim.NewEngine()
		_, vol, err := array(rec, e, devs, device.FCFS)
		if err != nil {
			return finish, err
		}
		f, err := vol.Create(pfs.Spec{
			Name: "ps", Org: pfs.OrgPartitioned, RecordSize: recordSize,
			BlockRecords: 1, NumRecords: procs * blocksPerPart, Parts: procs,
		})
		if err != nil {
			return finish, err
		}
		_, err = runMain(e, func(p *sim.Proc) error {
			// Fill all partitions.
			w, err := core.OpenWriter(f, core.Options{NBufs: 4, IOProcs: 2})
			if err != nil {
				return err
			}
			buf := make([]byte, recordSize)
			for r := int64(0); r < procs*blocksPerPart; r++ {
				if _, err := w.WriteRecord(p, buf); err != nil {
					return err
				}
			}
			if err := w.Close(p); err != nil {
				return err
			}
			start := p.Now()
			var g sim.Group
			for wk := 0; wk < procs; wk++ {
				wid := wk
				compute := time.Duration(wid) * 4 * time.Millisecond
				g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
					r, err := core.OpenPartReader(f, wid, core.Options{NBufs: 2, IOProcs: 1})
					if err != nil {
						return
					}
					for {
						if _, _, err := r.ReadRecord(c); err != nil {
							break
						}
						if compute > 0 {
							c.Sleep(compute)
						}
					}
					_ = r.Close(c)
					finish[wid] = c.Now() - start
				})
			}
			g.Wait(p)
			return nil
		})
		return finish, err
	}

	private, err := run(procs)
	if err != nil {
		return nil, err
	}
	shared, err := run(1)
	if err != nil {
		return nil, err
	}
	table.AddRow(procs, private[0], private[1], private[2], private[3], 1.0)
	slow := float64(shared[0]) / float64(private[0])
	table.AddRow(1, shared[0], shared[1], shared[2], shared[3], slow)
	metrics["private_fast_finish_ms"] = float64(private[0]) / float64(time.Millisecond)
	metrics["shared_fast_finish_ms"] = float64(shared[0]) / float64(time.Millisecond)
	metrics["fast_proc_slowdown"] = slow
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// E4SeekInterference measures the §4 concern that with fewer devices
// than processes "seek times are likely to cause some performance
// degradation as the drive services requests from different processes",
// and compares the two on-device allocation policies ("work is needed
// here to determine the best ways to allocate space").
func E4SeekInterference(rec *probe.Recorder) (*Result, error) {
	const procs = 16
	const blocksPerPart = 32
	const recordSize = 4096
	table := stats.NewTable("E4: 16 PS readers, devices swept 16..1, contiguous vs interleaved on-device packing",
		"devices", "procs/device", "pack", "elapsed", "agg MB/s", "seeks", "seek cylinders")
	table.Note = "FCFS queues; interleaved packing keeps co-resident partitions' current blocks close together"
	metrics := map[string]float64{}

	run := func(devs int, pack blockio.Pack, sched device.Sched) (time.Duration, int64, int64, error) {
		e := sim.NewEngine()
		disks, vol, err := array(rec, e, devs, sched)
		if err != nil {
			return 0, 0, 0, err
		}
		f, err := vol.Create(pfs.Spec{
			Name: "ps", Org: pfs.OrgPartitioned, RecordSize: recordSize,
			BlockRecords: 1, NumRecords: procs * blocksPerPart, Parts: procs,
			Pack: pack,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		var elapsed time.Duration
		_, err = runMain(e, func(p *sim.Proc) error {
			w, err := core.OpenWriter(f, core.Options{NBufs: 4, IOProcs: 2})
			if err != nil {
				return err
			}
			buf := make([]byte, recordSize)
			for r := int64(0); r < procs*blocksPerPart; r++ {
				if _, err := w.WriteRecord(p, buf); err != nil {
					return err
				}
			}
			if err := w.Close(p); err != nil {
				return err
			}
			for _, d := range disks {
				d.ResetStats()
			}
			start := p.Now()
			var g sim.Group
			for wk := 0; wk < procs; wk++ {
				wid := wk
				g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
					r, err := core.OpenPartReader(f, wid, core.Options{NBufs: 2, IOProcs: 1})
					if err != nil {
						return
					}
					for {
						if _, _, err := r.ReadRecord(c); err != nil {
							break
						}
						c.Sleep(time.Millisecond) // light compute keeps procs in lockstep
					}
					_ = r.Close(c)
				})
			}
			g.Wait(p)
			elapsed = p.Now() - start
			return nil
		})
		if err != nil {
			return 0, 0, 0, err
		}
		seeks, cyls := sumSeeks(disks)
		return elapsed, seeks, cyls, nil
	}

	bytes := int64(procs) * blocksPerPart * recordSize
	for _, devs := range []int{16, 8, 4, 2, 1} {
		for _, pack := range []blockio.Pack{blockio.PackContiguous, blockio.PackInterleaved} {
			elapsed, seeks, cyls, err := run(devs, pack, device.FCFS)
			if err != nil {
				return nil, err
			}
			table.AddRow(devs, procs/devs, pack.String(), elapsed, stats.MBps(bytes, elapsed), seeks, cyls)
			metrics[fmt.Sprintf("mbps_d%d_%s", devs, pack)] = stats.MBps(bytes, elapsed)
			metrics[fmt.Sprintf("seekcyls_d%d_%s", devs, pack)] = float64(cyls)
		}
	}

	// Ablation: the elevator (SCAN) discipline is the classic device-level
	// mitigation for the same interference; compare it against FCFS on
	// the worst (contiguous) allocation.
	scanTable := stats.NewTable("E4b: device scheduling ablation on the contiguous allocation",
		"devices", "discipline", "elapsed", "agg MB/s", "seek cylinders")
	for _, devs := range []int{4, 1} {
		for _, sched := range []device.Sched{device.FCFS, device.SCAN} {
			elapsed, _, cyls, err := run(devs, blockio.PackContiguous, sched)
			if err != nil {
				return nil, err
			}
			scanTable.AddRow(devs, sched.String(), elapsed, stats.MBps(bytes, elapsed), cyls)
			metrics[fmt.Sprintf("mbps_d%d_%s", devs, sched)] = stats.MBps(bytes, elapsed)
			metrics[fmt.Sprintf("seekcyls_d%d_%s", devs, sched)] = float64(cyls)
		}
	}
	return &Result{Tables: []*stats.Table{table, scanTable}, Metrics: metrics}, nil
}
