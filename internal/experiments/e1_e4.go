package experiments

import (
	"fmt"
	"time"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/stats"
)

// e1Striping measures sequential (type S) read and write bandwidth as
// the file is striped over 1..16 devices — the §4 claim that "disk
// striping can be used to spread the file across multiple drives,
// resulting in higher transfer rates".
func e1Striping(rec *probe.Recorder) (*Result, error) {
	const records = 1024 // 4 MiB with 4 KiB records
	const recordSize = 4096
	table := stats.NewTable("E1: type-S scan of a 4 MiB file, striped (stripe unit = 1 block)",
		"devices", "read time", "read MB/s", "read speedup", "write time", "write MB/s")
	table.Note = "read-ahead/write-behind sized to the device count; speedup is vs 1 device"
	metrics := map[string]float64{}

	var baseRead time.Duration
	for _, devs := range []int{1, 2, 4, 8, 16} {
		// The fill is the timed write.
		opts := core.Options{NBufs: 2 * devs, IOProcs: devs, EarlyRelease: true}
		res, err := organization{
			drives: devs,
			spec: pfs.Spec{Name: "s", Org: pfs.OrgSequential, RecordSize: recordSize,
				BlockRecords: 1, NumRecords: records, StripeUnitFS: 1},
			fillOpts: opts,
			phases:   [][]consumer{team(1, global, opts, 0)},
		}.run(rec)
		if err != nil {
			return nil, err
		}
		bytes := int64(records) * recordSize
		readTime, writeTime := res.ends[0], res.fill
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

// e2SelfSched measures the §4 self-scheduling optimization: early
// pointer release vs holding the shared pointer through each transfer,
// across compute/IO ratios.
func e2SelfSched(rec *probe.Recorder) (*Result, error) {
	const records = 512
	const recordSize = 4096
	const workers = 8
	const devs = 4
	table := stats.NewTable("E2: 8 workers self-scheduling 512 records from a 4-device striped SS file",
		"compute/record", "early release", "serialized", "speedup")
	table.Note = "early release = pointer advanced and buffer reserved before the transfer completes (§4)"
	metrics := map[string]float64{}

	// run is 8 workers claiming from one handle, blockRecords records a
	// block, each computing for compute a record.
	run := func(blockRecords int, v view, early bool, compute time.Duration) (orgResult, error) {
		return organization{
			drives: devs,
			spec: pfs.Spec{Name: "ss", Org: pfs.OrgSelfScheduled, RecordSize: recordSize,
				BlockRecords: blockRecords, NumRecords: records, StripeUnitFS: 1},
			fillOpts: core.Options{NBufs: 2 * devs, IOProcs: devs},
			phases:   [][]consumer{team(workers, v, core.Options{NBufs: 2 * devs, IOProcs: devs, EarlyRelease: early}, compute)},
		}.run(rec)
	}
	for _, compute := range []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
		early, err := run(1, claim, true, compute)
		if err != nil {
			return nil, err
		}
		serial, err := run(1, claim, false, compute)
		if err != nil {
			return nil, err
		}
		table.AddRow(compute, early.ends[0], serial.ends[0], stats.Speedup(serial.ends[0], early.ends[0]))
		metrics[fmt.Sprintf("speedup_c%dms", compute/time.Millisecond)] = stats.Speedup(serial.ends[0], early.ends[0])
	}

	// Extension (§3.1): "self-scheduling by block for multi-record blocks
	// could be provided if needed" — claiming whole 4-record blocks
	// amortizes the shared-pointer critical section.
	granTable := stats.NewTable("E2b: claim granularity, 512 records in 4-record blocks, 2 ms compute/record",
		"claim unit", "elapsed", "pointer claims")
	for _, g := range []struct {
		unit, key string
		v         view
	}{{"record", "claims_record", claim}, {"block (4 records)", "claims_block", claimBlocks}} {
		res, err := run(4, g.v, true, 2*time.Millisecond)
		if err != nil {
			return nil, err
		}
		granTable.AddRow(g.unit, res.ends[0], res.claims)
		metrics[g.key] = float64(res.claims)
	}
	return &Result{Tables: []*stats.Table{table, granTable}, Metrics: metrics}, nil
}

// e3DevicePerProcess shows the §4 property of PS/IS placements: with one
// device per process, processes "are free to proceed at different
// rates"; sharing one device couples them.
func e3DevicePerProcess(rec *probe.Recorder) (*Result, error) {
	const procs = 4
	const blocksPerPart = 64
	const recordSize = 4096
	table := stats.NewTable("E3: 4 PS partitions, per-process compute rates 0/4/8/12 ms per block",
		"devices", "finish p0", "finish p1", "finish p2", "finish p3", "fast proc slowdown vs private")
	table.Note = "private devices let the light process finish early; a shared device couples everyone"

	var finish [2][]time.Duration // private, shared
	for i, devs := range []int{procs, 1} {
		cs := team(procs, part, core.Options{NBufs: 2, IOProcs: 1}, 0)
		for w := range cs {
			cs[w].compute = time.Duration(w) * 4 * time.Millisecond
		}
		res, err := organization{
			drives: devs,
			spec: pfs.Spec{Name: "ps", Org: pfs.OrgPartitioned, RecordSize: recordSize,
				BlockRecords: 1, NumRecords: procs * blocksPerPart, Parts: procs},
			fillOpts: core.Options{NBufs: 4, IOProcs: 2},
			phases:   [][]consumer{cs},
		}.run(rec)
		if err != nil {
			return nil, err
		}
		finish[i] = res.finish
	}
	private, shared := finish[0], finish[1]
	table.AddRow(procs, private[0], private[1], private[2], private[3], 1.0)
	slow := float64(shared[0]) / float64(private[0])
	table.AddRow(1, shared[0], shared[1], shared[2], shared[3], slow)
	metrics := map[string]float64{
		"private_fast_finish_ms": float64(private[0]) / float64(time.Millisecond),
		"shared_fast_finish_ms":  float64(shared[0]) / float64(time.Millisecond),
		"fast_proc_slowdown":     slow,
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// e4SeekInterference measures the §4 concern that with fewer devices
// than processes "seek times are likely to cause some performance
// degradation as the drive services requests from different processes",
// and compares the two on-device allocation policies ("work is needed
// here to determine the best ways to allocate space").
func e4SeekInterference(rec *probe.Recorder) (*Result, error) {
	const procs = 16
	const blocksPerPart = 32
	const recordSize = 4096
	table := stats.NewTable("E4: 16 PS readers, devices swept 16..1, contiguous vs interleaved on-device packing",
		"devices", "procs/device", "pack", "elapsed", "agg MB/s", "seeks", "seek cylinders")
	table.Note = "FCFS queues; interleaved packing keeps co-resident partitions' current blocks close together"
	metrics := map[string]float64{}

	// run is the 16 readers, a light 1 ms a record keeping them in
	// lockstep; the seeks counted are the scan's.
	run := func(devs int, pack blockio.Pack, sched device.Sched) (orgResult, error) {
		return organization{
			drives: devs, sched: sched,
			spec: pfs.Spec{Name: "ps", Org: pfs.OrgPartitioned, RecordSize: recordSize,
				BlockRecords: 1, NumRecords: procs * blocksPerPart, Parts: procs, Pack: pack},
			fillOpts: core.Options{NBufs: 4, IOProcs: 2},
			phases:   [][]consumer{team(procs, part, core.Options{NBufs: 2, IOProcs: 1}, time.Millisecond)},
		}.run(rec)
	}

	bytes := int64(procs) * blocksPerPart * recordSize
	for _, devs := range []int{16, 8, 4, 2, 1} {
		for _, pack := range []blockio.Pack{blockio.PackContiguous, blockio.PackInterleaved} {
			res, err := run(devs, pack, device.FCFS)
			if err != nil {
				return nil, err
			}
			elapsed := res.ends[0]
			table.AddRow(devs, procs/devs, pack.String(), elapsed, stats.MBps(bytes, elapsed), res.seeks, res.seekCyls)
			metrics[fmt.Sprintf("mbps_d%d_%s", devs, pack)] = stats.MBps(bytes, elapsed)
			metrics[fmt.Sprintf("seekcyls_d%d_%s", devs, pack)] = float64(res.seekCyls)
		}
	}

	// Ablation: the elevator (SCAN) discipline is the classic device-level
	// mitigation for the same interference; compare it against FCFS on
	// the worst (contiguous) allocation.
	scanTable := stats.NewTable("E4b: device scheduling ablation on the contiguous allocation",
		"devices", "discipline", "elapsed", "agg MB/s", "seek cylinders")
	for _, devs := range []int{4, 1} {
		for _, sched := range []device.Sched{device.FCFS, device.SCAN} {
			res, err := run(devs, blockio.PackContiguous, sched)
			if err != nil {
				return nil, err
			}
			elapsed := res.ends[0]
			scanTable.AddRow(devs, sched.String(), elapsed, stats.MBps(bytes, elapsed), res.seekCyls)
			metrics[fmt.Sprintf("mbps_d%d_%s", devs, sched)] = stats.MBps(bytes, elapsed)
			metrics[fmt.Sprintf("seekcyls_d%d_%s", devs, sched)] = float64(res.seekCyls)
		}
	}
	return &Result{Tables: []*stats.Table{table, scanTable}, Metrics: metrics}, nil
}
