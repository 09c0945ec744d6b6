package experiments

import (
	"bytes"
	"fmt"
	"time"

	pario "repro"
	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The mechanism rows: one registry row per mechanism grown on the paper's
// file concepts, each a sweep of a fixture the win tests also call.

// seekCurve prints seek time versus distance for the default drive: one
// request from cylinder 0 to each distance, timed under the engine.
func seekCurve(rec *probe.Recorder) (*Result, error) {
	e := sim.NewEngine()
	d := device.New(device.Config{Engine: e})
	attach(rec, "seek", e, []*device.Disk{d}, nil)
	geom := d.Geometry()
	t := stats.NewTable("Seek curve (default 1989 drive, √distance model)",
		"distance (cylinders)", "seek time")
	t.Note = "includes fixed overhead + half-rotation + one-block transfer"
	metrics := map[string]float64{}
	_, err := runMain(e, func(p *sim.Proc) error {
		iov := [][]byte{make([]byte, geom.BlockSize)}
		for _, dist := range []int{0, 1, 10, 100, 400, geom.Cylinders - 1} {
			// Rehome to cylinder 0, then time the request at dist.
			if err := d.ReadBlocksVec(p, 0, 1, iov); err != nil {
				return err
			}
			t0 := p.Now()
			if err := d.ReadBlocksVec(p, int64(dist)*int64(geom.BlocksPerCyl), 1, iov); err != nil {
				return err
			}
			t.AddRow(dist, p.Now()-t0)
			metrics[fmt.Sprintf("seek_s_c%d", dist)] = (p.Now() - t0).Seconds()
		}
		return nil
	})
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, err
}

// serviceTimes prints the service-time decomposition for common sizes.
func serviceTimes(*probe.Recorder) (*Result, error) {
	timing := device.DefaultTiming1989()
	t := stats.NewTable("Single-request service time, no seek (default drive)",
		"transfer size", "overhead", "rotation/2", "transfer", "total")
	metrics := map[string]float64{}
	for _, size := range []int{4096, 16384, 65536} {
		tr := time.Duration(float64(size) / timing.TransferRate * float64(time.Second))
		total := timing.Overhead + timing.RotationPeriod/2 + tr
		t.AddRow(fmt.Sprintf("%d KiB", size/1024), timing.Overhead, timing.RotationPeriod/2, tr, total)
		metrics[fmt.Sprintf("service_s_%dKiB", size/1024)] = total.Seconds()
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// rawScan reads a blocks-long file striped with the given unit over devs
// fresh default drives straight through its blockio.Set — no access
// method, no buffering — and checks every byte read. readers > 0 scans
// block-at-a-time from that many concurrent processes sharing one cursor;
// otherwise one process reads window-block descriptors in order.
func rawScan(rec *probe.Recorder, scope string, devs int, unit, blocks int64, readers int, window int64) (requests int64, elapsed time.Duration, err error) {
	e := sim.NewEngine()
	disks := device.NewDrives(devs, device.Config{Engine: e})
	store, err := blockio.NewDirect(disks)
	if err != nil {
		return 0, 0, err
	}
	attach(rec, scope, e, disks, store)
	set, err := blockio.NewSet(store, blockio.NewStriped(devs, unit), make([]int64, devs), blocks)
	if err != nil {
		return 0, 0, err
	}
	// The image goes down untimed as one run per drive, which leaves every
	// head on cylinder 0, where a fresh drive's is.
	bs := int64(store.BlockSize())
	image := make([]byte, blocks*bs)
	for b := int64(0); b < blocks; b++ {
		stamp(image[b*bs:][:bs], b, 0)
	}
	if err := set.WriteVec(sim.NewWall(), blockio.Vec{{Block: 0, N: blocks}}, image); err != nil {
		return 0, 0, err
	}
	for _, d := range disks {
		d.ResetStats()
	}
	var scanErr error
	next := int64(0)
	scan := func(c *sim.Proc, window int64) {
		buf := make([]byte, window*bs)
		for scanErr == nil && next < blocks {
			b, n := next, min(window, blocks-next)
			next += n
			if err := set.ReadVec(c, blockio.Vec{{Block: b, N: n}}, buf[:n*bs]); err != nil {
				scanErr = err
			} else if !bytes.Equal(buf[:n*bs], image[b*bs:(b+n)*bs]) {
				scanErr = fmt.Errorf("blocks [%d,%d) read back wrong", b, b+n)
			}
		}
	}
	e.Go("scan", func(p *sim.Proc) {
		if readers == 0 {
			scan(p, window)
			return
		}
		var g sim.Group
		for i := 0; i < readers; i++ {
			g.Spawn(p.Engine(), "reader", func(c *sim.Proc) { scan(c, 1) })
		}
		g.Wait(p)
	})
	if err := e.Run(); err != nil {
		return 0, 0, err
	}
	for _, d := range disks {
		requests += d.Stats().Requests()
	}
	return requests, e.Now(), scanErr
}

// stripedScan shows aggregate bandwidth of a striped raw scan.
func stripedScan(rec *probe.Recorder) (*Result, error) {
	const blocks = 256
	t := stats.NewTable("Raw striped scan of 256 blocks (4 KiB), read-ahead = device count",
		"devices", "elapsed", "MB/s")
	metrics := map[string]float64{}
	for _, devs := range []int{1, 2, 4, 8} {
		_, elapsed, err := rawScan(rec, fmt.Sprintf("stripe/%d", devs), devs, 1, blocks, devs, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow(devs, elapsed, stats.MBps(blocks*4096, elapsed))
		metrics[fmt.Sprintf("mbps_d%d", devs)] = stats.MBps(blocks*4096, elapsed)
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// windowScan is the extent and noncontig rows: one process scanning 1024
// blocks on 4 drives in descriptors of 1, 8 and 32 blocks.
func windowScan(rec *probe.Recorder, id string, unit int64, t *stats.Table, speedup bool) (*Result, error) {
	const devs, blocks = 4, 1024
	metrics := map[string]float64{}
	var base time.Duration
	for _, window := range []int64{1, 8, 32} {
		requests, elapsed, err := rawScan(rec, fmt.Sprintf("%s/%d", id, window), devs, unit, blocks, 0, window)
		if err != nil {
			return nil, err
		}
		if window == 1 {
			base = elapsed
		}
		row := []any{window, requests, elapsed, stats.MBps(blocks*4096, elapsed)}
		if speedup {
			row = append(row, speedupCell(base, elapsed))
		}
		t.AddRow(row...)
		metrics[fmt.Sprintf("requests_w%d", window)] = float64(requests)
		metrics[fmt.Sprintf("elapsed_s_w%d", window)] = elapsed.Seconds()
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// extentScan shows request coalescing: the same sequential scan issued
// block-at-a-time versus as extents — multi-block runs, each a
// one-segment descriptor.
func extentScan(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Extent coalescing: sequential scan of 1024 blocks (4 KiB) on 4 devices, stripe unit 8",
		"extent (blocks)", "requests", "elapsed", "MB/s")
	t.Note = "one queued request per physically contiguous run: overhead+seek+rotation paid once per extent"
	return windowScan(rec, "extent", 8, t, false)
}

// vectoredScan shows scatter/gather coalescing on the layout extent I/O
// cannot serve: a unit-1 declustered file, where logically consecutive
// blocks alternate devices. Block-at-a-time every block is its own
// request; through a vectored descriptor each window collapses to one
// gather request per device.
func vectoredScan(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Vectored I/O: sequential scan of a unit-1 declustered file, 1024 blocks (4 KiB) on 4 devices",
		"window (blocks)", "requests", "elapsed", "MB/s", "speedup")
	t.Note = "unit-1 striping defeats extent coalescing (physically adjacent blocks are logically strided);\nthe scatter/gather descriptor merges them anyway: one gather request per device per window"
	return windowScan(rec, "noncontig", 1, t, true)
}

// linked is the paper profile with a modeled interconnect and the given
// collective options: the machine most mechanism rows run on.
func linked(msg time.Duration, bytesPerSec, bisection float64, opts pario.CollectiveOptions) pario.Profile {
	pf := pario.PaperProfile()
	pf.LinkMsg, pf.LinkBytes, pf.Bisection, pf.Collective = msg, bytesPerSec, bisection, opts
	return pf
}

// speedupCell renders base/d as a table cell.
func speedupCell(base, d time.Duration) string {
	return fmt.Sprintf("%.2fx", float64(base)/float64(d))
}

// CollectiveCheckpoint is the 8-rank strided checkpoint of 1024 records
// over 4 default drives, issued independently (each rank one vectored
// write of its own records — physically strided, so nothing merges) or
// collectively (ranks exchange with aggregator ranks over a 100 MB/s,
// 10 µs interconnect — generous 1989 numbers, charged only to the
// collective path — and each aggregator writes one contiguous file domain
// as a cross-file batch).
func CollectiveCheckpoint(independent bool) Checkpoint {
	return Checkpoint{
		Drives: 4, Ranks: 8, Blocks: 1024, Independent: independent,
		Profile: linked(10*time.Microsecond, 100e6, 0, pario.CollectiveOptions{}),
	}
}

// collectiveWrite shows two-phase collective I/O on CollectiveCheckpoint.
func collectiveWrite(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Collective I/O: 8-rank strided checkpoint, 1024 records (4 KiB) on 4 devices, unit-1 declustered",
		"mode", "requests", "elapsed", "MB/s", "speedup")
	t.Note = "two-phase: ranks ship pieces to aggregator ranks (modeled 100 MB/s link), each aggregator\nwrites one contiguous file domain as a single cross-file gather per device"
	metrics := map[string]float64{}
	var base time.Duration
	for _, mode := range []string{"independent", "collective"} {
		res, err := CollectiveCheckpoint(mode == "independent").Traced(rec, "collective/"+mode).Run()
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = res.Elapsed
		}
		t.AddRow(mode, res.Requests, res.Elapsed, stats.MBps(res.Bytes, res.Elapsed), speedupCell(base, res.Elapsed))
		metrics["requests_"+mode] = float64(res.Requests)
		metrics["elapsed_s_"+mode] = res.Elapsed.Seconds()
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// StrategyCell is one cell of the strategy sweep: an access pattern, a
// rank count and a link. Congested is 2 MB/s links with 100 µs messages
// sharing a 1 MB/s bisection pool; otherwise 100 MB/s and 10 µs, no pool.
type StrategyCell struct {
	Pattern   Pattern
	Ranks     int
	Congested bool
}

// StrategyCells enumerates the density × rank-count × link sweep.
func StrategyCells() []StrategyCell {
	var cells []StrategyCell
	for _, pattern := range []Pattern{Dense, Sparse, Strided} {
		for _, ranks := range []int{4, 8} {
			for _, congested := range []bool{false, true} {
				cells = append(cells, StrategyCell{pattern, ranks, congested})
			}
		}
	}
	return cells
}

// Name labels the cell ("interleaved/r8/congested").
func (c StrategyCell) Name() string {
	return fmt.Sprintf("%s/r%d/%s", c.patternName(), c.Ranks, c.link())
}

func (c StrategyCell) patternName() string {
	return map[Pattern]string{Dense: "dense", Sparse: "sparse", Strided: "interleaved"}[c.Pattern]
}

func (c StrategyCell) link() string {
	if c.Congested {
		return "congested"
	}
	return "fast"
}

// Checkpoint is the cell's rank-disjoint collective write of 1024 blocks
// on 4 drives under one strategy.
func (c StrategyCell) Checkpoint(strat pario.Strategy) Checkpoint {
	pf := linked(10*time.Microsecond, 100e6, 0, pario.CollectiveOptions{Strategy: strat})
	if c.Congested {
		pf = linked(100*time.Microsecond, 2e6, 1e6, pf.Collective)
	}
	return Checkpoint{Drives: 4, Ranks: c.Ranks, Blocks: 1024, Pattern: c.Pattern, Profile: pf}
}

// strategySweep sweeps access density × rank count × link bandwidth over
// the strategy selector: rank-disjoint collective writes executed under
// each fixed strategy (vectored, sieved, two-phase) and under
// StrategyAuto, which prices the routes per call. Dense partition-local
// patterns favor sieving, sparse ones vectored I/O, interleaved ones the
// two-phase exchange — until link congestion inverts that trade; the
// route column shows what Auto picked, and predicted what it priced
// that pick at, beside the modeled time the call then took and
// the pipeline depth it priced cheapest (no handle bounds the chunk: Auto
// prices every depth below a whole domain, the fixed strategies run one
// round).
func strategySweep(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Strategy selection: rank-disjoint collective writes, 1024 blocks (4 KiB) on 4 devices",
		"pattern", "ranks", "link", "vectored", "sieved", "two-phase", "auto", "route", "predicted", "pred/real", "depth")
	t.Note = "auto prices vectored/sieved/two-phase per call from the drive parameters and the link model;\nroute is the path auto picked — dense favors sieving, sparse vectored, interleaved two-phase\n(until congestion inverts the trade); predicted is what the cost model priced that pick at,\npred/real its ratio to the modeled time the call took, depth the pipeline rounds it priced\ncheapest for a two-phase pick (0: an independent route); with -metrics, collective.*.plan.*\ncount the two-phase calls per partition (aligned = file domains cut at drive boundaries) and\n.plan.depth_price_ms.<rounds> list what every depth tried was priced at"
	metrics := map[string]float64{}
	for _, cell := range StrategyCells() {
		row := []any{cell.patternName(), cell.Ranks, cell.link()}
		var auto CheckpointResult // Auto runs last: its route, price and time close the row
		for _, strat := range []pario.Strategy{
			pario.StrategyVectored, pario.StrategySieved, pario.StrategyCollective, pario.StrategyAuto,
		} {
			var err error
			if auto, err = cell.Checkpoint(strat).Traced(rec, fmt.Sprintf("strategy/%s/%v", cell.Name(), strat)).Run(); err != nil {
				return nil, err
			}
			row = append(row, auto.Elapsed)
			metrics[fmt.Sprintf("elapsed_s_%s_%v", cell.Name(), strat)] = auto.Elapsed.Seconds()
		}
		ratio := auto.Predicted.Seconds() / auto.Elapsed.Seconds()
		t.AddRow(append(row, auto.Route, auto.Predicted, fmt.Sprintf("%.2f", ratio), auto.Depth)...)
		metrics["predicted_over_realised_"+cell.Name()] = ratio
		for route, price := range map[string]time.Duration{
			"vectored": auto.Prices.Vectored, "sieved": auto.Prices.Sieved,
			"two-phase": auto.Prices.TwoPhase, "aligned": auto.Prices.Aligned,
		} {
			metrics[fmt.Sprintf("price_s_%s_%s", cell.Name(), route)] = price.Seconds()
		}
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// ShiftedCheckpoint is the nearly-aligned checkpoint of 1024 records over
// 4 default drives: every rank writes one Shifted slab, on contended
// 1989-class hardware — 2.5 MB/s per-process channels sharing a bisection
// pool of the given bandwidth (0: none).
func ShiftedCheckpoint(ranks int, bisection float64, opts pario.CollectiveOptions) Checkpoint {
	return Checkpoint{
		Drives: 4, Ranks: ranks, Blocks: 1024, Pattern: Shifted,
		Profile: linked(10*time.Microsecond, 2.5e6, bisection, opts),
	}
}

// contendedSweep sweeps rank count × bisection bandwidth over
// ShiftedCheckpoint: round-robin domain assignment ships every byte
// across the interconnect while locality-aware assignment ships almost
// none. The shared link makes exchange cost scale with total volume, so
// the locality win grows with rank count and contention.
func contendedSweep(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Contention-aware collective I/O: shifted checkpoint, 1024 records (4 KiB) on 4 devices,\nper-process link 2.5 MB/s, aggregator domains round-robin vs locality-aware",
		"ranks", "bisection", "moved rr", "moved loc", "elapsed rr", "elapsed loc", "speedup")
	t.Note = "rr = round-robin domains, loc = locality-aware (Options.Locality); moved = bytes crossing the\ninterconnect (Collective.LastStats). Device requests are identical — the win is pure exchange."
	metrics := map[string]float64{}
	for _, ranks := range []int{4, 8, 16} {
		for _, bisect := range []float64{0, 25e6, 5e6} {
			var run [2]CheckpointResult // round-robin, locality-aware
			for i, pol := range []string{"rr", "loc"} {
				opts := pario.CollectiveOptions{Aggregators: ranks, Locality: i == 1}
				var err error
				if run[i], err = ShiftedCheckpoint(ranks, bisect, opts).
					Traced(rec, fmt.Sprintf("contended/%d/%.0f/%s", ranks, bisect/1e6, pol)).Run(); err != nil {
					return nil, err
				}
			}
			rr, loc := run[0], run[1]
			bis := "free"
			if bisect > 0 {
				bis = fmt.Sprintf("%.0f MB/s", bisect/1e6)
			}
			t.AddRow(ranks, bis,
				fmt.Sprintf("%.2f MB", float64(rr.Stats.BytesMoved)/1e6),
				fmt.Sprintf("%.2f MB", float64(loc.Stats.BytesMoved)/1e6),
				rr.Elapsed, loc.Elapsed, speedupCell(rr.Elapsed, loc.Elapsed))
			metrics[fmt.Sprintf("speedup_r%d_b%.0f", ranks, bisect/1e6)] = stats.Speedup(rr.Elapsed, loc.Elapsed)
		}
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// pipelineSweep shows chunked collective buffering: the contended 8-rank
// strided checkpoint issued as a single-shot two-phase collective (one
// round: whole exchange, then whole access — each phase idles the
// other's resource) versus the same executor cut into rounds
// (CollectiveOptions.ChunkBytes: the exchange of chunk k+1 overlaps the
// device access of chunk k).
func pipelineSweep(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Pipelined collective I/O: 8-rank strided checkpoint, 4096 records (4 KiB) on 4 devices,\n100 MB/s links sharing a 5 MB/s bisection pool",
		"chunk", "requests", "elapsed", "MB/s", "overlap", "link idle", "speedup")
	t.Note = "overlap = virtual time with the exchange and the drives concurrently busy (Collective.LastStats);\nchunking trades per-chunk request overhead for that overlap — TestPipelineWin enforces the win"
	metrics := map[string]float64{}
	var base time.Duration
	for _, chunk := range []int64{0, 64 * 4096, 256 * 4096} {
		res, err := PipelinedCheckpoint(chunk, 5e6).Traced(rec, fmt.Sprintf("pipeline/%dKiB", chunk/1024)).Run()
		if err != nil {
			return nil, err
		}
		name := "single-shot"
		if chunk > 0 {
			name = fmt.Sprintf("%d KiB", chunk/1024)
		} else {
			base = res.Elapsed
		}
		t.AddRow(name, res.Requests, res.Elapsed, stats.MBps(res.Bytes, res.Elapsed),
			res.Stats.Overlap.Round(time.Millisecond),
			fmt.Sprintf("%.0f%%", 100*(1-res.Stats.ExchangeTime.Seconds()/res.Elapsed.Seconds())),
			speedupCell(base, res.Elapsed))
		metrics[fmt.Sprintf("elapsed_s_chunk%dKiB", chunk/1024)] = res.Elapsed.Seconds()
		metrics[fmt.Sprintf("overlap_s_chunk%dKiB", chunk/1024)] = res.Stats.Overlap.Seconds()
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// PipelinedCheckpoint is the 8-rank strided checkpoint of 4096 records
// over 4 default drives through a collective with the given chunking, on
// 100 MB/s links sharing a bisection pool of the given bandwidth.
func PipelinedCheckpoint(chunkBytes int64, bisection float64) Checkpoint {
	return Checkpoint{
		Drives: 4, Ranks: 8, Blocks: 4096,
		Profile: linked(10*time.Microsecond, 100e6, bisection, pario.CollectiveOptions{ChunkBytes: chunkBytes}),
	}
}

// scaleGeometry is the small drive the host-cost rows model by the
// thousand: 256-byte blocks, 8 per cylinder.
var scaleGeometry = device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 64}

// ReplayLoop is the iterated contended checkpoint of the replay row:
// ranks ranks over 16 small drives each rewrite their 8 strided blocks
// iters times with fresh contents, with the schedule cache on (iteration
// 1 plans, the rest replay) or off (every iteration replans).
func ReplayLoop(ranks, iters int, cache bool) Checkpoint {
	return Checkpoint{
		Drives: 16, Geometry: scaleGeometry, Ranks: ranks, Blocks: int64(8 * ranks), Calls: iters,
		Profile:  linked(2*time.Microsecond, 50e6, 200e6, pario.CollectiveOptions{}),
		Uncached: !cache,
	}
}

// replaySweep sweeps the schedule cache over ReplayLoop. Modeled time is
// identical by construction; the column to watch is host wall-clock.
func replaySweep(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Plan capture & replay: iterated collective checkpoint, host wall-clock cached vs uncached",
		"ranks", "iterations", "modeled", "wall uncached", "wall cached", "speedup")
	t.Note = "cached: iteration 1 builds and captures the schedule, iterations 2+ replay it (fingerprint\nlookup + payload packing only). Modeled results are bit-identical either way — TestPlanReplayWin\nenforces the host-side win and the identity."
	metrics := map[string]float64{}
	for _, ranks := range []int{256, 1024} {
		for _, iters := range []int{4, 32} {
			var run [2]CheckpointResult
			for i, mode := range []string{"uncached", "cached"} {
				var err error
				if run[i], err = ReplayLoop(ranks, iters, i == 1).
					Traced(rec, fmt.Sprintf("replay/%dx%d/%s", ranks, iters, mode)).Run(); err != nil {
					return nil, err
				}
			}
			if run[0].Elapsed != run[1].Elapsed {
				return nil, fmt.Errorf("replay %dx%d: cached run modeled %v, uncached %v", ranks, iters, run[1].Elapsed, run[0].Elapsed)
			}
			t.AddRow(ranks, iters, run[1].Elapsed, run[0].Wall.Round(time.Millisecond), run[1].Wall.Round(time.Millisecond),
				speedupCell(run[0].Wall, run[1].Wall))
			key := fmt.Sprintf("r%d_i%d", ranks, iters)
			metrics["modeled_s_"+key] = run[1].Elapsed.Seconds()
			metrics["host_speedup_"+key] = stats.Speedup(run[0].Wall, run[1].Wall)
		}
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// ProfileCheckpoint is the checkpoint scenario under a cross-layer
// profile: an 8-rank strided collective write of 2048 records on a
// 4-drive machine the profile configures, then rank 0's restart scan.
func ProfileCheckpoint(pf pario.Profile) Checkpoint {
	return Checkpoint{Drives: 4, Ranks: 8, Blocks: 2048, Profile: pf, Restart: true}
}

// profileCompare runs ProfileCheckpoint under the paper's configuration
// and under TunedProfile.
func profileCompare(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Cross-layer profiles: checkpoint write (8-rank collective) + restart scan, 2048 records (4 KiB)\non 4 devices, unit-1 declustered",
		"profile", "requests", "elapsed", "MB/s", "speedup")
	t.Note = "paper = the pinned 1989 model (free link, FCFS, block-at-a-time, single-shot collectives);\ntuned = TunedProfile (extents, SCAN+merge, modeled link, locality + chunked collectives)"
	metrics := map[string]float64{}
	var base time.Duration
	for _, pf := range []pario.Profile{pario.PaperProfile(), pario.TunedProfile()} {
		res, err := ProfileCheckpoint(pf).Traced(rec, "profile/"+pf.Name).Run()
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = res.Elapsed
		}
		// Written, then read back.
		t.AddRow(pf.Name, res.Requests, res.Elapsed, stats.MBps(2*res.Bytes, res.Elapsed), speedupCell(base, res.Elapsed))
		metrics["elapsed_s_"+pf.Name] = res.Elapsed.Seconds()
		metrics["requests_"+pf.Name] = float64(res.Requests)
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// multijobSweep sweeps the I/O service: J jobs (job 0 a bulk writer
// issuing a backlog of nonblocking checkpoints, the rest small
// latency-sensitive jobs at priority 1) share one single-worker server,
// at several arrival spacings, under each QoS policy. The table reports
// the worst small-job p99 — the number FIFO lets the bulk job ruin and
// fair-share or strict priority bound — plus the bulk job's own p99 and
// the run's modeled makespan (QoS reorders the backlog, it does not
// starve it), and what a collective call costs the server and the
// drives: lane requests and device requests per call, over all jobs.
func multijobSweep(rec *probe.Recorder) (*Result, error) {
	const calls = 4
	t := stats.NewTable("Multi-job I/O service: QoS policy vs small jobs' tail latency (one server worker; job 0 is a bulk writer)",
		"jobs", "gap", "policy", "small p99", "bulk p99", "makespan", "lane req/call", "dev req/call")
	t.Note = "small p99 = worst latency percentile across the small jobs' lanes (IOJob.Stats);\ngap staggers job arrivals. fair = start-time fair queuing by served bytes; prio = small jobs at priority 1.\nA nonblocking collective call is one lane request — every aggregator domain in one plan — and at most\none device request per drive (two drives here), whatever the job's size."
	metrics := map[string]float64{}
	row := func(nJobs int, gap time.Duration, pol pario.IOPolicy, chunk int64, label string) error {
		jobs := []Job{{Name: "job0", Blocks: 256, Calls: calls, Backlog: true}}
		for j := 1; j < nJobs; j++ {
			jobs = append(jobs, Job{
				Name: fmt.Sprintf("job%d", j), Blocks: 32, Calls: calls,
				Delay: time.Duration(j) * gap, Priority: 1,
			})
		}
		mix := Multijob{
			Drives: 2, Policy: pol, Jobs: jobs,
			Rec: rec, Scope: fmt.Sprintf("multijob/%d/%s/%s", nJobs, gap, label),
		}
		mix.Profile.Collective.ChunkBytes = chunk
		res, err := mix.Run()
		if err != nil {
			return err
		}
		var small time.Duration
		var laneReqs int64
		for j, st := range res.Lanes {
			laneReqs += st.Completed
			if j > 0 {
				small = max(small, st.P99)
			}
		}
		n := float64(nJobs * calls)
		t.AddRow(nJobs, gap, label, small, res.Lanes[0].P99, res.Makespan,
			fmt.Sprintf("%.2f", float64(laneReqs)/n), fmt.Sprintf("%.2f", float64(res.Requests)/n))
		key := fmt.Sprintf("j%d_gap%v_%v", nJobs, gap, label)
		metrics["small_p99_s_"+key] = small.Seconds()
		metrics["makespan_s_"+key] = res.Makespan.Seconds()
		return nil
	}
	for _, nJobs := range []int{2, 4, 8} {
		for _, gap := range []time.Duration{0, 5 * time.Millisecond} {
			for _, pol := range []pario.IOPolicy{pario.IOFIFO, pario.IOFairShare, pario.IOPriority} {
				if err := row(nJobs, gap, pol, 0, pol.String()); err != nil {
					return nil, err
				}
			}
		}
	}
	// The 8-job, no-gap fair-share row again with ChunkBytes 256 KiB
	// (fair+w): the server issues job0's 1 MiB calls a window at a time
	// and chooses again between windows, so a small job waits for a
	// quarter of a bulk call, not a whole one, and the bulk job pays a
	// positioning for every window it was stopped after.
	if err := row(8, 0, pario.IOFairShare, 256<<10, "fair+w"); err != nil {
		return nil, err
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// CacheMix is the direct-access fixture at the benchmark's size: 16
// processes × 512 accesses through a 64-frame pool.
func CacheMix(ioProcs int) DirectMix {
	return DirectMix{Procs: 16, Accesses: 512, CacheBlocks: 64, IOProcs: ioProcs}
}

// cacheSweep sweeps the direct-access buffer pool (§4: "buffer caching
// techniques would be helpful when there is some locality of reference",
// and dedicated I/O processors that defer writes): CacheMix at three pool
// sizes, the working set always eight times the pool, without and with
// write-behind processes. The hit fraction is the replacement policy's
// (a segmented LRU keeps the Zipf head resident through the tail's
// one-touch blocks); the I/O processes change who waits for the
// write-backs — with none, the miss that needed the frame.
func cacheSweep(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Direct-access buffer pool: 16 processes × 512 Zipf(1.1) record accesses, 70/30 read/write, one shared handle,\nworking set 8× the pool, 8 tuned drives",
		"pool blocks", "I/O procs", "hit fraction", "write-backs", "requests", "elapsed", "speedup")
	t.Note = "I/O procs = Options.IOProcs: 0 writes every dirty victim back inside the miss that evicted it;\nwith n, evictions leave dirty victims to up to n cleaner processes that write them in vectored batches."
	metrics := map[string]float64{}
	for _, pool := range []int{16, 64, 256} {
		var base time.Duration
		for _, io := range []int{0, 1, 2} {
			mix := CacheMix(io)
			mix.CacheBlocks = pool
			mix.Rec, mix.Scope = rec, fmt.Sprintf("cache/%d/%d", pool, io)
			res, err := mix.Run()
			if err != nil {
				return nil, err
			}
			if io == 0 {
				base = res.Elapsed
			}
			t.AddRow(pool, io, fmt.Sprintf("%.3f", res.Cache.HitRate()), res.Cache.WriteBacks, res.Requests, res.Elapsed, speedupCell(base, res.Elapsed))
			key := fmt.Sprintf("c%d_io%d", pool, io)
			metrics["hit_frac_"+key] = res.Cache.HitRate()
			metrics["requests_"+key] = float64(res.Requests)
			metrics["elapsed_s_"+key] = res.Elapsed.Seconds()
		}
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// ScaleCheckpoint is one contended pipelined collective checkpoint at the
// given scale — every rank writes two strided blocks through a chunked
// collective over drives small drives, 100 MB/s links sharing a 500 MB/s
// bisection pool — the shape the engine-scaling work is judged on.
func ScaleCheckpoint(ranks, drives int) Checkpoint {
	return Checkpoint{
		Drives: drives, Geometry: scaleGeometry, Ranks: ranks, Blocks: int64(2 * ranks),
		Profile: linked(2*time.Microsecond, 100e6, 500e6,
			pario.CollectiveOptions{ChunkBytes: int64(8 * scaleGeometry.BlockSize)}),
	}
}

// scaleSweep sweeps the simulation itself: ScaleCheckpoint at growing
// machine sizes, reporting how much wall-clock time one modeled second
// costs. 4096 ranks × 256 drives must stay in single-digit seconds.
func scaleSweep(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Engine scaling: contended pipelined collective checkpoint, wall-clock cost per modeled second",
		"ranks", "drives", "modeled", "wall", "wall s / modeled s")
	t.Note = "wall time is host-dependent; the shape to watch is sub-linear growth in wall s / modeled s\nas ranks × drives grow. BenchmarkEngineScale reports the 4096 × 256 point."
	metrics := map[string]float64{}
	for _, cfg := range [][2]int{{256, 16}, {1024, 64}, {4096, 256}} {
		res, err := ScaleCheckpoint(cfg[0], cfg[1]).Traced(rec, fmt.Sprintf("scale/%dx%d", cfg[0], cfg[1])).Run()
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg[0], cfg[1], res.Elapsed, res.Wall.Round(time.Millisecond),
			fmt.Sprintf("%.3f", res.Wall.Seconds()/res.Elapsed.Seconds()))
		key := fmt.Sprintf("r%d_d%d", cfg[0], cfg[1])
		metrics["modeled_s_"+key] = res.Elapsed.Seconds()
		metrics["host_wall_per_modeled_"+key] = res.Wall.Seconds() / res.Elapsed.Seconds()
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}
