// Command pariosim explores the device model: it prints the seek curve,
// single-drive service times, and a striping demonstration for the
// default 1989-class drive, so the timing assumptions behind every
// experiment are inspectable. With -trace the run records every scenario
// through the flight recorder and writes a Chrome trace-event JSON file
// (load in Perfetto or chrome://tracing); -metrics prints the recorder's
// metrics snapshot and per-track utilization tables after the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	pario "repro"
	"repro/internal/blockio"
	"repro/internal/collective"
	"repro/internal/device"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// rec is the run-wide flight recorder, non-nil when -trace or -metrics
// is given. Every scenario attaches its engines, drives, stores and rank
// groups under a distinct scope prefix so tracks from different sweep
// configurations land on separate timeline rows.
var rec *probe.Recorder

// attach wires the recorder across one scenario engine's layers under
// the given scope; a no-op without -trace/-metrics.
func attach(scope string, e *sim.Engine, disks []*device.Disk, store *blockio.Direct) {
	if rec == nil {
		return
	}
	rec.SetScope(scope)
	e.SetProbe(rec)
	for _, d := range disks {
		d.SetProbe(rec)
	}
	if store != nil {
		store.SetProbe(rec)
	}
}

// attachGroup adds a rank group's per-rank tracks (under the scope set
// by the preceding attach call).
func attachGroup(g *mpp.Group, prefix string) {
	if rec != nil {
		g.SetProbe(rec, prefix)
	}
}

// attachMachine is attach for the pario.Machine facade; rank groups
// launched with GoRanks afterwards attach automatically.
func attachMachine(scope string, m *pario.Machine) {
	if rec == nil {
		return
	}
	rec.SetScope(scope)
	m.SetProbe(rec)
}

func main() {
	scenario := flag.String("scenario", "all", "one of: seek, service, stripe, extent, noncontig, collective, strategy, contended, pipeline, replay, profile, multijob, scale, all")
	profile := flag.String("profile", "", "profile for the profile scenario: tuned, paper, or empty for both")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	tracePath := flag.String("trace", "", "record the run and write Chrome trace-event JSON (Perfetto / chrome://tracing) to this file")
	metrics := flag.Bool("metrics", false, "print the flight recorder's metrics snapshot and per-track utilization after the run")
	flag.Parse()
	if *tracePath != "" || *metrics {
		rec = probe.New()
	}
	if err := profiledRun(*scenario, *profile, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "pariosim: %v\n", err)
		os.Exit(1)
	}
	if err := exportRecording(*tracePath, *metrics, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pariosim: %v\n", err)
		os.Exit(1)
	}
}

// exportRecording writes the trace file and/or prints the metrics and
// utilization tables once the scenarios have run.
func exportRecording(tracePath string, metrics bool, w io.Writer) error {
	if rec == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d spans on %d tracks to %s\n", len(rec.Spans()), len(rec.Tracks()), tracePath)
	}
	if metrics {
		fmt.Fprintln(w, rec.Metrics().Table().String())
		fmt.Fprintln(w, rec.UtilizationTable().String())
	}
	return nil
}

// profiledRun wraps run with the optional pprof captures, so the
// simulator's own hot paths (the scale scenario, above all) can be
// profiled without a test harness.
func profiledRun(scenario, profile, cpuprofile, memprofile string) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(scenario, profile, os.Stdout); err != nil {
		return err
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // report live heap, not transient garbage
		return pprof.WriteHeapProfile(f)
	}
	return nil
}

// run executes one scenario; factored out of main for testability.
func run(scenario, profile string, w io.Writer) error {
	switch scenario {
	case "seek":
		return seekTable(w)
	case "service":
		return serviceTable(w)
	case "stripe":
		return stripeDemo(w)
	case "extent":
		return extentDemo(w)
	case "noncontig":
		return noncontigDemo(w)
	case "collective":
		return collectiveDemo(w)
	case "strategy":
		return strategyDemo(w)
	case "contended":
		return contendedDemo(w)
	case "pipeline":
		return pipelineDemo(w)
	case "replay":
		return replayDemo(w)
	case "profile":
		return profileDemo(w, profile)
	case "multijob":
		return multijobDemo(w)
	case "scale":
		return scaleDemo(w)
	case "all":
		if err := seekTable(w); err != nil {
			return err
		}
		if err := serviceTable(w); err != nil {
			return err
		}
		if err := stripeDemo(w); err != nil {
			return err
		}
		if err := extentDemo(w); err != nil {
			return err
		}
		if err := noncontigDemo(w); err != nil {
			return err
		}
		if err := collectiveDemo(w); err != nil {
			return err
		}
		if err := strategyDemo(w); err != nil {
			return err
		}
		if err := contendedDemo(w); err != nil {
			return err
		}
		if err := pipelineDemo(w); err != nil {
			return err
		}
		if err := replayDemo(w); err != nil {
			return err
		}
		if err := profileDemo(w, profile); err != nil {
			return err
		}
		if err := multijobDemo(w); err != nil {
			return err
		}
		return scaleDemo(w)
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
}

// seekTable prints seek time versus distance for the default drive.
func seekTable(w io.Writer) error {
	e := sim.NewEngine()
	d := device.New(device.Config{Engine: e})
	attach("seek", e, []*device.Disk{d}, nil)
	geom := d.Geometry()
	t := stats.NewTable("Seek curve (default 1989 drive, √distance model)",
		"distance (cylinders)", "seek time")
	bs := geom.BlockSize
	var rows []struct {
		dist int
		dur  time.Duration
	}
	e.Go("probe", func(p *sim.Proc) {
		buf := make([]byte, bs)
		prevCyl := 0
		for _, dist := range []int{0, 1, 10, 100, 400, geom.Cylinders - 1} {
			target := prevCyl // measure by issuing a request at a known distance
			_ = target
			// Issue a request to cylinder `dist` from cylinder 0: first
			// rehome to 0, then measure.
			_ = d.ReadBlock(p, 0, buf)
			t0 := p.Now()
			_ = d.ReadBlock(p, int64(dist)*int64(geom.BlocksPerCyl), buf)
			rows = append(rows, struct {
				dist int
				dur  time.Duration
			}{dist, p.Now() - t0})
		}
	})
	if err := e.Run(); err != nil {
		return err
	}
	for _, r := range rows {
		t.AddRow(r.dist, r.dur)
	}
	t.Note = "includes fixed overhead + half-rotation + one-block transfer"
	fmt.Fprintln(w, t.String())
	return nil
}

// serviceTable prints the service-time decomposition for common sizes.
func serviceTable(w io.Writer) error {
	timing := device.DefaultTiming1989()
	t := stats.NewTable("Single-request service time, no seek (default drive)",
		"transfer size", "overhead", "rotation/2", "transfer", "total")
	for _, size := range []int{4096, 16384, 65536} {
		tr := time.Duration(float64(size) / timing.TransferRate * float64(time.Second))
		total := timing.Overhead + timing.RotationPeriod/2 + tr
		t.AddRow(fmt.Sprintf("%d KiB", size/1024), timing.Overhead, timing.RotationPeriod/2, tr, total)
	}
	fmt.Fprintln(w, t.String())
	return nil
}

// stripeDemo shows aggregate bandwidth of a striped raw scan.
func stripeDemo(w io.Writer) error {
	t := stats.NewTable("Raw striped scan of 256 blocks (4 KiB), read-ahead = device count",
		"devices", "elapsed", "MB/s")
	for _, devs := range []int{1, 2, 4, 8} {
		e := sim.NewEngine()
		disks := make([]*device.Disk, devs)
		for i := range disks {
			disks[i] = device.New(device.Config{Engine: e, Name: fmt.Sprintf("d%d", i)})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			return err
		}
		attach(fmt.Sprintf("stripe/%d", devs), e, disks, store)
		set, err := blockio.NewSet(store, blockio.NewStriped(devs, 1), make([]int64, devs))
		if err != nil {
			return err
		}
		const blocks = 256
		e.Go("main", func(p *sim.Proc) {
			var g sim.Group
			next := int64(0)
			for w := 0; w < devs; w++ {
				g.Spawn(p.Engine(), "reader", func(c *sim.Proc) {
					buf := make([]byte, store.BlockSize())
					for {
						if next >= blocks {
							return
						}
						b := next
						next++
						if err := set.ReadBlock(c, b, buf); err != nil {
							return
						}
					}
				})
			}
			g.Wait(p)
		})
		if err := e.Run(); err != nil {
			return err
		}
		bytes := int64(blocks) * int64(store.BlockSize())
		t.AddRow(devs, e.Now(), stats.MBps(bytes, e.Now()))
	}
	fmt.Fprintln(w, t.String())
	return nil
}

// extentDemo shows request coalescing: the same sequential scan issued
// block-at-a-time versus as extents — multi-block runs, each a
// one-segment descriptor (Set.ReadVec).
func extentDemo(w io.Writer) error {
	const devs = 4
	const blocks = 1024 // 256 per device
	t := stats.NewTable("Extent coalescing: sequential scan of 1024 blocks (4 KiB) on 4 devices, stripe unit 8",
		"extent (blocks)", "requests", "elapsed", "MB/s")
	for _, extent := range []int64{1, 8, 32} {
		e := sim.NewEngine()
		disks := make([]*device.Disk, devs)
		for i := range disks {
			disks[i] = device.New(device.Config{Engine: e, Name: fmt.Sprintf("d%d", i)})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			return err
		}
		attach(fmt.Sprintf("extent/%d", extent), e, disks, store)
		set, err := blockio.NewSet(store, blockio.NewStriped(devs, 8), make([]int64, devs))
		if err != nil {
			return err
		}
		var scanErr error
		e.Go("scan", func(p *sim.Proc) {
			buf := make([]byte, extent*int64(store.BlockSize()))
			for b := int64(0); b < blocks; b += extent {
				n := extent
				if b+n > blocks {
					n = blocks - b
				}
				if scanErr = set.ReadVec(p, blockio.Vec{{Block: b, N: n}}, buf[:n*int64(store.BlockSize())]); scanErr != nil {
					return
				}
			}
		})
		if err := e.Run(); err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
		var requests int64
		for _, d := range disks {
			requests += d.Stats().Requests()
		}
		bytes := int64(blocks) * int64(store.BlockSize())
		t.AddRow(extent, requests, e.Now(), stats.MBps(bytes, e.Now()))
	}
	t.Note = "one queued request per physically contiguous run: overhead+seek+rotation paid once per extent"
	fmt.Fprintln(w, t.String())
	return nil
}

// noncontigDemo shows scatter/gather coalescing on the layout extent I/O
// cannot serve: a unit-1 declustered file, where logically consecutive
// blocks alternate devices. Scanned block-at-a-time every block is its
// own request; scanned through a vectored descriptor (Set.ReadVec) each
// window collapses to one gather request per device.
func noncontigDemo(w io.Writer) error {
	const devs = 4
	const blocks = 1024 // 256 per device
	t := stats.NewTable("Vectored I/O: sequential scan of a unit-1 declustered file, 1024 blocks (4 KiB) on 4 devices",
		"window (blocks)", "requests", "elapsed", "MB/s", "speedup")
	var base time.Duration
	for _, window := range []int64{1, 8, 32} {
		e := sim.NewEngine()
		disks := make([]*device.Disk, devs)
		for i := range disks {
			disks[i] = device.New(device.Config{Engine: e, Name: fmt.Sprintf("d%d", i)})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			return err
		}
		attach(fmt.Sprintf("noncontig/%d", window), e, disks, store)
		set, err := blockio.NewSet(store, blockio.NewStriped(devs, 1), make([]int64, devs))
		if err != nil {
			return err
		}
		var scanErr error
		e.Go("scan", func(p *sim.Proc) {
			bs := int64(store.BlockSize())
			buf := make([]byte, window*bs)
			for b := int64(0); b < blocks; b += window {
				n := window
				if b+n > blocks {
					n = blocks - b
				}
				if scanErr = set.ReadVec(p, blockio.Vec{{Block: b, N: n}}, buf[:n*bs]); scanErr != nil {
					return
				}
			}
		})
		if err := e.Run(); err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
		var requests int64
		for _, d := range disks {
			requests += d.Stats().Requests()
		}
		if window == 1 {
			base = e.Now()
		}
		bytes := int64(blocks) * int64(store.BlockSize())
		t.AddRow(window, requests, e.Now(), stats.MBps(bytes, e.Now()),
			fmt.Sprintf("%.2fx", float64(base)/float64(e.Now())))
	}
	t.Note = "unit-1 striping defeats extent coalescing (physically adjacent blocks are logically strided);\nthe scatter/gather descriptor merges them anyway: one gather request per device per window"
	fmt.Fprintln(w, t.String())
	return nil
}

// collectiveDemo shows two-phase collective I/O: an 8-rank strided
// checkpoint write of a unit-1 declustered file, issued independently
// (each rank one vectored write of its own records — physically strided,
// so nothing merges) versus collectively (ranks exchange with aggregator
// ranks over a 100 MB/s interconnect, each aggregator writes one
// contiguous file domain as a cross-file batch).
func collectiveDemo(w io.Writer) error {
	const (
		devs    = 4
		ranks   = 8
		records = 1024 // 4 KiB records = fs blocks
	)
	t := stats.NewTable("Collective I/O: 8-rank strided checkpoint, 1024 records (4 KiB) on 4 devices, unit-1 declustered",
		"mode", "requests", "elapsed", "MB/s", "speedup")
	var base time.Duration
	for _, collectiveMode := range []bool{false, true} {
		e := sim.NewEngine()
		disks := make([]*device.Disk, devs)
		for i := range disks {
			disks[i] = device.New(device.Config{Engine: e, Name: fmt.Sprintf("d%d", i)})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			return err
		}
		scope := "collective/independent"
		if collectiveMode {
			scope = "collective/two-phase"
		}
		attach(scope, e, disks, store)
		vol := pfs.NewVolume(store)
		f, err := vol.Create(pfs.Spec{
			Name: "ckpt", Org: pfs.OrgGlobalDirect,
			RecordSize: 4096, BlockRecords: 1, NumRecords: records,
			Placement: pfs.PlaceStriped, StripeUnitFS: 1,
		})
		if err != nil {
			return err
		}
		group, err := vol.OpenGroup("ckpt")
		if err != nil {
			return err
		}
		col, err := collective.Open(group, ranks, collective.Options{})
		if err != nil {
			return err
		}
		var rankErr error
		g, _ := mpp.Run(e, ranks, "rank", func(p *mpp.Proc) {
			rank := int64(p.Rank())
			var vec blockio.Vec
			var off int64
			for b := rank; b < records; b += ranks {
				vec = append(vec, blockio.VecSeg{Block: b, N: 1, BufOff: off})
				off += 4096
			}
			buf := make([]byte, off)
			var err error
			if collectiveMode {
				err = col.WriteAll(p, []collective.VecReq{{File: 0, Vec: vec}}, buf)
			} else {
				err = f.Set().WriteVec(p.Proc, vec, buf)
			}
			if err != nil && rankErr == nil {
				rankErr = err
			}
		})
		g.SetLink(10*time.Microsecond, 100e6)
		attachGroup(g, "rank")
		if err := e.Run(); err != nil {
			return err
		}
		if rankErr != nil {
			return rankErr
		}
		var requests int64
		for _, d := range disks {
			requests += d.Stats().Requests()
		}
		mode := "independent"
		if collectiveMode {
			mode = "collective"
		} else {
			base = e.Now()
		}
		bytes := int64(records) * 4096
		t.AddRow(mode, requests, e.Now(), stats.MBps(bytes, e.Now()),
			fmt.Sprintf("%.2fx", float64(base)/float64(e.Now())))
	}
	t.Note = "two-phase: ranks ship pieces to aggregator ranks (modeled 100 MB/s link), each aggregator\nwrites one contiguous file domain as a single cross-file gather per device"
	fmt.Fprintln(w, t.String())
	return nil
}

// strategyDemo sweeps access density × rank count × link bandwidth over
// the strategy selector: rank-disjoint collective writes executed under
// each fixed strategy (vectored, sieved, two-phase) and under
// StrategyAuto, which prices the routes per call. Dense partition-local
// patterns favor sieving, sparse ones vectored I/O, interleaved ones the
// two-phase exchange — until link congestion inverts that trade; the
// route column shows what Auto picked, and predicted what its cost model
// priced that pick at, beside the modeled time the call then took and
// the pipeline depth it priced cheapest (no handle bounds the chunk: Auto
// prices every depth below a whole domain, the fixed strategies run one
// round).
func strategyDemo(w io.Writer) error {
	const (
		devs   = 4
		blocks = 1024 // 4 KiB blocks, 256 per device
	)
	t := stats.NewTable("Strategy selection: rank-disjoint collective writes, 1024 blocks (4 KiB) on 4 devices",
		"pattern", "ranks", "link", "vectored", "sieved", "two-phase", "auto", "route", "predicted", "pred/real", "depth")
	type sweepCfg struct {
		pattern   string
		ranks     int
		congested bool
	}
	buildVec := func(c sweepCfg, rank int) blockio.Vec {
		var vec blockio.Vec
		var off int64
		add := func(b, n int64) {
			vec = append(vec, blockio.VecSeg{Block: b, N: n, BufOff: off})
			off += n * 4096
		}
		slice := int64(blocks / c.ranks)
		base := int64(rank) * slice
		switch c.pattern {
		case "dense": // every other block of the rank's partition slice
			for i := int64(0); i < slice/2; i++ {
				add(base+2*i, 1)
			}
		case "sparse": // 8-block runs every 64 blocks of the slice
			for b := int64(0); b+8 <= slice; b += 64 {
				add(base+b, 8)
			}
		default: // interleaved: blocks ≡ rank (mod ranks), file-wide
			for b := int64(rank); b < blocks; b += int64(c.ranks) {
				add(b, 1)
			}
		}
		return vec
	}
	one := func(c sweepCfg, strat blockio.Strategy, scope string) (el time.Duration, route string, predicted time.Duration, depth int, err error) {
		e := sim.NewEngine()
		disks := make([]*device.Disk, devs)
		for i := range disks {
			disks[i] = device.New(device.Config{Engine: e, Name: fmt.Sprintf("d%d", i)})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			return 0, "", 0, 0, err
		}
		attach(scope, e, disks, store)
		vol := pfs.NewVolume(store)
		spec := pfs.Spec{Name: "sweep", RecordSize: 4096, BlockRecords: 1, NumRecords: blocks}
		if c.pattern == "interleaved" {
			spec.Org, spec.Placement, spec.StripeUnitFS = pfs.OrgGlobalDirect, pfs.PlaceStriped, 1
		} else {
			spec.Org, spec.Parts = pfs.OrgPartitioned, devs
		}
		if _, err := vol.Create(spec); err != nil {
			return 0, "", 0, 0, err
		}
		group, err := vol.OpenGroup("sweep")
		if err != nil {
			return 0, "", 0, 0, err
		}
		col, err := collective.Open(group, c.ranks, collective.Options{Strategy: strat})
		if err != nil {
			return 0, "", 0, 0, err
		}
		var rankErr error
		g, _ := mpp.Run(e, c.ranks, "rank", func(p *mpp.Proc) {
			vec := buildVec(c, p.Rank())
			var total int64
			for _, sg := range vec {
				total += sg.N
			}
			buf := make([]byte, total*4096)
			if err := col.WriteAll(p, []collective.VecReq{{File: 0, Vec: vec}}, buf); err != nil && rankErr == nil {
				rankErr = err
			}
		})
		if c.congested {
			g.SetLink(100*time.Microsecond, 2e6)
			g.SetBisection(1e6)
		} else {
			g.SetLink(10*time.Microsecond, 100e6)
		}
		attachGroup(g, "rank")
		if err := e.Run(); err != nil {
			return 0, "", 0, 0, err
		}
		return e.Now(), col.LastRoute(), col.LastPredicted(), col.LastDepth(), rankErr
	}
	for _, pattern := range []string{"dense", "sparse", "interleaved"} {
		for _, ranks := range []int{4, 8} {
			for _, congested := range []bool{false, true} {
				c := sweepCfg{pattern, ranks, congested}
				link := "fast"
				if congested {
					link = "congested"
				}
				row := []any{pattern, ranks, link}
				// The last strategy is Auto: its route, prediction and time
				// fill the closing columns.
				var route string
				var el, predicted time.Duration
				var depth int
				for _, strat := range []blockio.Strategy{
					blockio.StrategyVectored, blockio.StrategySieved,
					blockio.StrategyCollective, blockio.StrategyAuto,
				} {
					scope := fmt.Sprintf("strategy/%s-r%d-%s/%v", pattern, ranks, link, strat)
					var err error
					if el, route, predicted, depth, err = one(c, strat, scope); err != nil {
						return err
					}
					row = append(row, el)
				}
				t.AddRow(append(row, route, predicted, fmt.Sprintf("%.2f", predicted.Seconds()/el.Seconds()), depth)...)
			}
		}
	}
	t.Note = "auto prices vectored/sieved/two-phase per call from the drive parameters and the link model;\nroute is the path auto picked — dense favors sieving, sparse vectored, interleaved two-phase\n(until congestion inverts the trade); predicted is what the cost model priced that pick at,\npred/real its ratio to the modeled time the call took, depth the pipeline rounds it priced\ncheapest for a two-phase pick (0: an independent route); with -metrics, collective.*.plan.*\ncount the two-phase calls per partition (aligned = file domains cut at drive boundaries) and\n.plan.depth_price_ms.<rounds> list what every depth tried was priced at"
	fmt.Fprintln(w, t.String())
	return nil
}

// contendedDemo sweeps rank count × bisection bandwidth over the
// nearly-aligned shifted checkpoint (each rank writes one slab of the
// file, but slab order is a rotation of rank order, so round-robin
// domain assignment ships every byte across the interconnect while
// locality-aware assignment ships almost none). The shared link makes
// exchange cost scale with total volume, so the locality win grows with
// rank count and contention.
func contendedDemo(w io.Writer) error {
	const (
		devs      = 4
		records   = 1024 // 4 KiB records = fs blocks, unit-1 declustered
		straggler = 8    // trailing blocks of each slab written by a neighbor
	)
	t := stats.NewTable("Contention-aware collective I/O: shifted checkpoint, 1024 records (4 KiB) on 4 devices,\nper-process link 2.5 MB/s, aggregator domains round-robin vs locality-aware",
		"ranks", "bisection", "moved rr", "moved loc", "elapsed rr", "elapsed loc", "speedup")
	for _, ranks := range []int{4, 8, 16} {
		for _, bisect := range []float64{0, 25e6, 5e6} {
			var elapsed [2]time.Duration
			var moved [2]int64
			for _, locality := range []bool{false, true} {
				e := sim.NewEngine()
				disks := make([]*device.Disk, devs)
				for i := range disks {
					disks[i] = device.New(device.Config{Engine: e, Name: fmt.Sprintf("d%d", i)})
				}
				store, err := blockio.NewDirect(disks)
				if err != nil {
					return err
				}
				pol := "rr"
				if locality {
					pol = "loc"
				}
				attach(fmt.Sprintf("contended/%d/%.0f/%s", ranks, bisect/1e6, pol), e, disks, store)
				vol := pfs.NewVolume(store)
				_, err = vol.Create(pfs.Spec{
					Name: "ckpt", Org: pfs.OrgGlobalDirect,
					RecordSize: 4096, BlockRecords: 1, NumRecords: records,
					Placement: pfs.PlaceStriped, StripeUnitFS: 1,
				})
				if err != nil {
					return err
				}
				group, err := vol.OpenGroup("ckpt")
				if err != nil {
					return err
				}
				col, err := collective.Open(group, ranks, collective.Options{
					Aggregators: ranks, Locality: locality,
				})
				if err != nil {
					return err
				}
				slab := int64(records / ranks)
				var rankErr error
				g, _ := mpp.Run(e, ranks, "rank", func(p *mpp.Proc) {
					// Main slab (rank+3) mod ranks minus its straggler
					// tail, plus the tail of the preceding slab.
					main := int64((p.Rank() + 3) % ranks)
					tail := int64((p.Rank() + 2) % ranks)
					vec := blockio.Vec{
						{Block: main * slab, N: slab - straggler, BufOff: 0},
						{Block: tail*slab + slab - straggler, N: straggler, BufOff: (slab - straggler) * 4096},
					}
					buf := make([]byte, slab*4096)
					if err := col.WriteAll(p, []collective.VecReq{{File: 0, Vec: vec}}, buf); err != nil && rankErr == nil {
						rankErr = err
					}
				})
				g.SetLink(10*time.Microsecond, 2.5e6)
				if bisect > 0 {
					g.SetBisection(bisect)
				}
				attachGroup(g, "rank")
				if err := e.Run(); err != nil {
					return err
				}
				if rankErr != nil {
					return rankErr
				}
				idx := 0
				if locality {
					idx = 1
				}
				elapsed[idx] = e.Now()
				moved[idx] = col.LastStats().BytesMoved
			}
			bis := "free"
			if bisect > 0 {
				bis = fmt.Sprintf("%.0f MB/s", bisect/1e6)
			}
			t.AddRow(ranks, bis,
				fmt.Sprintf("%.2f MB", float64(moved[0])/1e6),
				fmt.Sprintf("%.2f MB", float64(moved[1])/1e6),
				elapsed[0], elapsed[1],
				fmt.Sprintf("%.2fx", float64(elapsed[0])/float64(elapsed[1])))
		}
	}
	t.Note = "rr = round-robin domains, loc = locality-aware (Options.Locality); moved = bytes crossing the\ninterconnect (Collective.LastStats). Device requests are identical — the win is pure exchange."
	fmt.Fprintln(w, t.String())
	return nil
}

// pipelineDemo shows chunked collective buffering: the contended 8-rank
// strided checkpoint issued as a single-shot two-phase collective (one
// round: whole exchange, then whole access — each phase idles the
// other's resource) versus the same executor cut into rounds
// (CollectiveOptions.ChunkBytes: the exchange of chunk k+1 overlaps the
// device access of chunk k).
func pipelineDemo(w io.Writer) error {
	const (
		ranks   = 8
		records = 4096 // 4 KiB records = fs blocks, unit-1 declustered
	)
	t := stats.NewTable("Pipelined collective I/O: 8-rank strided checkpoint, 4096 records (4 KiB) on 4 devices,\n100 MB/s links sharing a 5 MB/s bisection pool",
		"chunk", "requests", "elapsed", "MB/s", "overlap", "link idle", "speedup")
	var base time.Duration
	for _, chunk := range []int64{0, 64 * 4096, 256 * 4096} {
		m := pario.NewMachine(4)
		attachMachine(fmt.Sprintf("pipeline/%dKiB", chunk/1024), m)
		_, err := m.Volume.Create(pario.Spec{
			Name: "ckpt", Org: pario.OrgGlobalDirect,
			RecordSize: 4096, BlockRecords: 1, NumRecords: records,
			Placement: pario.PlaceStriped, StripeUnitFS: 1,
		})
		if err != nil {
			return err
		}
		group, err := m.Volume.OpenGroup("ckpt")
		if err != nil {
			return err
		}
		col, err := pario.OpenCollective(group, ranks, pario.CollectiveOptions{ChunkBytes: chunk})
		if err != nil {
			return err
		}
		var rankErr error
		rg := m.GoRanks(ranks, "rank", func(r *pario.Rank) {
			rank := int64(r.Rank())
			var vec pario.Vec
			var off int64
			for b := rank; b < records; b += ranks {
				vec = append(vec, pario.VecSeg{Block: b, N: 1, BufOff: off})
				off += 4096
			}
			buf := make([]byte, off)
			if err := col.WriteAll(r, []pario.VecReq{{File: 0, Vec: vec}}, buf); err != nil && rankErr == nil {
				rankErr = err
			}
		})
		rg.SetLink(10*time.Microsecond, 100e6)
		rg.SetBisection(5e6)
		if err := m.Run(); err != nil {
			return err
		}
		if rankErr != nil {
			return rankErr
		}
		var requests int64
		for _, d := range m.Disks {
			requests += d.Stats().Requests()
		}
		if chunk == 0 {
			base = m.Engine.Now()
		}
		st := col.LastStats()
		name := "single-shot"
		if chunk > 0 {
			name = fmt.Sprintf("%d KiB", chunk/1024)
		}
		elapsed := m.Engine.Now()
		bytes := int64(records) * 4096
		t.AddRow(name, requests, elapsed, stats.MBps(bytes, elapsed),
			st.Overlap.Round(time.Millisecond),
			fmt.Sprintf("%.0f%%", 100*(1-st.ExchangeTime.Seconds()/elapsed.Seconds())),
			fmt.Sprintf("%.2fx", float64(base)/float64(elapsed)))
	}
	t.Note = "overlap = virtual time with the exchange and the drives concurrently busy (Collective.LastStats);\nchunking trades per-chunk request overhead for that overlap — TestPipelineWin enforces the win"
	fmt.Fprintln(w, t.String())
	return nil
}

// profileDemo runs the checkpoint scenario (8-rank collective write +
// sequential restart scan) under the named cross-layer profile, or
// under both for comparison when which is empty.
func profileDemo(w io.Writer, which string) error {
	const (
		ranks   = 8
		records = 2048
	)
	var profiles []pario.Profile
	switch which {
	case "paper":
		profiles = []pario.Profile{pario.PaperProfile()}
	case "tuned":
		profiles = []pario.Profile{pario.TunedProfile()}
	case "":
		profiles = []pario.Profile{pario.PaperProfile(), pario.TunedProfile()}
	default:
		return fmt.Errorf("unknown profile %q (want tuned or paper)", which)
	}
	t := stats.NewTable("Cross-layer profiles: checkpoint write (8-rank collective) + restart scan, 2048 records (4 KiB)\non 4 devices, unit-1 declustered",
		"profile", "requests", "elapsed", "MB/s", "speedup")
	var base time.Duration
	for _, pf := range profiles {
		m := pario.NewProfiledMachine(4, pf)
		attachMachine("profile/"+pf.Name, m)
		f, err := m.Volume.Create(pario.Spec{
			Name: "ckpt", Org: pario.OrgGlobalDirect,
			RecordSize: 4096, BlockRecords: 1, NumRecords: records,
			Placement: pario.PlaceStriped, StripeUnitFS: 1,
		})
		if err != nil {
			return err
		}
		group, err := m.Volume.OpenGroup("ckpt")
		if err != nil {
			return err
		}
		col, err := pario.OpenCollective(group, ranks, pf.Collective)
		if err != nil {
			return err
		}
		var rankErr error
		pf := pf
		rg := m.GoRanks(ranks, "rank", func(r *pario.Rank) {
			rank := int64(r.Rank())
			var vec pario.Vec
			var off int64
			for b := rank; b < records; b += ranks {
				vec = append(vec, pario.VecSeg{Block: b, N: 1, BufOff: off})
				off += 4096
			}
			buf := make([]byte, off)
			if err := col.WriteAll(r, []pario.VecReq{{File: 0, Vec: vec}}, buf); err != nil {
				if rankErr == nil {
					rankErr = err
				}
				return
			}
			if r.Rank() != 0 {
				return
			}
			rd, err := pario.OpenReader(f, pf.Access)
			if err != nil {
				if rankErr == nil {
					rankErr = err
				}
				return
			}
			for {
				if _, _, err := rd.ReadRecord(r.Proc); err != nil {
					break
				}
			}
			_ = rd.Close(r.Proc)
		})
		pf.ConfigureRanks(rg)
		if err := m.Run(); err != nil {
			return err
		}
		if rankErr != nil {
			return rankErr
		}
		var requests int64
		for _, d := range m.Disks {
			requests += d.Stats().Requests()
		}
		if base == 0 {
			base = m.Engine.Now()
		}
		elapsed := m.Engine.Now()
		bytes := int64(2) * records * 4096 // written then read back
		t.AddRow(pf.Name, requests, elapsed, stats.MBps(bytes, elapsed),
			fmt.Sprintf("%.2fx", float64(base)/float64(elapsed)))
	}
	t.Note = "paper = the pinned 1989 model (free link, FCFS, block-at-a-time, single-shot collectives);\ntuned = TunedProfile (extents, SCAN+merge, modeled link, locality + chunked collectives)"
	fmt.Fprintln(w, t.String())
	return nil
}

// scaleDemo sweeps the simulation itself: the same contended pipelined
// collective checkpoint (every rank writes two strided blocks, 100 MB/s
// links sharing a 500 MB/s bisection pool, chunked aggregator staging)
// at growing machine sizes, reporting how much wall-clock time one
// modeled second costs. This is the engine-scaling scenario the sparse
// exchange path and the pooled virtual-time engine are sized for:
// 4096 ranks × 256 drives must stay in single-digit seconds.
func scaleDemo(w io.Writer) error {
	t := stats.NewTable("Engine scaling: contended pipelined collective checkpoint, wall-clock cost per modeled second",
		"ranks", "drives", "modeled", "wall", "wall s / modeled s")
	for _, cfg := range [][2]int{{256, 16}, {1024, 64}, {4096, 256}} {
		ranks, drives := cfg[0], cfg[1]
		const bs = 256
		e := sim.NewEngine()
		geom := device.Geometry{BlockSize: bs, BlocksPerCyl: 8, Cylinders: 64}
		disks := make([]*device.Disk, drives)
		for i := range disks {
			disks[i] = device.New(device.Config{
				Name: fmt.Sprintf("d%d", i), Geometry: geom, Engine: e,
			})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			return err
		}
		attach(fmt.Sprintf("scale/%dx%d", ranks, drives), e, disks, store)
		vol := pfs.NewVolume(store)
		if _, err := vol.Create(pfs.Spec{
			Name: "chk", Org: pfs.OrgSequential, RecordSize: bs,
			NumRecords: int64(2 * ranks), Placement: pfs.PlaceStriped, StripeUnitFS: 1,
		}); err != nil {
			return err
		}
		group, err := vol.OpenGroup("chk")
		if err != nil {
			return err
		}
		col, err := collective.Open(group, ranks, collective.Options{ChunkBytes: 8 * bs})
		if err != nil {
			return err
		}
		var rankErr error
		g, _ := mpp.Run(e, ranks, "rank", func(p *mpp.Proc) {
			r := int64(p.Rank())
			reqs := []collective.VecReq{{File: 0, Vec: blockio.Vec{
				{Block: r, N: 1, BufOff: 0},
				{Block: r + int64(ranks), N: 1, BufOff: bs},
			}}}
			buf := make([]byte, 2*bs)
			if err := col.WriteAll(p, reqs, buf); err != nil && rankErr == nil {
				rankErr = err
			}
		})
		g.SetLink(2*time.Microsecond, 100e6)
		g.SetBisection(500e6)
		attachGroup(g, "rank")
		start := time.Now()
		if err := e.Run(); err != nil {
			return err
		}
		if rankErr != nil {
			return rankErr
		}
		wall := time.Since(start)
		t.AddRow(ranks, drives, e.Now(), wall.Round(time.Millisecond),
			fmt.Sprintf("%.3f", wall.Seconds()/e.Now().Seconds()))
	}
	t.Note = "wall time is host-dependent; the shape to watch is sub-linear growth in wall s / modeled s\nas ranks × drives grow. BenchmarkEngineScale reports the 4096 × 256 point."
	fmt.Fprintln(w, t.String())
	return nil
}

// replayDemo sweeps the schedule cache: the same iterated collective
// checkpoint (every rank rewrites its 8 interleaved blocks each
// iteration with fresh contents, contended interconnect) run with the
// plan cache enabled — iteration 1 plans, the rest replay the captured
// schedule — versus disabled (every iteration replans). Modeled time is
// identical by construction; the column to watch is host wall-clock.
func replayDemo(w io.Writer) error {
	t := stats.NewTable("Plan capture & replay: iterated collective checkpoint, host wall-clock cached vs uncached",
		"ranks", "iterations", "modeled", "wall uncached", "wall cached", "speedup")
	one := func(ranks, iters int, cache bool, scope string) (modeled, wall time.Duration, err error) {
		const bs = 256
		const perRank = 8
		e := sim.NewEngine()
		geom := device.Geometry{BlockSize: bs, BlocksPerCyl: 8, Cylinders: 64}
		disks := make([]*device.Disk, 16)
		for i := range disks {
			disks[i] = device.New(device.Config{
				Name: fmt.Sprintf("d%d", i), Geometry: geom, Engine: e,
			})
		}
		store, err := blockio.NewDirect(disks)
		if err != nil {
			return 0, 0, err
		}
		attach(scope, e, disks, store)
		vol := pfs.NewVolume(store)
		if _, err := vol.Create(pfs.Spec{
			Name: "chk", Org: pfs.OrgSequential, RecordSize: bs,
			NumRecords: int64(perRank * ranks), Placement: pfs.PlaceStriped, StripeUnitFS: 1,
		}); err != nil {
			return 0, 0, err
		}
		group, err := vol.OpenGroup("chk")
		if err != nil {
			return 0, 0, err
		}
		opts := collective.Options{}
		if !cache {
			opts.PlanCache = -1
		}
		col, err := collective.Open(group, ranks, opts)
		if err != nil {
			return 0, 0, err
		}
		var rankErr error
		g, _ := mpp.Run(e, ranks, "rank", func(p *mpp.Proc) {
			r := int64(p.Rank())
			var vec blockio.Vec
			for k := int64(0); k < perRank; k++ {
				vec = append(vec, blockio.VecSeg{Block: r + k*int64(ranks), N: 1, BufOff: k * bs})
			}
			reqs := []collective.VecReq{{File: 0, Vec: vec}}
			buf := make([]byte, perRank*bs)
			for it := 0; it < iters; it++ {
				for i := range buf {
					buf[i] = byte(it + i)
				}
				if err := col.WriteAll(p, reqs, buf); err != nil && rankErr == nil {
					rankErr = err
				}
			}
		})
		g.SetLink(2*time.Microsecond, 50e6)
		g.SetBisection(200e6)
		attachGroup(g, "rank")
		start := time.Now()
		if err := e.Run(); err != nil {
			return 0, 0, err
		}
		if rankErr != nil {
			return 0, 0, rankErr
		}
		return e.Now(), time.Since(start), nil
	}
	for _, ranks := range []int{256, 1024} {
		for _, iters := range []int{4, 32} {
			var walls [2]time.Duration
			var modeled time.Duration
			for i, cache := range []bool{false, true} {
				mode := "uncached"
				if cache {
					mode = "cached"
				}
				m, wl, err := one(ranks, iters, cache, fmt.Sprintf("replay/%dx%d/%s", ranks, iters, mode))
				if err != nil {
					return err
				}
				walls[i], modeled = wl, m
			}
			t.AddRow(ranks, iters, modeled, walls[0].Round(time.Millisecond), walls[1].Round(time.Millisecond),
				fmt.Sprintf("%.2fx", float64(walls[0])/float64(walls[1])))
		}
	}
	t.Note = "cached: iteration 1 builds and captures the schedule, iterations 2+ replay it (fingerprint\nlookup + payload packing only). Modeled results are bit-identical either way — TestPlanReplayWin\nenforces the host-side win and the identity."
	fmt.Fprintln(w, t.String())
	return nil
}

// multijobDemo sweeps the I/O service: J jobs (job 0 a bulk writer
// issuing a backlog of nonblocking checkpoints, the rest small
// latency-sensitive jobs) share one single-worker server, at several
// arrival spacings, under each QoS policy. The table reports the worst
// small-job p99 — the number FIFO lets the bulk job ruin and fair-share
// or strict priority bound — plus the bulk job's own p99 and the run's
// modeled makespan (QoS reorders the backlog, it does not starve it),
// and what a collective call costs the server and the drives: lane
// requests and device requests per call, over all jobs.
func multijobDemo(w io.Writer) error {
	t := stats.NewTable("Multi-job I/O service: QoS policy vs small jobs' tail latency (one server worker; job 0 is a bulk writer)",
		"jobs", "gap", "policy", "small p99", "bulk p99", "makespan", "lane req/call", "dev req/call")
	for _, nJobs := range []int{2, 4, 8} {
		for _, gap := range []time.Duration{0, 5 * time.Millisecond} {
			for _, pol := range []pario.IOPolicy{pario.IOFIFO, pario.IOFairShare, pario.IOPriority} {
				c, err := multijobRun(nJobs, gap, pol)
				if err != nil {
					return err
				}
				t.AddRow(nJobs, gap, pol, c.small, c.bulk, c.makespan,
					fmt.Sprintf("%.2f", float64(c.laneReqs)/float64(c.calls)),
					fmt.Sprintf("%.2f", float64(c.devReqs)/float64(c.calls)))
			}
		}
	}
	t.Note = "small p99 = worst latency percentile across the small jobs' lanes (IOJob.Stats);\ngap staggers job arrivals. fair = start-time fair queuing by served bytes; prio = small jobs at priority 1.\nA nonblocking collective call is one lane request — every aggregator domain in one plan — and at most\none device request per drive (two drives here), whatever the job's size."
	fmt.Fprintln(w, t.String())
	return nil
}

// multijobCell is one cell of the multijob sweep: the worst small-job
// p99, the bulk job's p99, the modeled makespan, and the collective
// calls made with the lane and device requests they turned into.
type multijobCell struct {
	small, bulk, makespan    time.Duration
	calls, laneReqs, devReqs int64
}

// multijobRun executes one cell of the multijob sweep.
func multijobRun(nJobs int, gap time.Duration, pol pario.IOPolicy) (c multijobCell, err error) {
	const ranks, rounds = 4, 4
	m := pario.NewMachine(2)
	attachMachine(fmt.Sprintf("multijob/%d/%s/%s", nJobs, gap, pol), m)
	srv := pario.NewIOServer(pario.IOServerConfig{Workers: 1, Policy: pol})
	srv.SetProbe(m.Probe())
	var done pario.Group
	var lanes []*pario.IOJob
	var cols []*pario.Collective
	for j := 0; j < nJobs; j++ {
		blocks := int64(32)
		prio := 1 // small jobs overtake under strict priority
		if j == 0 {
			blocks, prio = 256, 0
		}
		if _, err = m.Volume.Create(pario.Spec{
			Name: fmt.Sprintf("job%d", j), Org: pario.OrgGlobalDirect,
			RecordSize: 4096, BlockRecords: 1, NumRecords: blocks,
			Placement: pario.PlaceStriped, StripeUnitFS: 1,
		}); err != nil {
			return
		}
		var g *pario.FileGroup
		if g, err = m.Volume.OpenGroup(fmt.Sprintf("job%d", j)); err != nil {
			return
		}
		lane := srv.AddJob(pario.IOJobConfig{Name: fmt.Sprintf("job%d", j), Priority: prio})
		var col *pario.Collective
		if col, err = pario.OpenCollective(g, ranks, pario.CollectiveOptions{Service: lane}); err != nil {
			return
		}
		lanes, cols = append(lanes, lane), append(cols, col)
	}
	srv.Start(m.Engine)
	var rankErr error
	done.Add(nJobs * ranks)
	for j := 0; j < nJobs; j++ {
		j := j
		blocks := int64(32)
		if j == 0 {
			blocks = 256
		}
		m.GoRanks(ranks, fmt.Sprintf("job%d", j), func(r *pario.Rank) {
			defer done.Done(r.Proc)
			r.Compute(time.Duration(j) * gap)
			per := blocks / ranks
			buf := make([]byte, per*4096)
			reqs := []pario.VecReq{{File: 0, Vec: pario.Vec{{Block: int64(r.Rank()) * per, N: per}}}}
			if j == 0 {
				// Bulk: the whole backlog up front, then the Waits.
				var hs []*pario.IOHandle
				for i := 0; i < rounds; i++ {
					h, herr := cols[j].IWriteAll(r, reqs, buf)
					if herr != nil {
						rankErr = herr
						return
					}
					hs = append(hs, h)
				}
				for _, h := range hs {
					if herr := h.Wait(r); herr != nil {
						rankErr = herr
					}
				}
				return
			}
			for i := 0; i < rounds; i++ {
				h, herr := cols[j].IWriteAll(r, reqs, buf)
				if herr != nil {
					rankErr = herr
					return
				}
				if herr := h.Wait(r); herr != nil {
					rankErr = herr
				}
			}
		})
	}
	m.Go("driver", func(p *pario.Proc) {
		done.Wait(p)
		srv.Stop(p)
		c.makespan = p.Now()
	})
	if err = m.Run(); err != nil {
		return
	}
	if err = rankErr; err != nil {
		return
	}
	c.calls = int64(nJobs * rounds)
	c.bulk = lanes[0].Stats().P99
	for j, lane := range lanes {
		st := lane.Stats()
		c.laneReqs += st.Completed
		if j > 0 && st.P99 > c.small {
			c.small = st.P99
		}
	}
	for _, d := range m.Disks {
		c.devReqs += d.Stats().Requests()
	}
	return
}
