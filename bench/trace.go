package main

import (
	"fmt"
	"os"
	"runtime"

	pario "repro"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced runs the workload twice on fresh fixtures — untraced, then
// with a recorder attached through the public SetProbe calls — checks
// that the modeled clock did not notice, and reports every per-layer
// metric. Spans carry no cross-layer parent links yet, so the *_s numbers
// are busy-interval unions per layer, not self time.
func runTraced(cfg runConfig) (*record, error) {
	r, _, err := runTracedPair(cfg)
	return r, err
}

// runTracedPair also returns the untraced leg, from which the smoke test
// derives the end-to-end metrics without a third run.
func runTracedPair(cfg runConfig) (*record, *measured, error) {
	cfg.setups = 1
	warm, ops := cfg.w.scaled(cfg.w.warm, cfg.seconds, cfg.div), cfg.w.scaled(cfg.w.traced, cfg.seconds, cfg.div)
	plain, err := measure(cfg, warm, ops, nil)
	if err != nil {
		return nil, nil, err
	}
	rec := pario.NewRecorder()
	traced, err := measure(cfg, warm, ops, rec)
	if err != nil {
		return nil, nil, err
	}
	pc, tc := plain.c, traced.c
	if pc.modeled() != tc.modeled() {
		return nil, nil, fmt.Errorf("%s: tracing moved the modeled clock: %v untraced, %v traced", cfg.w.name, pc.modeled(), tc.modeled())
	}
	for i := range pc.virtOp {
		if pc.virtOp[i] != tc.virtOp[i] {
			return nil, nil, fmt.Errorf("%s: op %d modeled latency %.6f ms untraced, %.6f ms traced", cfg.w.name, i, pc.virtOp[i], tc.virtOp[i])
		}
	}
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return nil, nil, err
		}
		if err := pario.WriteChromeTrace(f, rec); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Close(); err != nil {
			return nil, nil, err
		}
	}

	r := newRecord(cfg, warm, ops, true)
	emit := func(name string, v float64) { r.emit(perLayer, name, v) }
	n := float64(ops)
	d := tc.delta()
	spanFrom, spanTo := tc.snap0.spans, tc.snap1.spans
	modeled := tc.modeled().Seconds()
	w := traced.fx.world()

	// Spans recorded during the timed ops, by layer and name.
	busy := func(cat string, names ...string) float64 {
		return rec.UnionBusy(func(s pario.Span) bool {
			if int(s.ID) <= spanFrom || int(s.ID) > spanTo || s.Cat != cat {
				return false
			}
			for _, nm := range names {
				if s.Name == nm {
					return true
				}
			}
			return len(names) == 0
		}).Seconds()
	}

	// Drivers run on a fixture of their own: the measured ones' engines
	// have run to completion.
	dfx, err := cfg.w.build(cfg.seed, warm+ops)
	if err != nil {
		return nil, nil, err
	}
	sh := dfx.shape()
	pf := pario.TunedProfile()

	emit("sim.dispatches_per_op", float64(d.dispatches)/n)
	emit("sim.spawns_per_op", float64(d.spawns)/n)
	emit("sim.host_ns_per_event", driveSim(sh.procs, cfg.div))
	emit("sim.host_ns_per_event_2p", driveSim2P(sh.procs, cfg.div))

	reqs := float64(d.devReqs)
	devBytes := float64(d.devBytes)
	emit("device.requests_per_op", reqs/n)
	emit("device.bytes_per_op", devBytes/n)
	emit("device.seeks_per_op", float64(d.devSeeks)/n)
	emit("device.seek_cyls_per_op", float64(d.devSeekCyls)/n)
	emit("device.merged_per_op", float64(d.devMerged)/n)
	emit("device.busy_s", busy("device", "read", "write", "io"))
	emit("device.wait_s", busy("device", "wait"))
	emit("device.util", ratio((d.devBusy).Seconds(), modeled*float64(len(w.m.Disks))))
	peak := 0
	for _, d := range w.m.Disks {
		if q := d.Stats().QueuePeak; q > peak {
			peak = q
		}
	}
	emit("device.queue_peak", float64(peak))
	runBlocks := int(ratio(devBytes, reqs)/blockSize + 0.5)
	if runBlocks < 1 {
		runBlocks = 1
	}
	emit("device.host_ns_per_request", driveDevice(pf, runBlocks, cfg.div))

	emit("blockio.batches_per_op", float64(d.batches)/n)
	emit("blockio.runs_per_op", float64(d.runs)/n)
	emit("blockio.bytes_per_op", float64(d.batchBytes)/n)
	emit("blockio.useful_byte_frac", ratio(float64(tc.payload), devBytes))
	emit("blockio.busy_s", busy("blockio"))
	emit("blockio.host_us_per_mapvec", driveMapVec(sh, cfg.div))
	emit("blockio.host_us_per_plan", drivePlan(sh, cfg.div))

	emit("core.records_per_op", float64(tc.records)/n)
	emit("core.cache_hit_frac", ratio(float64(tc.hits), float64(tc.lookups)))
	emit("core.host_ns_per_record", driveCore(sh, pf.Access, cfg.div))

	emit("mpp.msgs_per_op", float64(d.mppMsgs)/n)
	emit("mpp.bytes_per_op", float64(d.mppBytes)/n)
	emit("mpp.exchange_busy_s", busy("mpp", "exchange", "round"))
	emit("mpp.pool_wait_s", busy("mpp", "pool.wait"))
	emit("mpp.host_us_per_round", driveExchange(sh, pf, cfg.div))

	ca := tc.coll
	calls := float64(ca.calls)
	emit("collective.exchange_s", ca.exchange.Seconds())
	emit("collective.access_s", ca.access.Seconds())
	emit("collective.overlap_s", ca.overlap.Seconds())
	shorter := ca.exchange
	if ca.access < shorter {
		shorter = ca.access
	}
	emit("collective.overlap_frac", ratio(ca.overlap.Seconds(), shorter.Seconds()))
	emit("collective.bytes_moved_per_op", float64(ca.moved)/n)
	emit("collective.local_frac", ratio(float64(ca.local), float64(ca.local+ca.moved)))
	hits := float64(d.cacheHits)
	emit("collective.plan_hit_frac", ratio(hits, hits+float64(d.cacheMisses)))
	for _, route := range []string{"two-phase", "sieved", "vectored"} {
		emit("collective.route_"+route+"_frac", ratio(float64(ca.routes[route]), calls))
	}
	first, steady, share := 0.0, 0.0, 0.0
	if ca.calls > 0 {
		first, steady = pc.firstOp, median(pc.hostCycle)
		share = 1 - steady/first
	}
	emit("collective.host_ms_first_op", first)
	emit("collective.host_ms_steady_op", steady)
	emit("collective.host_plan_share", share)

	emit("ioserver.requests_per_op", float64(d.laneDone)/n)
	emit("ioserver.wait_s", busy("ioserver", "wait"))
	emit("ioserver.service_s", busy("ioserver", "service"))
	emit("ioserver.busy_frac", ratio((d.laneBusy).Seconds(), modeled*2)) // two workers
	var victimP98, bullyP98 float64
	for i, l := range w.lanes {
		p98 := ms(l.Latency().QuantileDur(0.98))
		if i == 0 {
			bullyP98 = p98 // the bully's lane is added first
		} else if p98 > victimP98 {
			victimP98 = p98
		}
	}
	emit("ioserver.victim_p98_ms", victimP98)
	emit("ioserver.bully_p98_ms", bullyP98)
	emit("ioserver.host_us_per_request", driveServer(sh, dfx.world().m, cfg.div))

	emit("probe.spans_per_op", float64(d.spans)/n)
	emit("probe.overhead_frac", ratio(median(tc.hostCycle), median(pc.hostCycle))-1)

	emit("host.op_p98_ms", quantile(pc.hostOp, 0.98))
	emit("host.gc_cycles", float64(pc.mem1.NumGC-pc.mem0.NumGC))
	emit("host.gc_pause_ms", float64(pc.mem1.PauseTotalNs-pc.mem0.PauseTotalNs)/1e6)
	emit("host.heap_peak_MB", float64(pc.mem1.HeapSys)/1e6)
	emit("host.verify_frac", ratio(pc.verify.Seconds(), pc.hostRaw.Seconds()))
	emit("host.speed", pc.speed)
	emit("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	r.Samples["host.op_p98_ms"] = len(pc.hostOp)
	r.finish(plain, traced)
	return r, plain, nil
}
