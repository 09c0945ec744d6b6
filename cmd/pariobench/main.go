// Command pariobench runs the scenario table: the paper's figure and
// tables (f1, e1–e11) and one row per mechanism grown on top (seek …
// scale), every one a registry row of internal/experiments.
//
// Usage:
//
//	pariobench -list
//	pariobench -run e1
//	pariobench -run all
//	pariobench -run pipeline -trace out.json -metrics
//
// Each row builds fresh simulated 1989-class machines, runs its workload
// under virtual time, verifies the bytes and prints its table(s);
// README.md's experiment table has one line per id. Runs are
// deterministic: the same binary prints the same numbers every time,
// outside the wall-clock columns of replay and scale. With -trace the run
// records every machine through the flight recorder and writes a Chrome
// trace-event JSON file (load in Perfetto or chrome://tracing, or
// summarize with `parioctl trace`); -metrics prints the recorder's
// metrics snapshot and per-track utilization tables after the run;
// -cpuprofile and -memprofile profile the simulator itself (the scale row,
// above all).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/probe"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	runID := flag.String("run", "all", "experiment id to run (see -list), or 'all'")
	tracePath := flag.String("trace", "", "record the run and write Chrome trace-event JSON (Perfetto / chrome://tracing) to this file")
	metrics := flag.Bool("metrics", false, "print the flight recorder's metrics snapshot and per-track utilization after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()
	if err := profiled(*cpuprofile, *memprofile, func() error {
		return run(*list, *runID, *tracePath, *metrics, os.Stdout)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "pariobench: %v\n", err)
		os.Exit(1)
	}
}

// profiled wraps fn with the optional pprof captures.
func profiled(cpuprofile, memprofile string, fn func() error) error {
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
	if err := fn(); err != nil {
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

// run lists or executes experiments, then exports the recording if one
// was asked for; factored out of main for testing.
func run(list bool, runID, tracePath string, metrics bool, w io.Writer) error {
	if list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(w, "%-10s %s\n", id, experiments.Title(id))
		}
		return nil
	}
	var rec *probe.Recorder
	if tracePath != "" || metrics {
		rec = probe.New()
	}
	ids := experiments.IDs()
	if runID != "all" {
		ids = []string{runID}
	}
	for _, id := range ids {
		res, err := experiments.Run(id, rec)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(w, res.String())
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := probe.WriteChromeTrace(f, rec); err != nil {
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
