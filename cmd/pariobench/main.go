// Command pariobench regenerates the paper's figures and tables.
//
// Usage:
//
//	pariobench -list
//	pariobench -run e1
//	pariobench -run all
//
// Each experiment builds a fresh simulated 1989-class machine, runs its
// workload under virtual time, and prints its paper-style table(s); the
// mechanisms built on top of them are in README.md's experiment table.
// Runs are deterministic: the same binary prints the same numbers every
// time.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	runID := flag.String("run", "all", "experiment id to run (f1, e1..e11, or 'all')")
	flag.Parse()
	if err := run(*list, *runID, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pariobench: %v\n", err)
		os.Exit(1)
	}
}

// run lists or executes experiments; factored out of main for testing.
func run(list bool, runID string, w io.Writer) error {
	if list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(w, "%-4s %s\n", id, experiments.Title(id))
		}
		return nil
	}
	ids := experiments.IDs()
	if runID != "all" {
		ids = []string{runID}
	}
	for _, id := range ids {
		res, err := experiments.Run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(w, res.String())
	}
	return nil
}
