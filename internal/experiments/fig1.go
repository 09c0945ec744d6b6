package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/stats"
)

// figure1 reproduces the paper's Figure 1: the access patterns of the
// four sequential organizations (S, PS, IS, SS) for a hypothetical
// three-process program over a 12-block file. Each pattern is rendered
// as a block strip, from the records its processes read and checked, and
// held to the §3.1 definition by checkFigure1.
func figure1(rec *probe.Recorder) (*Result, error) {
	const procs = 3
	const blocks = 12
	table := stats.NewTable("Figure 1: access patterns, 3 processes, 12 blocks (1 record/block)",
		"type", "pattern (owner of each block)", "valid")
	table.Note = "P1..P3 = processes, as in the paper's diagrams; SS ownership varies with timing but every record is claimed exactly once"
	metrics := map[string]float64{}

	for _, tc := range []struct {
		name  string
		org   pfs.Organization
		v     view
		owner func(b int64) int
	}{
		{"S (sequential)", pfs.OrgSequential, global, func(int64) int { return 0 }},
		{"PS (partitioned)", pfs.OrgPartitioned, part, func(b int64) int { return int(b / 4) }},
		{"IS (interleaved)", pfs.OrgInterleaved, interleaved, func(b int64) int { return int(b % procs) }},
		{"SS (self-scheduled)", pfs.OrgSelfScheduled, claim, nil},
	} {
		var reads []blockRead
		o := organization{drives: procs, spec: pfs.Spec{Name: "fig1", Org: tc.org, RecordSize: 64, BlockRecords: 1, NumRecords: blocks},
			seen: func(c int, r int64) { reads = append(reads, blockRead{c, r}) }}
		var cs []consumer
		switch tc.v {
		case global:
			cs = team(1, global, core.Options{}, 0)
		case claim:
			cs = team(procs, claim, core.DefaultOptions(), 0)
			for i := range cs {
				cs[i].compute = time.Duration(i+1) * time.Millisecond // uneven work so claims interleave
			}
		default:
			o.spec.Parts = procs
			cs = team(procs, tc.v, core.Options{}, 0)
		}
		o.phases = [][]consumer{cs}
		if _, err := o.run(rec); err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		strip := make([]string, blocks)
		for i := range strip {
			strip[i] = "[--]"
		}
		for _, r := range reads {
			strip[r.block] = fmt.Sprintf("[P%d]", r.proc+1)
		}
		valid := "yes"
		if err := checkFigure1(reads, blocks, tc.owner); err != nil {
			valid = err.Error()
		} else {
			metrics[tc.name] = 1
		}
		table.AddRow(tc.name, strings.Join(strip, ""), valid)
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}

// blockRead is one block a Figure 1 process read: proc is its index in
// the phase.
type blockRead struct {
	proc  int
	block int64
}

// checkFigure1 holds one pattern's reads, in the order they happened, to
// §3.1: every block is read exactly once, by owner(b) (nil: by any
// process, as in SS), and in ascending order along each pointer — every
// process's own for S, PS and IS, the one shared pointer for SS.
func checkFigure1(reads []blockRead, blocks int64, owner func(b int64) int) error {
	times := make([]int, blocks)
	last := map[int]int64{}
	for _, r := range reads {
		if r.block < 0 || r.block >= blocks {
			return fmt.Errorf("P%d read block %d of %d", r.proc+1, r.block, blocks)
		}
		if times[r.block]++; times[r.block] > 1 {
			return fmt.Errorf("block %d read twice", r.block)
		}
		pointer := 0
		if owner != nil {
			if want := owner(r.block); r.proc != want {
				return fmt.Errorf("block %d read by P%d, owner P%d", r.block, r.proc+1, want+1)
			}
			pointer = r.proc
		}
		if prev, ok := last[pointer]; ok && r.block < prev {
			return fmt.Errorf("P%d read block %d after block %d", r.proc+1, r.block, prev)
		}
		last[pointer] = r.block
	}
	for b, n := range times {
		if n == 0 {
			return fmt.Errorf("block %d never read", b)
		}
	}
	return nil
}
