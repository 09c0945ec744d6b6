package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Figure1 reproduces the paper's Figure 1: the access patterns of the
// four sequential organizations (S, PS, IS, SS) for a hypothetical
// three-process program over a 12-block file. Each pattern is rendered
// as a block strip and machine-validated against the §3.1 definition.
func Figure1(rec *probe.Recorder) (*Result, error) {
	const procs = 3
	const blocks = 12
	table := stats.NewTable("Figure 1: access patterns, 3 processes, 12 blocks (1 record/block)",
		"type", "pattern (owner of each block)", "valid")
	table.Note = "P1..P3 = processes, as in the paper's diagrams; SS ownership varies with timing but every record is claimed exactly once"
	metrics := map[string]float64{}

	for _, tc := range []struct {
		name string
		org  pfs.Organization
		v    view
		val  func(events []trace.Event) error
	}{
		{"S (sequential)", pfs.OrgSequential, global,
			func(ev []trace.Event) error { return trace.ValidateSequential(ev, blocks) }},
		{"PS (partitioned)", pfs.OrgPartitioned, part,
			func(ev []trace.Event) error { return trace.ValidatePartitioned(ev, []int64{0, 4, 8, 12}) }},
		{"IS (interleaved)", pfs.OrgInterleaved, interleaved,
			func(ev []trace.Event) error { return trace.ValidateInterleaved(ev, procs, 1, blocks) }},
		{"SS (self-scheduled)", pfs.OrgSelfScheduled, claim,
			func(ev []trace.Event) error { return trace.ValidateSelfScheduled(ev, blocks) }},
	} {
		// Only read events: the fill writes untraced.
		tr := &trace.Recorder{}
		o := organization{drives: procs, spec: pfs.Spec{Name: "fig1", Org: tc.org, RecordSize: 64, BlockRecords: 1, NumRecords: blocks}}
		var cs []consumer
		switch tc.v {
		case global:
			cs = team(1, global, core.Options{Trace: tr}, 0)
		case claim:
			opts := core.DefaultOptions()
			opts.Trace = tr
			cs = team(procs, claim, opts, 0)
			for i := range cs {
				cs[i].compute = time.Duration(i+1) * time.Millisecond // uneven work so claims interleave
			}
		default:
			o.spec.Parts = procs
			cs = team(procs, tc.v, core.Options{Trace: tr}, 0)
		}
		o.phases = [][]consumer{cs}
		if _, err := o.run(rec); err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		valErr := tc.val(tr.Events())
		valid := "yes"
		if valErr != nil {
			valid = valErr.Error()
		}
		table.AddRow(tc.name, trace.RenderBlocks(tr.Events(), blocks), valid)
		if valErr == nil {
			metrics[tc.name] = 1
		}
	}
	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}
