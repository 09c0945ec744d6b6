package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
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

	type orgCase struct {
		name string
		org  pfs.Organization
		run  func(e *sim.Engine, f *pfs.File, rec *trace.Recorder) error
		val  func(events []trace.Event) error
	}

	fill := func(p *sim.Proc, f *pfs.File) error {
		w, err := core.OpenWriter(f, core.Options{})
		if err != nil {
			return err
		}
		buf := make([]byte, 64)
		for r := int64(0); r < blocks; r++ {
			if _, err := w.WriteRecord(p, buf); err != nil {
				return err
			}
		}
		return w.Close(p)
	}

	drainStream := func(c *sim.Proc, r *core.StreamReader) error {
		for {
			if _, _, err := r.ReadRecord(c); err != nil {
				if err == io.EOF {
					return r.Close(c)
				}
				return err
			}
		}
	}

	cases := []orgCase{
		{
			name: "S (sequential)",
			org:  pfs.OrgSequential,
			run: func(e *sim.Engine, f *pfs.File, rec *trace.Recorder) error {
				var ferr error
				e.Go("p0", func(p *sim.Proc) {
					if err := fill(p, f); err != nil {
						ferr = err
						return
					}
					r, err := core.OpenReader(f, core.Options{Trace: rec, Proc: 0})
					if err != nil {
						ferr = err
						return
					}
					ferr = drainStream(p, r)
				})
				return ferr
			},
			val: func(ev []trace.Event) error { return trace.ValidateSequential(ev, blocks) },
		},
		{
			name: "PS (partitioned)",
			org:  pfs.OrgPartitioned,
			run: func(e *sim.Engine, f *pfs.File, rec *trace.Recorder) error {
				var ferr error
				e.Go("main", func(p *sim.Proc) {
					if err := fill(p, f); err != nil {
						ferr = err
						return
					}
					var g sim.Group
					for w := 0; w < procs; w++ {
						wid := w
						g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
							r, err := core.OpenPartReader(f, wid, core.Options{Trace: rec, Proc: wid})
							if err != nil {
								ferr = err
								return
							}
							if err := drainStream(c, r); err != nil {
								ferr = err
							}
						})
					}
					g.Wait(p)
				})
				return ferr
			},
			val: func(ev []trace.Event) error {
				return trace.ValidatePartitioned(ev, []int64{0, 4, 8, 12})
			},
		},
		{
			name: "IS (interleaved)",
			org:  pfs.OrgInterleaved,
			run: func(e *sim.Engine, f *pfs.File, rec *trace.Recorder) error {
				var ferr error
				e.Go("main", func(p *sim.Proc) {
					if err := fill(p, f); err != nil {
						ferr = err
						return
					}
					var g sim.Group
					for w := 0; w < procs; w++ {
						wid := w
						g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
							r, err := core.OpenInterleavedReader(f, wid, procs, core.Options{Trace: rec, Proc: wid})
							if err != nil {
								ferr = err
								return
							}
							if err := drainStream(c, r); err != nil {
								ferr = err
							}
						})
					}
					g.Wait(p)
				})
				return ferr
			},
			val: func(ev []trace.Event) error {
				return trace.ValidateInterleaved(ev, procs, 1, blocks)
			},
		},
		{
			name: "SS (self-scheduled)",
			org:  pfs.OrgSelfScheduled,
			run: func(e *sim.Engine, f *pfs.File, rec *trace.Recorder) error {
				var ferr error
				e.Go("main", func(p *sim.Proc) {
					if err := fill(p, f); err != nil {
						ferr = err
						return
					}
					opts := core.DefaultOptions()
					opts.Trace = rec
					ss, err := core.OpenSelfSched(f, core.SSRead, opts)
					if err != nil {
						ferr = err
						return
					}
					var g sim.Group
					for w := 0; w < procs; w++ {
						wid := w
						g.Spawn(p.Engine(), "w", func(c *sim.Proc) {
							ss.RegisterProc(c, wid)
							dst := make([]byte, 64)
							for {
								if _, err := ss.ReadNext(c, dst); err != nil {
									return
								}
								// Uneven work so claims interleave.
								c.Sleep(time.Duration(wid+1) * time.Millisecond)
							}
						})
					}
					g.Wait(p)
					if err := ss.Close(p); err != nil {
						ferr = err
					}
				})
				return ferr
			},
			val: func(ev []trace.Event) error { return trace.ValidateSelfScheduled(ev, blocks) },
		},
	}

	for _, tc := range cases {
		e := sim.NewEngine()
		_, vol, err := array(rec, e, procs, device.FCFS)
		if err != nil {
			return nil, err
		}
		spec := pfs.Spec{Name: "fig1", Org: tc.org, RecordSize: 64, BlockRecords: 1, NumRecords: blocks}
		if tc.org == pfs.OrgPartitioned || tc.org == pfs.OrgInterleaved {
			spec.Parts = procs
		}
		f, err := vol.Create(spec)
		if err != nil {
			return nil, err
		}
		rec := &trace.Recorder{}
		if err := tc.run(e, f, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		if err := e.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		// Only read events (the fill pass writes without tracing).
		valErr := tc.val(rec.Events())
		valid := "yes"
		if valErr != nil {
			valid = valErr.Error()
		}
		table.AddRow(tc.name, trace.RenderBlocks(rec.Events(), blocks), valid)
		if valErr == nil {
			metrics[tc.name] = 1
		}
	}

	return &Result{Tables: []*stats.Table{table}, Metrics: metrics}, nil
}
