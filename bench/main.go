// Command bench is the repository's benchmark: one closed-loop runner for
// four named workloads, measured on both clocks — modeled_* metrics are
// virtual time on the pinned 1989 machine model, host_* metrics are what
// the simulator costs the machine running it — with a second, traced run
// that attributes the work to layers. See README.md in this directory.
//
//	go run ./bench -workload ckpt_replay -seed 1              end-to-end metrics
//	go run ./bench -workload ckpt_replay -seed 1 -trace 1     per-layer metrics
//	go run ./bench -compare a.jsonl b.jsonl                   regression verdicts
//	go run ./bench -check                                     determinism self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"

	pario "repro"
)

// logw receives diagnostics (wrong bytes, op errors); results go to stdout.
var logw io.Writer = os.Stderr

// fixture is one workload's set-up product: a modeled machine with its
// files, handles, request lists and payloads, ready to run once.
type fixture interface {
	world() *world
	// attach wires a flight recorder through the public SetProbe calls;
	// it is called before run, only on traced runs.
	attach(rec *pario.Recorder)
	// run executes the warm-up and timed ops inside one engine run,
	// ticking c per op, then verifies the final image.
	run(c *clock) error
	// shape describes the workload to the layer drivers.
	shape() shape
}

// workloadDef names a workload (BENCHMARK.json and README.md say why each
// exists) and fixes its op counts. The counts are
// constants: calibrating them at run time would change modeled_s between
// commits. ops is the number of timed ops per 10 s of -seconds, sized so
// the timed phase takes 8–12 s of host time on the 2-core reference box;
// -seconds scales every count in proportion.
type workloadDef struct {
	name    string
	profile string
	ops     int // timed ops at -seconds 10
	warm    int // warm-up ops (not timed)
	chunk   int // ops per host time stamp
	quantum int // op counts are multiples of this (one cycle of the op mix)
	traced  int // timed ops of the -trace 1 run at -seconds 10
	build   func(seed uint64, total int) (fixture, error)
}

var workloads = []*workloadDef{
	{
		name:    "ckpt_replay",
		profile: "tuned",
		ops:     896, warm: 32, chunk: 1, quantum: 8, traced: 128,
		build: func(seed uint64, total int) (fixture, error) { return newCkpt(seed, total, false) },
	},
	{
		name:    "ckpt_fresh",
		profile: "tuned, ChunkBytes 0",
		ops:     744, warm: 30, chunk: 1, quantum: 6, traced: 126,
		build: func(seed uint64, total int) (fixture, error) { return newCkpt(seed, total, true) },
	},
	{
		name:    "org_scan",
		profile: "tuned",
		ops:     1120, warm: 28, chunk: 1, quantum: 7, traced: 126,
		build: newScan,
	},
	{
		name:    "multijob_qos",
		profile: "tuned, IOFairShare, 2 workers",
		ops:     67200, warm: 56, chunk: mjEpochOps, quantum: mjEpochOps, traced: 5600,
		build: newMultijob,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled applies -seconds (and the test-only divisor) to an op count,
// rounding to whole cycles of the workload's op mix.
func (w *workloadDef) scaled(n int, seconds float64, div int) int {
	cycles := int(float64(n)*seconds/10/float64(div*w.quantum) + 0.5)
	if cycles < 1 {
		cycles = 1
	}
	return cycles * w.quantum
}

// provenance ties a record to the code and inputs that made it.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Profile    string  `json:"profile"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WarmOps    int     `json:"warm_ops"`
	TimedOps   int     `json:"timed_ops"`
	Traced     bool    `json:"traced"`
	Setups     int     `json:"setups"`
}

// commit reports the VCS revision stamped into the binary by `go build`
// inside a git checkout, or "unknown" (go run, or a checkout without git).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's full result: what -out appends and -compare reads.
type record struct {
	Provenance provenance        `json:"provenance"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Samples    map[string]int    `json:"samples"` // sample count behind each percentile
	Metrics    map[string]metric `json:"metrics"`
	order      []string
}

func (r *record) emit(table []metricDef, name string, v float64) {
	for _, d := range table {
		if d.name == name {
			if _, dup := r.Metrics[name]; dup {
				panic("bench: metric emitted twice: " + name)
			}
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			r.order = append(r.order, name)
			return
		}
	}
	panic("bench: metric not in the table: " + name)
}

// runConfig is one invocation's parameters.
type runConfig struct {
	w        *workloadDef
	seed     uint64
	seconds  float64
	div      int // test-only: divide op and driver iteration counts
	setups   int // set-ups timed for setup_s (median reported)
	traceOut string
}

// measured is one engine run plus the set-up times that preceded it.
type measured struct {
	c      *clock
	fx     fixture
	setups []float64 // seconds
}

// measure sets the workload up (cfg.setups times, the last one is used),
// then runs warm+ops ops; rec non-nil makes it the traced run.
func measure(cfg runConfig, warm, ops int, rec *pario.Recorder) (*measured, error) {
	total := warm + ops
	var fx fixture
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		fx = nil
		runtime.GC() // the previous fixture's garbage is not this set-up's cost
		var err error
		d := timeScaled(func() { fx, err = cfg.w.build(cfg.seed, total) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	if rec != nil {
		fx.attach(rec)
	}
	c := newClock(warm, ops, cfg.w.chunk, cfg.w.quantum, fx.world())
	if err := fx.run(c); err != nil {
		return nil, err
	}
	if c.seen < total {
		return nil, fmt.Errorf("%s: ran %d of %d ops", cfg.w.name, c.seen, total)
	}
	return &measured{c: c, fx: fx, setups: setups}, nil
}

func newRecord(cfg runConfig, warm, ops int, traced bool) *record {
	return &record{
		Provenance: provenance{
			Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0), Workload: cfg.w.name, Profile: cfg.w.profile,
			Seed: cfg.seed, Seconds: cfg.seconds, WarmOps: warm, TimedOps: ops,
			Traced: traced, Setups: cfg.setups,
		},
		Samples: map[string]int{},
		Metrics: map[string]metric{},
	}
}

// finish fills the correctness fields from the run's clock: every op
// attempted (warm-up included) plus the final full-image verify as one.
func (r *record) finish(ms ...*measured) {
	for _, m := range ms {
		r.Attempted += m.c.seen + 1
		r.Failed += m.c.failed
		if m.c.verifyFailed > 0 {
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0
}

// runEndToEnd is the untraced run: every end-to-end metric.
func runEndToEnd(cfg runConfig) (*record, error) {
	warm, ops := cfg.w.scaled(cfg.w.warm, cfg.seconds, cfg.div), cfg.w.scaled(cfg.w.ops, cfg.seconds, cfg.div)
	m, err := measure(cfg, warm, ops, nil)
	if err != nil {
		return nil, err
	}
	r := newRecord(cfg, warm, ops, false)
	r.emitEndToEnd(m)
	r.finish(m)
	return r, nil
}

// emitEndToEnd derives the end-to-end metrics from one untraced run.
func (r *record) emitEndToEnd(m *measured) {
	c := m.c
	n := float64(c.ops)
	r.emit(endToEnd, "setup_s", median(m.setups))
	r.emit(endToEnd, "modeled_s", c.modeled().Seconds())
	r.emit(endToEnd, "modeled_op_p50_ms", median(c.virtOp))
	r.emit(endToEnd, "modeled_op_p98_ms", quantile(c.virtOp, 0.98))
	r.emit(endToEnd, "host_ops_per_s", median(c.hostRate))
	r.emit(endToEnd, "host_op_p50_ms", median(c.hostCycle))
	r.emit(endToEnd, "host_allocs_per_op", float64(c.mem1.Mallocs-c.mem0.Mallocs)/n)
	r.emit(endToEnd, "host_alloc_KB_per_op", float64(c.mem1.TotalAlloc-c.mem0.TotalAlloc)/n/1e3)
	r.Samples["modeled_op_p50_ms"], r.Samples["modeled_op_p98_ms"] = len(c.virtOp), len(c.virtOp)
	r.Samples["host_op_p50_ms"], r.Samples["host_ops_per_s"] = len(c.hostCycle), len(c.hostRate)
	r.Samples["setup_s"] = len(m.setups)
}

// print writes the human-readable table, the provenance line and, last,
// the one-line result object the driver parses.
func (r *record) print(w io.Writer) error {
	p := r.Provenance
	fmt.Fprintf(w, "workload %s  seed %d  warm %d + timed %d ops  GOMAXPROCS %d\n",
		p.Workload, p.Seed, p.WarmOps, p.TimedOps, p.GoMaxProcs)
	for _, name := range r.order {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-34s %16.6g %s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	pj, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
	}{p})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", pj)
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// appendTo appends the record as one JSON line (the -compare input format).
func (r *record) appendTo(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run (see -list)")
		seed     = fs.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds  = fs.Float64("seconds", 10, "run length; op counts scale with it (constants are sized for 10)")
		trace    = fs.Int("trace", 0, "1: traced run, prints the per-layer metrics")
		traceOut = fs.String("trace-out", "", "with -trace 1: write the spans as Chrome trace-event JSON")
		out      = fs.String("out", "", "append the full record (provenance + metrics) to this JSON-lines file")
		spec     = fs.String("spec", "BENCHMARK.json", "metric bounds and directions for -compare")
		compare  = fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
		check    = fs.Bool("check", false, "determinism self-check over all workloads")
		list     = fs.Bool("list", false, "list the workloads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The engine runs one simulated process at a time, so a second P buys
	// nothing but hand-offs across cores (the same loop costs about half
	// as much again with two), and on a shared VM it makes the run wait
	// for a second vCPU: with the host oversubscribed, median op time
	// tripled at two Ps and barely moved at one. One P, always, so hosts
	// are comparable; sim.host_ns_per_event_2p reports what two cost.
	runtime.GOMAXPROCS(1)

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Fprintf(stdout, "%-14s %6d timed ops at -seconds 10, profile %s\n", w.name, w.ops, w.profile)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two files"))
		}
		worse, err := compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *check:
		if err := selfCheck(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil {
		return fail(fmt.Errorf("unknown workload %q (try -list)", *name))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, div: 1, setups: 9, traceOut: *traceOut}
	var r *record
	var err error
	if *trace != 0 {
		r, err = runTraced(cfg)
	} else {
		r, err = runEndToEnd(cfg)
	}
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := r.appendTo(*out); err != nil {
			return fail(err)
		}
	}
	if err := r.print(stdout); err != nil {
		return fail(err)
	}
	return 0
}
