// Package experiments is the one scenario table: every figure, table and
// mechanism sweep the repository prints is a row of the registry below,
// run by id (cmd/pariobench prints what Run returns; README.md's
// experiment table has one line per id).
//
// The contract, row by row:
//
//   - A scenario's machine is built in one place, by a parameterised
//     fixture (Checkpoint, Multijob, DirectMix, the raw scans, and
//     organization for the paper's rows) that runs it under virtual
//     time, verifies the bytes that landed and returns its measurements
//     — or an error, never a table of unchecked numbers.
//   - A registry row sweeps its fixture over the parameters of its table
//     and returns the rendered tables plus named Metrics; the win tests
//     call the same fixture with their own parameters and keep their
//     thresholds, so what is printed is what is asserted on.
//   - Metrics that read the host clock are keyed host_*; every other
//     metric and every table cell outside a "wall" column repeats exactly,
//     and TestRegistryGoldens holds them all to testdata/registry.golden.
//   - The flight recorder reaches a row as the parameter of its run
//     function (nil: detached); each machine a row builds attaches under
//     its own track scope.
//
// The paper claim a row reproduces and its expected shape are stated on
// its driver.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Result is the outcome of one experiment run.
type Result struct {
	ID      string
	Title   string
	Tables  []*stats.Table
	Metrics map[string]float64
}

// String renders all tables.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += "\n" + t.String()
	}
	return out
}

// registry is the scenario table, in the order README.md lists it: the
// paper's figure and tables, then one row per mechanism grown on top.
// A driver returns its tables and metrics; Run names the result.
var registry = []struct {
	id, title string
	run       func(rec *probe.Recorder) (*Result, error)
}{
	{"f1", "Figure 1: internal organizations of sequential parallel files", figure1},
	{"e1", "E1: disk striping bandwidth for S files (§4)", e1Striping},
	{"e2", "E2: self-scheduled early pointer release (§4)", e2SelfSched},
	{"e3", "E3: one device per process — independent progress (§4)", e3DevicePerProcess},
	{"e4", "E4: fewer devices than processes — seek interference (§4)", e4SeekInterference},
	{"e5", "E5: declustering vs whole blocks under skew (§4, Livny)", e5Decluster},
	{"e6", "E6: buffering — overlap of I/O with computation (§4)", e6Buffering},
	{"e7", "E7: global view performance by placement (§4)", e7GlobalView},
	{"e8", "E8: reliability — MTBF, parity, shadowing (§5)", e8Reliability},
	{"e9", "E9: view mismatch remedies (§5)", e9ViewMismatch},
	{"e10", "E10: boundary data — replicate vs cache (§5)", e10Boundary},
	{"e11", "E11: file-per-process baseline (FEM, §3)", e11FemBaseline},
	{"seek", "device model: seek time vs distance", seekCurve},
	{"service", "device model: service time of one request", serviceTimes},
	{"stripe", "raw striped scan: bandwidth vs device count", stripedScan},
	{"extent", "extent I/O: request coalescing on a unit-8 striped file", extentScan},
	{"noncontig", "vectored I/O: scatter/gather on a unit-1 declustered file", vectoredScan},
	{"collective", "two-phase collective I/O vs independent vectored writes", collectiveWrite},
	{"strategy", "strategy selection: vectored, sieved, two-phase, auto", strategySweep},
	{"contended", "locality-aware aggregator domains on a contended interconnect", contendedSweep},
	{"pipeline", "pipelined two-phase: exchange overlapping device access", pipelineSweep},
	{"replay", "plan capture & replay: host cost cached vs uncached", replaySweep},
	{"profile", "cross-layer profiles: paper vs tuned", profileCompare},
	{"multijob", "multi-job I/O service: QoS policy vs tail latency", multijobSweep},
	{"scale", "engine scaling: host cost per modeled second", scaleSweep},
	{"cache", "direct-access buffer pool: scan-resistant replacement and write-behind", cacheSweep},
}

// IDs lists the experiment identifiers in table order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, ent := range registry {
		ids[i] = ent.id
	}
	return ids
}

// Title reports the registered title for id ("" if unknown).
func Title(id string) string {
	for _, ent := range registry {
		if ent.id == id {
			return ent.title
		}
	}
	return ""
}

// Run executes the experiment with the given id, recording every machine
// it builds through rec (nil: detached).
func Run(id string, rec *probe.Recorder) (*Result, error) {
	for _, ent := range registry {
		if ent.id != id {
			continue
		}
		res, err := ent.run(rec)
		if err != nil {
			return nil, err
		}
		res.ID, res.Title = ent.id, ent.title
		return res, nil
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
}

// attach wires rec (nil: detached) across one machine — engine, drives,
// volume store — under a track scope of its own, so the identically
// named drives of a sweep's successive machines land on distinct
// timeline rows. An empty scope numbers the machine ("m3"), counted in
// the recorder's own experiments.machines metric.
func attach(rec *probe.Recorder, scope string, e *sim.Engine, disks []*device.Disk, store *blockio.Direct) {
	if rec == nil {
		return
	}
	n := rec.Metrics().Counter("experiments.machines")
	n.Add(1)
	if scope == "" {
		scope = fmt.Sprintf("m%d", n.Value())
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

// geom1989 is the drive layout used by all experiments: 4 KiB blocks,
// 64 per cylinder, 900 cylinders.
func geom1989() device.Geometry { return device.DefaultGeometry1989() }

// array builds n drives from tmpl attached to e and a volume over them,
// recorded through rec.
func array(rec *probe.Recorder, e *sim.Engine, n int, tmpl device.Config) ([]*device.Disk, *pfs.Volume, error) {
	tmpl.Engine = e
	disks := device.NewDrives(n, tmpl)
	store, err := blockio.NewDirect(disks)
	if err != nil {
		return nil, nil, err
	}
	attach(rec, "", e, disks, store)
	return disks, pfs.NewVolume(store), nil
}

// runMain runs fn as the single root process of a fresh engine and
// returns the total virtual time.
func runMain(e *sim.Engine, fn func(p *sim.Proc) error) (time.Duration, error) {
	var ferr error
	e.Go("main", func(p *sim.Proc) {
		ferr = fn(p)
	})
	if err := e.Run(); err != nil {
		return 0, err
	}
	return e.Now(), ferr
}

// sumSeeks totals seek counts across disks.
func sumSeeks(disks []*device.Disk) (count, cyls int64) {
	for _, d := range disks {
		st := d.Stats()
		count += st.Seeks
		cyls += st.SeekCyls
	}
	return count, cyls
}
