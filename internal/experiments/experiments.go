// Package experiments contains one driver per reproduced figure/table.
// Each driver builds a fresh simulated machine (1989-class drives under a
// virtual-time engine), runs the workload, and returns paper-style tables
// plus named metrics for the benchmark harness and shape assertions.
//
// The experiment index is the registry below (pariobench -list prints
// it); the paper claim each one reproduces and its expected shape are
// stated on its driver, and README.md's experiment table lists what was
// built on top.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
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

// entry is one registered experiment driver.
type entry struct {
	title string
	run   func() (*Result, error)
}

// registry maps experiment ids to drivers. It is populated in init (a
// plain var initializer would form a reference cycle through Title).
var registry = map[string]entry{}

func init() {
	registry["f1"] = entry{"Figure 1: internal organizations of sequential parallel files", Figure1}
	registry["e1"] = entry{"E1: disk striping bandwidth for S files (§4)", E1Striping}
	registry["e2"] = entry{"E2: self-scheduled early pointer release (§4)", E2SelfSched}
	registry["e3"] = entry{"E3: one device per process — independent progress (§4)", E3DevicePerProcess}
	registry["e4"] = entry{"E4: fewer devices than processes — seek interference (§4)", E4SeekInterference}
	registry["e5"] = entry{"E5: declustering vs whole blocks under skew (§4, Livny)", E5Decluster}
	registry["e6"] = entry{"E6: buffering — overlap of I/O with computation (§4)", E6Buffering}
	registry["e7"] = entry{"E7: global view performance by placement (§4)", E7GlobalView}
	registry["e8"] = entry{"E8: reliability — MTBF, parity, shadowing (§5)", E8Reliability}
	registry["e9"] = entry{"E9: view mismatch remedies (§5)", E9ViewMismatch}
	registry["e10"] = entry{"E10: boundary data — replicate vs cache (§5)", E10Boundary}
	registry["e11"] = entry{"E11: file-per-process baseline (FEM, §3)", E11FemBaseline}
}

// IDs lists the experiment identifiers in canonical order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// f1 first, then e1..e11 numerically.
		a, b := ids[i], ids[j]
		if a[0] != b[0] {
			return a[0] == 'f'
		}
		var na, nb int
		fmt.Sscanf(a[1:], "%d", &na)
		fmt.Sscanf(b[1:], "%d", &nb)
		return na < nb
	})
	return ids
}

// Title reports the registered title for id.
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given id.
func Run(id string) (*Result, error) {
	ent, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return ent.run()
}

// geom1989 is the drive layout used by all experiments: 4 KiB blocks,
// 64 per cylinder, 900 cylinders.
func geom1989() device.Geometry { return device.DefaultGeometry1989() }

// array builds n engine-attached 1989 drives and a volume over them.
func array(e *sim.Engine, n int, sched device.Sched) ([]*device.Disk, *pfs.Volume, error) {
	disks := make([]*device.Disk, n)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     fmt.Sprintf("d%d", i),
			Geometry: geom1989(),
			Engine:   e,
			Sched:    sched,
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		return nil, nil, err
	}
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
