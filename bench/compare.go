package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the runner reads: the names,
// directions and bounds it is checked against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads a -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), which is
// what the acceptance driver uses. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j, delta := i*m/4, i*m%4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// verdict judges set b against set a for one metric. worsening is b's
// median against a's as a share of a's, positive when worse.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worsening := ratio(mb-ma, ma)
	if !lowerBetter {
		worsening = -worsening
	}
	// Every run of b better than every run of a settles it whatever the
	// spread.
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	allBetter := sb[len(sb)-1] < sa[0]
	if !lowerBetter {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	spread := spreadOf(a)
	if s := spreadOf(b); s > spread {
		spread = s
	}
	switch {
	case allBetter:
		return "better", worsening
	case spread > bound:
		return "unresolved", worsening
	case worsening > bound:
		return "worse", worsening
	case -worsening > spread && worsening < 0:
		return "better", worsening
	}
	return "within", worsening
}

// compareFiles prints one row per workload × end-to-end metric judging the
// runs in file b against those in file a, and reports whether any is worse.
func compareFiles(w io.Writer, specPath, a, b string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	ra, err := readRecords(a)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(b)
	if err != nil {
		return false, err
	}
	// Seed order, so that equal positions of two same-seed sets are the
	// same inputs.
	for _, rs := range [][]record{ra, rb} {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Provenance.Seed < rs[j].Provenance.Seed })
	}
	values := func(rs []record, workload, name string) (xs []float64, seeds []uint64, failed int) {
		for _, r := range rs {
			if r.Provenance.Workload != workload || r.Provenance.Traced {
				continue
			}
			failed += r.Failed
			if m, ok := r.Metrics[name]; ok {
				xs = append(xs, m.Value)
				seeds = append(seeds, r.Provenance.Seed)
			}
		}
		return xs, seeds, failed
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %7s %4s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "n", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, sa, _ := values(ra, wl.Name, m.Name)
			xb, sb, failed := values(rb, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, worsening := verdict(xa, xb, m.Better == "lower", m.Bound)
			// Modeled time is exact for a seed: over the same seeds, equal
			// values are identical runs and any difference is real, never
			// spread.
			if strings.HasPrefix(m.Name, "modeled_") && reflect.DeepEqual(sa, sb) {
				switch {
				case reflect.DeepEqual(xa, xb):
					v = "identical"
				case worsening > m.Bound:
					v = "worse"
				case worsening < 0:
					v = "better"
				default:
					v = "within"
				}
			}
			if failed > 0 {
				v = "worse" // a gain does not count when ops fail
			}
			if v == "worse" {
				anyWorse = true
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			sign := worsening
			if m.Better != "lower" {
				sign = -worsening
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %+8.2f%% %6.1f%% %d/%d  %s\n",
				wl.Name, m.Name, ma, mb, 100*sign, 100*m.Bound, len(xa), len(xb), v)
		}
	}
	return anyWorse, nil
}

// selfCheck is the determinism self-check: each workload's first ops run
// twice under each of two seeds. Within a seed every modeled time and
// every exact counter must match bit-for-bit, and every image must verify.
func selfCheck(w io.Writer) error {
	const firstOps = 64
	for _, wl := range workloads {
		ops := wl.scaled(firstOps, 10, 1)
		var perSeed []float64
		for _, seed := range []uint64{11, 12} {
			cfg := runConfig{w: wl, seed: seed, seconds: 10, div: 1, setups: 1}
			a, err := measure(cfg, 0, ops, nil)
			if err != nil {
				return err
			}
			b, err := measure(cfg, 0, ops, nil)
			if err != nil {
				return err
			}
			for _, m := range []*measured{a, b} {
				if m.c.failed > 0 || m.c.verifyFailed > 0 {
					return fmt.Errorf("%s seed %d: %d ops failed, %d of %d final records wrong",
						wl.name, seed, m.c.failed, m.c.verifyFailed, m.c.verifyAll)
				}
			}
			ea, eb := a.c.exact(), b.c.exact()
			if !reflect.DeepEqual(ea, eb) {
				return fmt.Errorf("%s seed %d: two runs differ:\n%+v\n%+v", wl.name, seed, ea, eb)
			}
			perSeed = append(perSeed, a.c.modeled().Seconds())
			fmt.Fprintf(w, "%-14s seed %d: %d ops twice, modeled %.9f s, %d device requests, %d records verified — identical\n",
				wl.name, seed, ops, a.c.modeled().Seconds(), ea.counts.devReqs, a.c.verifyAll)
		}
		if perSeed[0] == perSeed[1] {
			return fmt.Errorf("%s: modeled time does not depend on the seed (%v s under both)", wl.name, perSeed[0])
		}
	}
	return nil
}
