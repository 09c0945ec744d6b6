package main

import (
	"math"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at 1/32 scale — untraced and traced, with
// the layer drivers — and checks that nothing failed and that the runner
// emits exactly the metrics BENCHMARK.json names, once each, with the
// units it names.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the runner has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		sw := sw
		t.Run(sw.Name, func(t *testing.T) {
			t.Parallel()
			w := findWorkload(sw.Name)
			if w == nil {
				t.Fatalf("BENCHMARK.json workload %q is not in the runner", sw.Name)
			}
			cfg := runConfig{w: w, seed: 7, seconds: 10, div: 32, setups: 1}
			layers, plain, err := runTracedPair(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e2e := newRecord(cfg, plain.c.warm, plain.c.ops, false)
			e2e.emitEndToEnd(plain)
			e2e.finish(plain)
			for _, c := range []struct {
				kind string
				r    *record
				want []specMetric
			}{{"end_to_end", e2e, spec.EndToEnd}, {"per_layer", layers, spec.PerLayer}} {
				if !c.r.Correct || c.r.Failed != 0 || c.r.Attempted < 1 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d", c.kind, c.r.Correct, c.r.Attempted, c.r.Failed)
				}
				if len(c.r.Metrics) != len(c.want) {
					t.Errorf("%s: runner emits %d metrics, BENCHMARK.json names %d", c.kind, len(c.r.Metrics), len(c.want))
				}
				for _, m := range c.want {
					got, ok := c.r.Metrics[m.Name]
					switch {
					case !metricName.MatchString(m.Name):
						t.Errorf("%s: bad metric name %q", c.kind, m.Name)
					case !ok:
						t.Errorf("%s: %s not emitted", c.kind, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", c.kind, m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s: %s = %v", c.kind, m.Name, got.Value)
					case c.kind == "end_to_end" && got.Value <= 0:
						t.Errorf("%s: %s = %v, must be positive", c.kind, m.Name, got.Value)
					}
				}
			}
			// The separation the workloads promise.
			val := func(name string) float64 { return layers.Metrics[name].Value }
			switch w.name {
			case "ckpt_replay":
				if val("collective.plan_hit_frac") < 0.99 {
					t.Errorf("plan_hit_frac %v, want ≥ 0.99", val("collective.plan_hit_frac"))
				}
			case "ckpt_fresh":
				if val("collective.plan_hit_frac") != 0 {
					t.Errorf("plan_hit_frac %v, want 0", val("collective.plan_hit_frac"))
				}
				for _, route := range []string{"two-phase", "sieved", "vectored"} {
					if val("collective.route_"+route+"_frac") <= 0 {
						t.Errorf("route %s never taken", route)
					}
				}
			case "org_scan":
				for name := range layers.Metrics {
					if len(name) > 4 && (name[:4] == "mpp." || name[:5] == "colle" || name[:5] == "ioser") && val(name) != 0 {
						t.Errorf("%s = %v on org_scan, want 0", name, val(name))
					}
				}
				if val("core.records_per_op") <= 0 {
					t.Error("no records through core")
				}
			}
			if on := val("ioserver.requests_per_op") > 0; on != (w.name == "multijob_qos") {
				t.Errorf("ioserver.requests_per_op = %v", val("ioserver.requests_per_op"))
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// which the acceptance driver uses for the spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("got %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{[]float64{100, 101, 102}, []float64{100, 101, 102}, true, 0.1, "within"},
		{[]float64{100, 101, 102}, []float64{120, 121, 122}, true, 0.1, "worse"},
		{[]float64{100, 101, 102}, []float64{80, 81, 82}, true, 0.1, "better"},
		{[]float64{100, 101, 102}, []float64{80, 81, 82}, false, 0.1, "worse"},
		{[]float64{100, 140, 60}, []float64{120, 70, 150}, true, 0.1, "unresolved"},
		{[]float64{5, 5, 5}, []float64{5, 5, 5}, true, 0, "within"},
		{[]float64{5, 5, 5}, []float64{5.1, 5.1, 5.1}, true, 0, "worse"},
	} {
		if got, _ := verdict(c.a, c.b, c.lower, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, lower=%v, %v) = %s, want %s", c.a, c.b, c.lower, c.bound, got, c.want)
		}
	}
}
