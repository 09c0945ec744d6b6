package probe

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	if id := r.Track("x"); id != 0 {
		t.Fatalf("nil Track = %d, want 0", id)
	}
	if id := r.AsyncTrack("x"); id != 0 {
		t.Fatalf("nil AsyncTrack = %d, want 0", id)
	}
	if id := r.Span(1, "c", "n", 0, time.Second, 4, 0); id != 0 {
		t.Fatalf("nil Span = %d, want 0", id)
	}
	r.SetScope("s/")
	if r.Spans() != nil || r.Tracks() != nil || r.Usage() != nil {
		t.Fatal("nil recorder leaked data")
	}
	m := r.Metrics()
	if m != nil {
		t.Fatalf("nil Metrics = %v, want nil", m)
	}
	m.Counter("c").Add(3)
	m.Gauge("g", func() float64 { return 1 })
	m.Histogram("h").Add(1)
	m.ObserveSample("s", nil)
	if got := m.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter = %d", got)
	}
	if snap := m.Snapshot(); snap != nil {
		t.Fatalf("nil Snapshot = %v", snap)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	c := r.Metrics().Counter("x")
	h := r.Metrics().Histogram("y")
	allocs := testing.AllocsPerRun(100, func() {
		trk := r.Track("dev/d0")
		id := r.Span(trk, "device", "read", 0, time.Millisecond, 512, 0)
		r.Instant(trk, "device", "plan", 0)
		_ = id
		c.Add(1)
		h.Add(0.5)
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder path allocates %.1f per op, want 0", allocs)
	}
}

func TestTrackRegistrationAndScope(t *testing.T) {
	r := New()
	a := r.Track("dev/d0")
	if b := r.Track("dev/d0"); b != a {
		t.Fatalf("re-registration changed id: %d vs %d", a, b)
	}
	r.SetScope("run1/")
	c := r.Track("dev/d0")
	if c == a {
		t.Fatal("scoped track collided with unscoped")
	}
	r.SetScope("")
	got := r.Tracks()
	want := []string{"dev/d0", "run1/dev/d0"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Tracks = %v, want %v", got, want)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := New()
	ranks := r.Track("rank/0")
	q := r.AsyncTrack("dev/d0/q")
	dev := r.Track("dev/d0")
	ex := r.Span(ranks, "mpp", "exchange", 0, 10*time.Microsecond, 4096, 0)
	r.Span(q, "device", "wait", 10*time.Microsecond, 12*time.Microsecond, 0, ex)
	r.Span(dev, "device", "write", 12*time.Microsecond, 20*time.Microsecond, 4096, ex)
	r.Instant(ranks, "collective", "plan", 5*time.Microsecond)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gt, wt := got.Tracks(), r.Tracks(); len(gt) != len(wt) {
		t.Fatalf("tracks = %v, want %v", gt, wt)
	} else {
		for i := range gt {
			if gt[i] != wt[i] {
				t.Fatalf("tracks = %v, want %v", gt, wt)
			}
		}
	}
	gs, ws := got.Spans(), r.Spans()
	if len(gs) != len(ws) {
		t.Fatalf("got %d spans, want %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("span %d = %+v, want %+v", i, gs[i], ws[i])
		}
	}
	// And a re-export of the parsed recorder is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-export of parsed trace differs from original")
	}
}

// TestChromeTraceImpossibleTimes: a time that is negative or overflows a
// duration's nanoseconds is refused with the event's name.
func TestChromeTraceImpossibleTimes(t *testing.T) {
	for _, evs := range []string{
		`{"name":"neg","ph":"X","ts":-5,"dur":-3}`,
		`{"name":"negdur","ph":"X","ts":5,"dur":-3}`,
		`{"name":"huge","ph":"X","ts":1e300,"dur":1}`,
		`{"name":"edge","ph":"i","ts":9223372036854775.808}`,
		`{"name":"long","ph":"X","ts":5e15,"dur":5e15}`,
		`{"name":"end","ph":"b","id":1,"ts":10},{"name":"end","ph":"e","id":1,"ts":-4}`,
		`{"name":"back","ph":"b","id":1,"ts":10},{"name":"back","ph":"e","id":1,"ts":4}`,
	} {
		_, err := ReadChromeTrace(strings.NewReader("[" + evs + "]"))
		name := evs[len(`{"name":"`):strings.Index(evs, `","ph"`)]
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("%s: %v, want an error naming event %q", evs, err, name)
		}
	}
	if _, err := ReadChromeTrace(strings.NewReader(`[{"name":"ok","ph":"X","ts":4e15,"dur":5e15}]`)); err != nil {
		t.Errorf("a 104-day span refused: %v", err)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() *bytes.Buffer {
		r := New()
		trk := r.Track("rank/0")
		q := r.AsyncTrack("lane/a")
		for i := 0; i < 50; i++ {
			at := time.Duration(i) * time.Microsecond
			p := r.Span(trk, "mpp", "exchange", at, at+500*time.Nanosecond, int64(i), 0)
			r.Span(q, "ioserver", "req", at, at+2*time.Microsecond, 0, p)
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, r); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := build(), build()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical recorders exported different bytes")
	}
	if !strings.Contains(a.String(), `"ph":"b"`) || !strings.Contains(a.String(), `"ph":"X"`) {
		t.Fatalf("export missing expected event phases:\n%s", a.String())
	}
}

func TestMetricsSnapshot(t *testing.T) {
	r := New()
	m := r.Metrics()
	m.Counter("z.count").Add(2)
	m.Counter("z.count").Add(3)
	m.Gauge("a.gauge", func() float64 { return 7.5 })
	h := m.Histogram("b.lat")
	for _, v := range []float64{1, 2, 3, 4} {
		h.Add(v)
	}
	var ext stats.Sample
	ext.Add(9)
	m.ObserveSample("c.ext", &ext)

	snap := m.Snapshot()
	names := make([]string, len(snap))
	for i, v := range snap {
		names[i] = v.Name
	}
	want := []string{"a.gauge", "b.lat", "c.ext", "z.count"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", names, want)
		}
	}
	if snap[0].Value != 7.5 {
		t.Fatalf("gauge = %v", snap[0].Value)
	}
	if snap[1].Value != 4 || snap[1].Max != 4 {
		t.Fatalf("histogram = %+v", snap[1])
	}
	if snap[2].Value != 1 || snap[2].P50 != 9 {
		t.Fatalf("adopted sample = %+v", snap[2])
	}
	if snap[3].Value != 5 {
		t.Fatalf("counter = %v", snap[3].Value)
	}
	if tbl := m.Table().String(); !strings.Contains(tbl, "z.count") {
		t.Fatalf("table missing counter:\n%s", tbl)
	}
}

func TestUsageAndOverlap(t *testing.T) {
	r := New()
	a := r.Track("dev/a")
	b := r.Track("dev/b")
	// a busy [0,10] and [5,15] → union 15 of window [0,20].
	r.Span(a, "device", "w", 0, 10*time.Microsecond, 100, 0)
	r.Span(a, "device", "w", 5*time.Microsecond, 15*time.Microsecond, 0, 0)
	r.Span(b, "device", "r", 10*time.Microsecond, 20*time.Microsecond, 0, 0)
	u := r.Usage()
	if u[0].Busy != 15*time.Microsecond || u[0].Spans != 2 || u[0].Bytes != 100 {
		t.Fatalf("usage a = %+v", u[0])
	}
	if want := 15.0 / 20.0; u[0].Util != want {
		t.Fatalf("util a = %v, want %v", u[0].Util, want)
	}
	ov := r.OverlapBusy(
		func(s Span) bool { return s.Name == "w" },
		func(s Span) bool { return s.Name == "r" },
	)
	if ov != 5*time.Microsecond {
		t.Fatalf("overlap = %v, want 5µs", ov)
	}
	if got := r.UnionBusy(func(Span) bool { return true }); got != 20*time.Microsecond {
		t.Fatalf("union = %v, want 20µs", got)
	}
	if tbl := r.UtilizationTable().String(); !strings.Contains(tbl, "dev/a") {
		t.Fatalf("utilization table missing track:\n%s", tbl)
	}
}

// TestIntervalAlgebra pins Union and Overlap — the repository's one
// interval algebra, behind the recorder's busy accounting and the
// collective layer's exchange/access/overlap statistics — on the shapes
// that distinguish implementations: intervals that touch, nest, are
// empty, or are disjoint, given out of order.
func TestIntervalAlgebra(t *testing.T) {
	iv := func(from, to int) Interval {
		return Interval{time.Duration(from) * time.Microsecond, time.Duration(to) * time.Microsecond}
	}
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	cases := []struct {
		name    string
		a, b    []Interval
		unionA  time.Duration
		overlap time.Duration
	}{
		{"touching coalesce", []Interval{iv(5, 10), iv(0, 5)}, []Interval{iv(4, 6)}, us(10), us(2)},
		{"nested adds nothing", []Interval{iv(0, 10), iv(2, 3), iv(4, 10)}, []Interval{iv(2, 3), iv(9, 12)}, us(10), us(2)},
		{"empty and inverted dropped", []Interval{iv(3, 3), iv(0, 2), iv(9, 7)}, []Interval{iv(0, 10), iv(5, 5)}, us(2), us(2)},
		{"empty cannot bridge a gap", []Interval{iv(0, 2), iv(2, 2), iv(3, 4)}, []Interval{iv(2, 3)}, us(3), 0},
		{"disjoint", []Interval{iv(6, 8), iv(0, 2)}, []Interval{iv(2, 6), iv(8, 9)}, us(4), 0},
		{"touching sets share no time", []Interval{iv(0, 5)}, []Interval{iv(5, 9)}, us(5), 0},
		{"none", nil, []Interval{iv(0, 1)}, 0, 0},
	}
	for _, tc := range cases {
		if got := Union(append([]Interval(nil), tc.a...)); got != tc.unionA {
			t.Errorf("%s: Union = %v, want %v", tc.name, got, tc.unionA)
		}
		ab := Overlap(append([]Interval(nil), tc.a...), append([]Interval(nil), tc.b...))
		ba := Overlap(append([]Interval(nil), tc.b...), append([]Interval(nil), tc.a...))
		if ab != tc.overlap || ba != tc.overlap {
			t.Errorf("%s: Overlap = %v one way, %v the other, want %v", tc.name, ab, ba, tc.overlap)
		}
	}
}
