// Package probe is the stack's flight recorder: an always-compiled,
// nil-default span tracer and typed metrics registry threaded through
// every layer (sim, mpp, device, blockio, collective, ioserver).
//
// Spans are stamped with the VIRTUAL clock — recording is nothing but
// sim.Context.Now() reads between the events the simulation was already
// producing — so attaching a recorder never perturbs the modeled
// schedule: every pinned modeled time stays bit-identical with tracing
// on, and two runs of the same scenario export byte-identical traces.
// The other half of the contract is the nil default: every Recorder,
// Counter, Gauge and Histogram method is a no-op on a nil receiver, so
// an uninstrumented run pays one pointer check per site and zero
// allocations.
//
// Like the rest of the sim stack, a Recorder relies on the engine's
// strict alternation for safety: spans and metrics are recorded by
// managed processes (one runs at a time), so no locks are needed and
// recording order — and therefore the exported trace — is
// deterministic.
//
// Exports (export.go): Chrome trace-event JSON for Perfetto /
// chrome://tracing (WriteChromeTrace), per-resource busy-interval
// utilization tables (UtilizationTable), and a flat metrics snapshot
// (Metrics.Snapshot / Metrics.Table).
package probe

import (
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// TrackID names a registered track (a Perfetto row: one per rank,
// device, lane...). 0 is the zero track of a nil recorder; spans
// recorded against it are dropped.
type TrackID int32

// SpanID identifies a recorded span; 0 means "no span" (the nil
// recorder returns it, and it is the no-parent value).
type SpanID int64

// Span is one recorded interval of virtual time on a track. End == Start
// marks an instant event (a zero-duration marker, exported as such).
type Span struct {
	ID     SpanID
	Parent SpanID // causal parent (0: none); exported as a flow arrow
	Track  TrackID
	Cat    string // layer: "sim", "mpp", "device", "blockio", "collective", "ioserver"
	Name   string
	Start  time.Duration
	End    time.Duration
	Bytes  int64 // payload size; 0 omitted from the exported args
}

// track is one registered timeline row.
type track struct {
	name string
	// async tracks hold spans that may overlap in time (queue waits,
	// in-flight requests); they export as Chrome async (b/e) events,
	// which render on per-id sub-rows, instead of complete (X) events,
	// which require proper nesting.
	async bool
}

// Recorder is the flight recorder. The nil *Recorder is the off switch:
// every method is a cheap no-op, so instrumented code calls
// unconditionally. Create one with New and attach it via the layers'
// SetProbe methods.
type Recorder struct {
	tracks []track
	byName map[string]TrackID
	spans  []Span
	scope  string
	m      Metrics
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{byName: make(map[string]TrackID)}
}

// SetScope sets a prefix applied to track names registered from now on
// ("" clears it). A tool tracing several sub-runs into one recorder
// scopes each (e.g. "pipeline/chunked/") so their identically-named
// resources land on distinct tracks.
func (r *Recorder) SetScope(prefix string) {
	if r == nil {
		return
	}
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	r.scope = prefix
}

// Track registers (or looks up) a synchronous track — a timeline whose
// spans never overlap, like a device's service timeline. Returns 0 on a
// nil recorder.
func (r *Recorder) Track(name string) TrackID { return r.track(name, false) }

// AsyncTrack registers (or looks up) a track whose spans may overlap in
// time — queue waits, concurrently in-flight requests. Async/sync is
// fixed by the first registration of a name.
func (r *Recorder) AsyncTrack(name string) TrackID { return r.track(name, true) }

func (r *Recorder) track(name string, async bool) TrackID {
	if r == nil {
		return 0
	}
	name = r.scope + name
	if id, ok := r.byName[name]; ok {
		return id
	}
	r.tracks = append(r.tracks, track{name: name, async: async})
	id := TrackID(len(r.tracks))
	r.byName[name] = id
	return id
}

// Tracks reports the registered track names in registration order.
func (r *Recorder) Tracks() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.tracks))
	for i, t := range r.tracks {
		names[i] = t.name
	}
	return names
}

// Span records one completed interval [start, end] on a track and
// returns its ID (0 on a nil recorder or zero track, so the result can
// feed a later span's parent unconditionally). bytes annotates the
// payload size (0: none); parent links the span to the one causally
// upstream of it. Timestamps must come from the virtual clock
// (sim.Context.Now()), which is what keeps traces deterministic.
func (r *Recorder) Span(t TrackID, cat, name string, start, end time.Duration, bytes int64, parent SpanID) SpanID {
	if r == nil || t == 0 {
		return 0
	}
	id := SpanID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Track: t, Cat: cat, Name: name,
		Start: start, End: end, Bytes: bytes,
	})
	return id
}

// Instant records a zero-duration marker (plan decisions, admissions).
func (r *Recorder) Instant(t TrackID, cat, name string, at time.Duration) SpanID {
	return r.Span(t, cat, name, at, at, 0, 0)
}

// Spans returns the recorded spans in record order (shared backing
// array; callers must not mutate).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Metrics returns the recorder's metrics registry (nil on a nil
// recorder; the registry's methods are themselves nil-safe).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return &r.m
}

// Counter is a monotonically increasing metric. The nil *Counter (from
// a nil registry) no-ops, so hot paths hold one and Add unconditionally.
type Counter struct{ v int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram accumulates observations into a stats.Sample with a
// nil-safe wrapper, so instrumented code records unconditionally.
type Histogram struct{ s stats.Sample }

// Add folds one observation in.
func (h *Histogram) Add(x float64) {
	if h == nil {
		return
	}
	h.s.Add(x)
}

// AddDuration folds a duration in as seconds.
func (h *Histogram) AddDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.s.AddDuration(d)
}

// Sample exposes the underlying sample (nil on a nil histogram).
func (h *Histogram) Sample() *stats.Sample {
	if h == nil {
		return nil
	}
	return &h.s
}

// metric is one registered entry of the registry.
type metric struct {
	kind    string // "counter", "gauge", "histogram"
	counter *Counter
	gauge   func() float64
	hist    *Histogram
	sample  *stats.Sample // adopted external sample (ObserveSample)
}

// Metrics is the typed metrics registry: counters (push), gauges (pull
// functions evaluated at snapshot time — how existing layer stats are
// subsumed without duplicating their accounting), and histograms
// (stats.Sample order statistics). All methods are nil-safe. Snapshot
// order is sorted by name, so snapshots are deterministic.
type Metrics struct {
	names []string
	items map[string]*metric
}

func (m *Metrics) get(name, kind string) *metric {
	if m.items == nil {
		m.items = make(map[string]*metric)
	}
	it, ok := m.items[name]
	if !ok {
		it = &metric{kind: kind}
		m.items[name] = it
		m.names = append(m.names, name)
	}
	return it
}

// Counter registers (or looks up) a counter. Returns nil — a no-op
// counter — on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	it := m.get(name, "counter")
	if it.counter == nil {
		it.counter = &Counter{}
	}
	return it.counter
}

// Gauge registers a pull gauge: fn is evaluated at snapshot time. The
// last registration of a name wins (re-attaching replaces the puller).
func (m *Metrics) Gauge(name string, fn func() float64) {
	if m == nil {
		return
	}
	m.get(name, "gauge").gauge = fn
}

// Histogram registers (or looks up) a histogram. Returns nil — a no-op
// histogram — on a nil registry.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	it := m.get(name, "histogram")
	if it.hist == nil {
		it.hist = &Histogram{}
	}
	return it.hist
}

// ObserveSample adopts an externally maintained stats.Sample (e.g. an
// I/O lane's latency sample) for snapshotting under the given name, so
// the registry subsumes existing accounting instead of duplicating it.
func (m *Metrics) ObserveSample(name string, s *stats.Sample) {
	if m == nil {
		return
	}
	m.get(name, "histogram").sample = s
}

// MetricValue is one snapshot row. For histograms Value is the
// observation count and the quantile fields are populated.
type MetricValue struct {
	Name  string
	Kind  string
	Value float64
	P50   float64
	P95   float64
	P99   float64
	Max   float64
}

// Snapshot evaluates every registered metric, sorted by name.
func (m *Metrics) Snapshot() []MetricValue {
	if m == nil {
		return nil
	}
	names := append([]string(nil), m.names...)
	sort.Strings(names)
	out := make([]MetricValue, 0, len(names))
	for _, name := range names {
		it := m.items[name]
		v := MetricValue{Name: name, Kind: it.kind}
		switch {
		case it.counter != nil:
			v.Value = float64(it.counter.Value())
		case it.gauge != nil:
			v.Value = it.gauge()
		default:
			s := it.sample
			if s == nil {
				s = it.hist.Sample()
			}
			if s != nil {
				v.Value = float64(s.N())
				v.P50, v.P95, v.P99, v.Max = s.P50(), s.P95(), s.P99(), s.Max()
			}
		}
		out = append(out, v)
	}
	return out
}

// Table renders the snapshot as a fixed-width table.
func (m *Metrics) Table() *stats.Table {
	t := stats.NewTable("metrics", "name", "kind", "value", "p50", "p95", "p99", "max")
	for _, v := range m.Snapshot() {
		if v.Kind == "histogram" {
			t.AddRow(v.Name, v.Kind, v.Value, v.P50, v.P95, v.P99, v.Max)
		} else {
			t.AddRow(v.Name, v.Kind, v.Value, "", "", "", "")
		}
	}
	return t
}
