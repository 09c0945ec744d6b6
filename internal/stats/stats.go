// Package stats provides counters, throughput math and fixed-width table
// rendering for the experiment harness (the paper-style tables printed
// by cmd/pariobench; README.md's experiment table has the headline rows).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// MBps converts bytes moved in d to megabytes per second (10^6 B/s,
// the unit of the era's drive spec sheets).
func MBps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

// Speedup reports base/measured (how many times faster than base).
func Speedup(base, measured time.Duration) float64 {
	if measured <= 0 {
		return 0
	}
	return float64(base) / float64(measured)
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Note    string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case time.Duration:
			row[i] = fmtDuration(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// fmtDuration renders durations compactly with ms precision above 1s.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return d.String()
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Sample accumulates individual observations for order statistics. The
// QoS scheduler records one observation per served request, so a
// Sample's memory is bounded by the job's request count, and
// Quantile's nearest-rank definition keeps reported percentiles exact
// and deterministic (they are always observed values, never
// interpolations).
type Sample struct {
	xs     []float64
	sorted bool
}

// Add folds one observation in.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration folds a duration observation in as seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N reports the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Quantile reports the q-quantile (0 ≤ q ≤ 1) by the nearest-rank
// definition: the smallest observation such that at least q·N
// observations are ≤ it. Zero when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	rank := int(math.Ceil(q * float64(len(s.xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.xs) {
		rank = len(s.xs)
	}
	return s.xs[rank-1]
}

// QuantileDur is Quantile for samples recorded with AddDuration.
func (s *Sample) QuantileDur(q float64) time.Duration {
	return time.Duration(s.Quantile(q) * float64(time.Second))
}

// P50 is the median (nearest-rank).
func (s *Sample) P50() float64 { return s.Quantile(0.50) }

// P95 is the 95th percentile (nearest-rank).
func (s *Sample) P95() float64 { return s.Quantile(0.95) }

// P99 is the 99th percentile (nearest-rank).
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Max reports the largest observation, zero when empty.
func (s *Sample) Max() float64 { return s.Quantile(1) }
