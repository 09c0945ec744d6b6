package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/probe"
)

// writeTestTrace records a tiny synthetic run — one device servicing two
// writes while a collective exchange overlaps one access — and writes it
// as Chrome trace JSON.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	rec := probe.New()
	dev := rec.Track("dev/d0")
	rank := rec.Track("rank/0")
	io := rec.Track("rank/0/io")
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	rec.Span(dev, "device", "write", ms(0), ms(10), 4096, 0)
	rec.Span(dev, "device", "write", ms(12), ms(20), 4096, 0)
	ex := rec.Span(rank, "collective", "chunk.exchange", ms(0), ms(8), 0, 0)
	rec.Span(io, "collective", "chunk.access", ms(4), ms(20), 8192, ex)
	// The call was priced: sieved at 30 ms, the aligned partition at 21 ms
	// and chosen, on ramped rounds, and it took 20.
	plan := rec.AsyncTrack("rank/plan")
	call := rec.Span(plan, "collective", "call.aligned", ms(0), ms(20), 0, 0)
	rec.Span(plan, "collective", "price.sieved", ms(0), ms(30), 0, call)
	rec.Span(plan, "collective", "price.aligned", ms(0), ms(21), 0, call)
	rec.Span(plan, "collective", "cut.ramped 3 7 11", ms(0), ms(20), 0, call)
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.WriteChromeTrace(f, rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceSubcommand(t *testing.T) {
	path := writeTestTrace(t)
	out := ctl(t, nil, "trace", path)
	for _, want := range []string{
		"8 spans on 4 tracks",
		"device/write",
		"collective/chunk.exchange",
		"dev/d0",
		"overlap 4ms", // exchange [0,8) ∩ access [4,20) = [4,8)
		"30.00ms  -          21.00ms  aligned  20.00ms  1.050       ramped 3 7 11",
		"1 priced calls: price/took min 1.050",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace summary missing %q:\n%s", want, out)
		}
	}
}

func TestTraceSubcommandErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run("trace", []string{}, nil, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run("trace", []string{filepath.Join(t.TempDir(), "nope.json")}, nil, &out); err == nil {
		t.Fatal("missing trace file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("trace", []string{bad}, nil, &out); err == nil {
		t.Fatal("malformed trace accepted")
	}
}
