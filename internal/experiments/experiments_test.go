package experiments

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/registry.golden from this run")

func TestIDsOrderAndTitles(t *testing.T) {
	want := []string{"f1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
		"seek", "service", "stripe", "extent", "noncontig", "collective", "strategy",
		"contended", "pipeline", "replay", "profile", "multijob", "scale", "cache"}
	if ids := IDs(); !slices.Equal(ids, want) {
		t.Fatalf("IDs = %v, want %v", ids, want)
	}
	for _, id := range want {
		if Title(id) == "" {
			t.Fatalf("no title for %s", id)
		}
	}
	if _, err := Run("nope", nil); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// ran holds each row's result: TestRegistryGoldens runs every row once,
// and the tests below read that run.
var ran = map[string]*Result{}

// runOK runs an experiment (once per test binary) and sanity-checks the
// result envelope.
func runOK(t *testing.T, id string) *Result {
	t.Helper()
	if res := ran[id]; res != nil {
		return res
	}
	res, err := Run(id, nil)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	ran[id] = res
	if res.ID != id || res.Title != Title(id) || len(res.Tables) == 0 || len(res.Metrics) == 0 {
		t.Fatalf("%s: malformed result", id)
	}
	if !strings.Contains(res.String(), res.ID) {
		t.Fatalf("%s: String() missing id", id)
	}
	return res
}

// maskHost blanks what reads the host clock in rendered tables: in a
// table with a "wall…" column, those columns and "speedup" (a ratio of
// them) become "~", and the table is re-joined unpadded, since cell
// widths move with the values.
func maskHost(text string) string {
	lines := strings.Split(text, "\n")
	cells := regexp.MustCompile(` {2,}`)
	for i := 0; i+1 < len(lines); i++ {
		if !strings.Contains(lines[i], "wall") || !strings.HasPrefix(lines[i+1], "---") {
			continue
		}
		head := cells.Split(strings.TrimRight(lines[i], " "), -1)
		for ; i < len(lines) && lines[i] != "" && !strings.HasPrefix(lines[i], "note:"); i++ {
			row := cells.Split(strings.TrimRight(lines[i], " "), -1)
			for c := range row {
				switch {
				case strings.HasPrefix(row[c], "---"):
					row[c] = "-"
				case row[c] != head[c] && (strings.HasPrefix(head[c], "wall") || head[c] == "speedup"):
					row[c] = "~"
				}
			}
			lines[i] = strings.Join(row, "  ")
		}
	}
	return strings.Join(lines, "\n")
}

// TestRegistryGoldens runs every registry row once and holds it to
// testdata/registry.golden: per row, what `pariobench -run <id>` prints,
// then every metric not keyed host_* (those read the host clock), sorted,
// one "metric <key> = <value>" line each, host-clock table cells masked.
// The file was first written at the commit before the paper rows became
// tables over one fixture, so it pins every modeled number across
// commits. -update rewrites it from this run.
func TestRegistryGoldens(t *testing.T) {
	var b strings.Builder
	for _, id := range IDs() {
		res := runOK(t, id)
		fmt.Fprintln(&b, res.String())
		for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
			if !strings.HasPrefix(k, "host_") {
				fmt.Fprintf(&b, "metric %s = %s\n", k, strconv.FormatFloat(res.Metrics[k], 'g', -1, 64))
			}
		}
		fmt.Fprintln(&b)
	}
	const name = "testdata/registry.golden"
	got := maskHost(b.String())
	if *update {
		if err := os.WriteFile(name, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if want := maskHost(string(raw)); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %q\nwant %q", name, i+1, gl[i], append(wl, "<eof>")[min(i, len(wl))])
			}
		}
		t.Fatalf("%s: %d lines rendered, %d in the golden", name, len(gl), len(wl))
	}
}

// TestPaperRowsCheckTheFill breaks one byte of one record of every
// organization's fill: each paper row reads it back through its own
// consumers, so each must fail, naming the record.
func TestPaperRowsCheckTheFill(t *testing.T) {
	defer func(fill func([]byte, int64)) { record = fill }(record)
	record = func(buf []byte, r int64) {
		workload.Record(buf, fillSeed, r)
		if r == 5 {
			buf[20] ^= 1
		}
	}
	for _, id := range []string{"f1", "e1", "e2", "e3", "e4", "e6", "e7", "e9", "e10", "e11"} {
		if _, err := Run(id, nil); err == nil || !strings.Contains(err.Error(), "record 5") {
			t.Errorf("%s with record 5 broken: err = %v", id, err)
		}
	}
}

// TestMechanismRowShapes asserts the shape of the mechanism rows no win
// test sweeps: the device-model tables and the raw scans.
func TestMechanismRowShapes(t *testing.T) {
	seek := runOK(t, "seek").Metrics
	for _, pair := range [][2]string{{"c0", "c1"}, {"c1", "c10"}, {"c10", "c100"}, {"c100", "c400"}, {"c400", "c899"}} {
		if seek["seek_s_"+pair[0]] >= seek["seek_s_"+pair[1]] {
			t.Errorf("seek curve not monotone: %s %v, %s %v", pair[0], seek["seek_s_"+pair[0]], pair[1], seek["seek_s_"+pair[1]])
		}
	}
	if svc := runOK(t, "service").Metrics; svc["service_s_4KiB"] != seek["seek_s_c0"] {
		t.Errorf("one 4 KiB request: service table says %v s, the drive took %v s", svc["service_s_4KiB"], seek["seek_s_c0"])
	}
	if st := runOK(t, "stripe").Metrics; st["mbps_d8"] < 7*st["mbps_d1"] {
		t.Errorf("8 drives scan at %v MB/s, one at %v: want ≥ 7x", st["mbps_d8"], st["mbps_d1"])
	}
	for _, id := range []string{"extent", "noncontig"} {
		m := runOK(t, id).Metrics
		if m["requests_w1"] < 4*m["requests_w32"] || m["elapsed_s_w1"] < 1.5*m["elapsed_s_w32"] {
			t.Errorf("%s: 32-block descriptors %v requests in %v s, one-block %v in %v s: want ≥ 4x fewer, ≥ 1.5x faster",
				id, m["requests_w32"], m["elapsed_s_w32"], m["requests_w1"], m["elapsed_s_w1"])
		}
	}
}

func TestFigure1AllPatternsValid(t *testing.T) {
	res := runOK(t, "f1") // TestRegistryGoldens holds its table's rows
	if len(res.Metrics) != 4 {
		t.Fatalf("only %d of 4 patterns validated: %v", len(res.Metrics), res.Metrics)
	}
}

// figure1Case is one crafted read sequence over 6 blocks for checkFigure1.
type figure1Case struct {
	name  string
	reads []int  // process, block, process, block, ...
	want  string // "" = valid
}

// checkFigure1Cases holds each case to one pattern's owner function: a
// good sequence must pass, and a broken one must be refused with the reason.
func checkFigure1Cases(t *testing.T, owner func(int64) int, cases []figure1Case) {
	t.Helper()
	for _, tc := range cases {
		var rs []blockRead
		for i := 0; i < len(tc.reads); i += 2 {
			rs = append(rs, blockRead{tc.reads[i], int64(tc.reads[i+1])})
		}
		err := checkFigure1(rs, 6, owner)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: valid pattern refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestFigure1CheckSequential(t *testing.T) {
	checkFigure1Cases(t, func(int64) int { return 0 }, []figure1Case{
		{"S", []int{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}, ""},
		{"duplicate", []int{0, 0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}, "block 1 read twice"},
		{"unread block", []int{0, 0, 0, 1, 0, 2, 0, 3, 0, 4}, "block 5 never read"},
		{"second process", []int{0, 0, 0, 1, 0, 2, 1, 3, 0, 4, 0, 5}, "block 3 read by P2, owner P1"},
		{"out of order", []int{0, 0, 0, 2, 0, 1, 0, 3, 0, 4, 0, 5}, "P1 read block 1 after block 2"},
	})
}

func TestFigure1CheckPartitioned(t *testing.T) {
	checkFigure1Cases(t, func(b int64) int { return int(b / 2) }, []figure1Case{ // 3 processes, 2 blocks each
		{"PS interleaved in time", []int{0, 0, 1, 2, 2, 4, 0, 1, 1, 3, 2, 5}, ""},
		{"wrong owner", []int{0, 0, 0, 1, 1, 2, 2, 3, 2, 4, 2, 5}, "block 3 read by P3, owner P2"},
		{"unread block", []int{0, 0, 1, 2, 2, 4, 0, 1, 2, 5}, "block 3 never read"},
		{"unknown process", []int{0, 0, 0, 1, 1, 2, 1, 3, 2, 4, 5, 5}, "block 5 read by P6, owner P3"},
	})
}

func TestFigure1CheckInterleaved(t *testing.T) {
	checkFigure1Cases(t, func(b int64) int { return int(b % 3) }, []figure1Case{
		{"IS", []int{0, 0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 5}, ""},
		{"unread block", []int{0, 0, 1, 1, 2, 2, 0, 3, 2, 5}, "block 4 never read"},
		{"wrong stride class", []int{0, 1, 1, 0, 2, 2, 0, 3, 1, 4, 2, 5}, "block 1 read by P1, owner P2"},
		{"out of order in one process", []int{0, 3, 1, 1, 2, 2, 0, 0, 1, 4, 2, 5}, "P1 read block 0 after block 3"},
	})
}

func TestFigure1CheckSelfScheduled(t *testing.T) {
	checkFigure1Cases(t, nil, []figure1Case{
		{"SS", []int{2, 0, 0, 1, 1, 2, 0, 3, 0, 4, 2, 5}, ""},
		{"SS duplicate", []int{0, 0, 1, 1, 2, 1, 0, 2, 1, 3, 2, 4, 0, 5}, "block 1 read twice"},
		{"SS out of claim order", []int{0, 0, 1, 2, 2, 1, 0, 3, 1, 4, 2, 5}, "P3 read block 1 after block 2"},
		{"outside the file", []int{0, 0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 6}, "P3 read block 6 of 6"},
	})
}

func TestE1StripingScales(t *testing.T) {
	res := runOK(t, "e1")
	// Shape: bandwidth grows with device count; 16 devices at least 6x
	// one device.
	if res.Metrics["read_speedup_d2"] < 1.5 {
		t.Fatalf("2-device speedup %v", res.Metrics["read_speedup_d2"])
	}
	if res.Metrics["read_speedup_d16"] < 6 {
		t.Fatalf("16-device speedup %v", res.Metrics["read_speedup_d16"])
	}
	if res.Metrics["read_speedup_d16"] <= res.Metrics["read_speedup_d4"] {
		t.Fatal("speedup not monotone")
	}
}

func TestE2EarlyReleaseWins(t *testing.T) {
	res := runOK(t, "e2")
	// At zero compute the shared pointer serializes transfers: early
	// release must win clearly; at heavy compute both converge.
	if res.Metrics["speedup_c0ms"] < 1.5 {
		t.Fatalf("early release speedup at c=0 is %v", res.Metrics["speedup_c0ms"])
	}
	if res.Metrics["speedup_c40ms"] > res.Metrics["speedup_c0ms"] {
		t.Fatal("speedup should shrink as compute dominates")
	}
	// E2b: block claims must be 4x fewer than record claims.
	if res.Metrics["claims_block"]*4 != res.Metrics["claims_record"] {
		t.Fatalf("claims: block %v, record %v", res.Metrics["claims_block"], res.Metrics["claims_record"])
	}
}

func TestE3PrivateDevicesDecouple(t *testing.T) {
	res := runOK(t, "e3")
	if res.Metrics["fast_proc_slowdown"] < 1.5 {
		t.Fatalf("sharing slowed the fast process only %vx", res.Metrics["fast_proc_slowdown"])
	}
}

func TestE4InterferenceAndPacking(t *testing.T) {
	res := runOK(t, "e4")
	// Throughput must degrade as devices shrink.
	if res.Metrics["mbps_d16_contiguous"] <= res.Metrics["mbps_d1_contiguous"] {
		t.Fatal("16 devices not faster than 1")
	}
	// Interleaved packing must cut seek travel when devices are shared.
	if res.Metrics["seekcyls_d4_interleaved"] >= res.Metrics["seekcyls_d4_contiguous"] {
		t.Fatalf("interleaved packing travel %v !< contiguous %v",
			res.Metrics["seekcyls_d4_interleaved"], res.Metrics["seekcyls_d4_contiguous"])
	}
}

func TestE5DeclusteringHelpsUnderSkew(t *testing.T) {
	res := runOK(t, "e5")
	// Livny's claim: under non-uniform access, declustering beats whole
	// blocks. (Under uniform access whole blocks may win — that is the
	// trade-off the literature reports.)
	for _, devs := range []string{"4", "8"} {
		whole := res.Metrics["s_d"+devs+"_zipf(2.0)_whole"]
		decl := res.Metrics["s_d"+devs+"_zipf(2.0)_declustered"]
		if decl >= whole {
			t.Fatalf("d=%s: declustered %vs !< whole %vs under skew", devs, decl, whole)
		}
	}
}

func TestE6BufferingOverlap(t *testing.T) {
	res := runOK(t, "e6")
	unbuf := res.Metrics["read, unbuffered"]
	double := res.Metrics["read, double buffer"]
	if double >= unbuf {
		t.Fatalf("double buffering %v !< unbuffered %v", double, unbuf)
	}
	wsync := res.Metrics["write, synchronous"]
	wdef := res.Metrics["write, deferred x2"]
	if wdef >= wsync {
		t.Fatalf("deferred write %v !< synchronous %v", wdef, wsync)
	}
}

func TestE7GlobalViewShape(t *testing.T) {
	res := runOK(t, "e7")
	striped := res.Metrics["S striped (unit 1)"]
	ps := res.Metrics["PS (partition per device)"]
	isSmall := res.Metrics["IS (8-block groups, buffers < group)"]
	isBig := res.Metrics["IS (8-block groups, buffers >= group)"]
	if ps >= striped/1.5 {
		t.Fatalf("PS global scan %v MB/s should be well under striped %v", ps, striped)
	}
	if isSmall >= isBig {
		t.Fatalf("IS with starved buffers %v !< IS with ample buffers %v", isSmall, isBig)
	}
}

func TestE8ReliabilityNumbers(t *testing.T) {
	res := runOK(t, "e8")
	if res.Metrics["mtbf_h_n10"] != 3000 {
		t.Fatalf("10-device MTBF %v h, want 3000 (paper)", res.Metrics["mtbf_h_n10"])
	}
	if res.Metrics["mtbf_h_n100"] != 300 {
		t.Fatalf("100-device MTBF %v h, want 300 (paper)", res.Metrics["mtbf_h_n100"])
	}
	if res.Metrics["loss_parity_n10"] >= res.Metrics["loss_plain_n10"]/3 {
		t.Fatal("parity did not clearly reduce loss probability")
	}
	if res.Metrics["rollback_hazard"] != 1 || res.Metrics["rollback_fix"] != 1 {
		t.Fatal("rollback consistency demo failed")
	}
	if res.Metrics["parity_rebuild_s"] <= 0 || res.Metrics["mirror_rebuild_s"] <= 0 {
		t.Fatal("rebuild scenarios reported no time")
	}
}

func TestE9CopyBeatsAlternateEventually(t *testing.T) {
	res := runOK(t, "e9")
	// One pass: alternate view avoids the copy, so it should not lose
	// catastrophically; four passes: the converted file must win.
	if res.Metrics["copy_four_s"] >= res.Metrics["alt_four_s"] {
		t.Fatalf("after 4 passes copy-convert %v !< alternate %v",
			res.Metrics["copy_four_s"], res.Metrics["alt_four_s"])
	}
}

func TestE10BoundaryTradeoff(t *testing.T) {
	res := runOK(t, "e10")
	if res.Metrics["overhead_h8"] <= res.Metrics["overhead_h1"] {
		t.Fatal("bigger halo should cost more file overhead")
	}
	// Multi-pass: caching avoids rereading halos, replication rereads
	// them every pass — cache must win by pass 4 for the large halo.
	if res.Metrics["cache_four_h8_s"] >= res.Metrics["rep_four_h8_s"] {
		t.Fatalf("4 passes, halo 8: cache %v !< replicate %v",
			res.Metrics["cache_four_h8_s"], res.Metrics["rep_four_h8_s"])
	}
}

func TestE11FileCountsAndOverhead(t *testing.T) {
	res := runOK(t, "e11")
	if res.Metrics["files_p64_f4"] != 256 {
		t.Fatalf("64 procs x 4 files = %v, want 256", res.Metrics["files_p64_f4"])
	}
	if res.Metrics["prepost_s_p4_f1"] <= 0 {
		t.Fatal("pre/post passes cost no time")
	}
}
