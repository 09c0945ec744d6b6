package collective

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
)

// buildPlan validates reqs and partitions them logically, fresh: the plan
// a fixed two-phase call runs.
func buildPlan(group *pfs.FileGroup, reqs [][]VecReq, bufs [][]byte, naggs int, write bool, opts Options) (*plan, error) {
	return buildPlanIn(new(planScratch), group, reqs, bufs, naggs, write, opts)
}

// buildPlanIn is buildPlan on scratch sc, which keeps the partition's
// share table.
func buildPlanIn(sc *planScratch, group *pfs.FileGroup, reqs [][]VecReq, bufs [][]byte, naggs int, write bool, opts Options) (*plan, error) {
	pl := new(plan)
	if err := newPlan(pl, group, reqs, bufs, naggs, write, sc); err != nil {
		return nil, err
	}
	pl.partition(sc.union, opts, nil, 1, 0, sc)
	return pl, nil
}

// alignedPlan re-keys pl by physical address into a fresh plan
// (plan.aligned), through the identity Set a handle on pl's group makes.
func alignedPlan(pl *plan, opts Options, split int, rmp ramp, sc *planScratch) *plan {
	al := new(plan)
	pl.aligned(al, (&Collective{group: pl.group}).physSet(), opts, split, rmp, sc)
	return al
}

// planFixture builds a 2-file group (8 + 4 fs blocks) over 2 untimed
// devices.
func planFixture(t testing.TB) *pfs.FileGroup {
	t.Helper()
	disks := make([]*device.Disk, 2)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 64},
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	vol := pfs.NewVolume(store)
	for _, f := range []struct {
		name string
		recs int64
	}{{"a", 8}, {"b", 4}} {
		if _, err := vol.Create(pfs.Spec{
			Name: f.name, Org: pfs.OrgSequential, RecordSize: 64, NumRecords: f.recs,
		}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := vol.OpenGroup("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlanFootprintAndDomains(t *testing.T) {
	g := planFixture(t)
	bs := int64(64)
	// Rank 0: file a blocks [0,2) and [4,6); rank 1: file a [2,4) and
	// file b [1,3). Union: a[0,6) plus b[1,3) = global [0,6) and [9,11),
	// 8 covered blocks with a 3-block hole.
	reqs := [][]VecReq{
		{{File: 0, Vec: blockio.Vec{{Block: 0, N: 2, BufOff: 0}, {Block: 4, N: 2, BufOff: 2 * bs}}}},
		{{File: 0, Vec: blockio.Vec{{Block: 2, N: 2, BufOff: 0}}}, {File: 1, Vec: blockio.Vec{{Block: 1, N: 2, BufOff: 2 * bs}}}},
	}
	bufs := [][]byte{make([]byte, 4*bs), make([]byte, 4*bs)}
	pl, err := buildPlan(g, reqs, bufs, 3, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.covered) != 2 || pl.covered[0] != (span{gb: 0, n: 6}) || pl.covered[1] != (span{gb: 9, n: 2}) {
		t.Fatalf("covered = %+v", pl.covered)
	}
	if pl.total != 8 || pl.domBlocks != 3 {
		t.Fatalf("total %d domBlocks %d", pl.total, pl.domBlocks)
	}
	// Domains: [0,3), [3,6), [6,8) — the last ragged.
	for a, want := range [][2]int64{{0, 3}, {3, 6}, {6, 8}} {
		lo, hi := pl.domain(a)
		if lo != want[0] || hi != want[1] {
			t.Fatalf("domain %d = [%d,%d), want %v", a, lo, hi, want)
		}
	}
	if ci := pl.coveredIndex(9); ci != 6 {
		t.Fatalf("coveredIndex(9) = %d, want 6 (hole skipped)", ci)
	}
	// Rank 0 ∩ domain 1 = covered [3,6) ∩ rank-0 segs {[0,2),[4,6)}:
	// blocks 4,5 are covered indexes 4,5 → one 2-block clip at domOff bs.
	var clips []clip
	pl.forEachClip(0, 1, func(c clip) { clips = append(clips, c) })
	if len(clips) != 1 || clips[0] != (clip{n: 2, bufOff: 2 * bs, domOff: 1 * bs}) {
		t.Fatalf("clips(0,1) = %+v", clips)
	}
	// Domain 2 spans the hole: covered [6,8) = global [9,11) — one span.
	var spans [][3]int64
	lo, hi := pl.domain(2)
	pl.forEachSpanWin(lo, hi, func(gb, n, off int64) { spans = append(spans, [3]int64{gb, n, off}) })
	if len(spans) != 1 || spans[0] != [3]int64{9, 2, 0} {
		t.Fatalf("domain 2 spans = %v", spans)
	}
	// Domain 0 covers global [0,3) entirely within file a.
	spans = nil
	lo, hi = pl.domain(0)
	pl.forEachSpanWin(lo, hi, func(gb, n, off int64) { spans = append(spans, [3]int64{gb, n, off}) })
	if len(spans) != 1 || spans[0] != [3]int64{0, 3, 0} {
		t.Fatalf("domain 0 spans = %v", spans)
	}
}

// slabReqs builds one rank request covering global blocks [lo, hi) of
// file 0 with buffer offset 0 (planFixture's file a is 8 blocks).
func slabReqs(lo, hi int64) []VecReq {
	return []VecReq{{File: 0, Vec: blockio.Vec{{Block: lo, N: hi - lo, BufOff: 0}}}}
}

func TestPlanLocalityAssignment(t *testing.T) {
	g := planFixture(t)
	bs := int64(64)
	mkBufs := func(reqs [][]VecReq) [][]byte {
		bufs := make([][]byte, len(reqs))
		for i := range bufs {
			bufs[i] = make([]byte, 8*bs)
		}
		return bufs
	}

	t.Run("default is round-robin", func(t *testing.T) {
		reqs := [][]VecReq{slabReqs(6, 8), slabReqs(3, 6), slabReqs(0, 3)}
		pl, err := buildPlan(g, reqs, mkBufs(reqs), 3, true, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for a, r := range pl.owner {
			if r != a {
				t.Fatalf("default owner[%d] = %d, want %d", a, r, a)
			}
		}
	})

	t.Run("majority owner wins", func(t *testing.T) {
		// Reversed slabs: domain 0 = blocks [0,3) written by rank 2 (2
		// blocks) and rank 1 (1 block); domain 1 all rank 1; domain 2 all
		// rank 0.
		reqs := [][]VecReq{slabReqs(6, 8), slabReqs(2, 6), slabReqs(0, 2)}
		sc := new(planScratch)
		pl, err := buildPlanIn(sc, g, reqs, mkBufs(reqs), 3, true, Options{Locality: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{2, 1, 0}; pl.owner[0] != want[0] || pl.owner[1] != want[1] || pl.owner[2] != want[2] {
			t.Fatalf("locality owners = %v, want %v", pl.owner, want)
		}
		st := pl.exchangeStats(sc.shares)
		// Only rank 1's block 2 lands in a domain (0) it does not own.
		if st.BytesMoved != 1*bs || st.BytesLocal != 7*bs {
			t.Fatalf("stats = %+v, want 1 block moved, 7 local", st)
		}
	})

	t.Run("tie goes to the lower rank", func(t *testing.T) {
		// One 4-block domain, ranks 1 and 2 own two blocks each.
		reqs := [][]VecReq{nil, slabReqs(0, 2), slabReqs(2, 4)}
		pl, err := buildPlan(g, reqs, mkBufs(reqs), 1, true, Options{Locality: true})
		if err != nil {
			t.Fatal(err)
		}
		if pl.owner[0] != 1 {
			t.Fatalf("tied domain owner = %d, want rank 1", pl.owner[0])
		}
	})

	t.Run("ties spread over the least-loaded ranks", func(t *testing.T) {
		// Four 2-block domains, every one split evenly between ranks 0
		// (even blocks) and 1 (odd blocks): each tie goes to the tied rank
		// with the fewest domains so far, the lower rank when that ties
		// too — not to rank 0 four times.
		var even, odd blockio.Vec
		for b := int64(0); b < 8; b += 2 {
			even = append(even, blockio.VecSeg{Block: b, N: 1, BufOff: b / 2 * bs})
			odd = append(odd, blockio.VecSeg{Block: b + 1, N: 1, BufOff: b / 2 * bs})
		}
		reqs := [][]VecReq{{{File: 0, Vec: even}}, {{File: 0, Vec: odd}}, nil, nil}
		pl, err := buildPlan(g, reqs, mkBufs(reqs), 4, true, Options{Locality: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 0, 1}; fmt.Sprint(pl.owner) != fmt.Sprint(want) {
			t.Fatalf("tied owners = %v, want %v", pl.owner, want)
		}
	})

	t.Run("empty domains keep round-robin ranks", func(t *testing.T) {
		// 2 covered blocks over 3 domains of 1: the third domain is empty.
		reqs := [][]VecReq{slabReqs(0, 2), nil, nil}
		pl, err := buildPlan(g, reqs, mkBufs(reqs), 3, true, Options{Locality: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 0, 2}; pl.owner[0] != want[0] || pl.owner[1] != want[1] || pl.owner[2] != want[2] {
			t.Fatalf("owners = %v, want %v", pl.owner, want)
		}
	})
}

// TestPlanAlignedDomains re-keys one plan by physical address at three
// aggregator counts over planFixture's two drives: as many domains as
// drives (one drive each), fewer (one domain holding both whole drives)
// and more (the surplus domain empty). Whatever the count, the footprint
// is the same blocks, every domain lies on its own drives, and the
// shares, clips and spans agree (checkPlanInvariants, the fuzz targets'
// checker).
func TestPlanAlignedDomains(t *testing.T) {
	g := planFixture(t)
	bs := int64(64)
	// Rank 0 all of file a, rank 1 all of file b: 12 blocks, 6 a drive.
	reqs := [][]VecReq{
		{{File: 0, Vec: blockio.Vec{{Block: 0, N: 8}}}},
		{{File: 1, Vec: blockio.Vec{{Block: 0, N: 4}}}},
		nil,
	}
	bufs := [][]byte{make([]byte, 8*bs), make([]byte, 4*bs), nil}
	for _, tc := range []struct {
		naggs int
		want  []int64 // domain table
	}{
		{2, []int64{0, 6, 12}},
		{1, []int64{0, 12}},
		{3, []int64{0, 6, 12, 12}},
	} {
		t.Run(fmt.Sprintf("naggs=%d", tc.naggs), func(t *testing.T) {
			opts := Options{Locality: true, ChunkBytes: 1 << 20}
			sc := new(planScratch)
			pl, err := buildPlanIn(sc, g, reqs, bufs, tc.naggs, true, opts)
			if err != nil {
				t.Fatal(err)
			}
			al := alignedPlan(pl, opts, 2, 0, sc)
			if al.phys == nil || al.total != pl.total {
				t.Fatalf("aligned plan covers %d blocks (phys %v), logical %d", al.total, al.phys != nil, pl.total)
			}
			if fmt.Sprint(al.domLo) != fmt.Sprint(tc.want) {
				t.Fatalf("domain table = %v, want %v", al.domLo, tc.want)
			}
			// The largest domain fits ChunkBytes, so split 2 halves it.
			if want := []int64{(al.domBlocks + 1) / 2, al.domBlocks}; fmt.Sprint(al.ends) != fmt.Sprint(want) {
				t.Fatalf("round table %v, want %v", al.ends, want)
			}
			checkPlanInvariants(t, al, sc.shares, reqs, opts)
			checkChunkInvariants(t, al, opts.ChunkBytes, 2, 0)
		})
	}
}

// TestRoundEnds pins the round tables: the equal cut's chunks of the
// ceiling cut in split, the last ragged; the write's ramp growing with
// the round, the read's shrinking, at least a block each; and no ramp
// where a chunk would pass the ceiling or there is one round.
func TestRoundEnds(t *testing.T) {
	for _, tc := range []struct {
		dom, ceil int64
		split     int
		r         ramp
		want      string
	}{
		{128, 128, 8, 0, "[16 32 48 64 80 96 112 128]"},
		{128, 128, 8, rampUp, "[3 10 21 35 53 74 99 128]"}, // chunks 3 7 11 14 18 21 25 29
		{128, 128, 8, rampDown, "[28 53 74 92 106 117 124 128]"},
		{100, 32, 1, 0, "[32 64 96 100]"},
		{100, 32, 1, rampUp, "[]"},   // a chunk of 40 passes the ceiling
		{5, 5, 4, rampUp, "[1 2 5]"}, // three rounds of a 2-block cut: chunks 1 1 3
		{8, 8, 1, rampUp, "[]"},      // one round
	} {
		if got := fmt.Sprint(roundEnds(nil, tc.dom, tc.ceil, tc.split, tc.r)); got != tc.want {
			t.Errorf("roundEnds(%d blocks, ceiling %d, split %d, ramp %d) = %s, want %s", tc.dom, tc.ceil, tc.split, tc.r, got, tc.want)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	g := planFixture(t)
	bs := int64(64)
	buf := make([]byte, 8*bs)
	cases := []struct {
		name  string
		reqs  [][]VecReq
		write bool
		want  string
	}{
		{"bad file", [][]VecReq{{{File: 7, Vec: blockio.Vec{{N: 1}}}}}, true, "file 7"},
		{"beyond file", [][]VecReq{{{File: 1, Vec: blockio.Vec{{Block: 3, N: 2}}}}}, true, "blocks [3,5)"},
		{"misaligned buffer", [][]VecReq{{{File: 0, Vec: blockio.Vec{{Block: 0, N: 1, BufOff: 13}}}}}, true, "not aligned"},
		{"buffer overflow", [][]VecReq{{{File: 0, Vec: blockio.Vec{{Block: 0, N: 8, BufOff: bs}}}}}, true, "exceed"},
		{"rank self overlap", [][]VecReq{{
			{File: 0, Vec: blockio.Vec{{Block: 0, N: 4, BufOff: 0}}},
			{File: 0, Vec: blockio.Vec{{Block: 3, N: 2, BufOff: 4 * bs}}},
		}}, true, "overlap at global block"},
		{"rank buffer overlap", [][]VecReq{{
			{File: 0, Vec: blockio.Vec{{Block: 0, N: 2, BufOff: 0}}},
			{File: 0, Vec: blockio.Vec{{Block: 4, N: 2, BufOff: bs}}},
		}}, true, "overlap in the buffer"},
		{"cross-rank write overlap", [][]VecReq{
			{{File: 0, Vec: blockio.Vec{{Block: 0, N: 4, BufOff: 0}}}},
			{{File: 0, Vec: blockio.Vec{{Block: 2, N: 2, BufOff: 0}}}},
		}, true, "write overlapping"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bufs := make([][]byte, len(tc.reqs))
			for i := range bufs {
				bufs[i] = buf
			}
			_, err := buildPlan(g, tc.reqs, bufs, 2, tc.write, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("buildPlan = %v, want error containing %q", err, tc.want)
			}
		})
	}
	// The same cross-rank overlap is legal for reads.
	reqs := [][]VecReq{
		{{File: 0, Vec: blockio.Vec{{Block: 0, N: 4, BufOff: 0}}}},
		{{File: 0, Vec: blockio.Vec{{Block: 2, N: 2, BufOff: 0}}}},
	}
	pl, err := buildPlan(g, reqs, [][]byte{buf, buf}, 2, false, Options{})
	if err != nil {
		t.Fatalf("read overlap rejected: %v", err)
	}
	if pl.total != 4 {
		t.Fatalf("read overlap footprint = %d blocks, want 4", pl.total)
	}
}

func TestPlanEmptyFootprint(t *testing.T) {
	g := planFixture(t)
	pl, err := buildPlan(g, [][]VecReq{nil, nil}, [][]byte{nil, nil}, 2, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.total != 0 {
		t.Fatalf("empty footprint total = %d", pl.total)
	}
	for a := 0; a < 2; a++ {
		if lo, hi := pl.domain(a); lo != hi {
			t.Fatalf("empty plan domain %d = [%d,%d)", a, lo, hi)
		}
	}
}

// forEachClip enumerates rank's segments clipped to aggregator agg's
// whole domain.
func (pl *plan) forEachClip(rank, agg int, fn func(c clip)) {
	lo, hi := pl.domain(agg)
	pl.forEachClipWin(rank, lo, hi, fn)
}

// clipBytes reports the exchange payload size between rank and agg by
// enumerating clips — the reference implementation of shares[rank][agg],
// the fuzz target's independent cross-check.
func (pl *plan) clipBytes(rank, agg int) int64 {
	lo, hi := pl.domain(agg)
	return pl.winBytes(rank, lo, hi)
}

// coveredIndex maps a covered key to its dense covered index. gb must
// lie in the footprint (every segment's first key does).
func (pl *plan) coveredIndex(gb int64) int64 {
	i := sort.Search(len(pl.covered), func(i int) bool { return pl.covered[i].gb+pl.covered[i].n > gb })
	return pl.cbase[i] + gb - pl.covered[i].gb
}

// TestUnionOrder: the union is ordered without a comparison sort — the
// rank-major list where it is in key order, else a radix pass on the key
// and a sort of each run of equal keys — into the same total order a
// comparison sort by key, buffer offset and rank gives: on lists whose
// ranks ascend with their footprints, on lists whose neighbouring ranks
// share a block at their own buffer offsets, and on seeded lists spanning
// keys of several radix digits.
func TestUnionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sc planScratch
	for trial := range 200 {
		nranks := 1 + rng.Intn(12)
		span := int64(1) << (4 + rng.Intn(30))
		segs := make([][]rseg, nranks)
		for r := range segs {
			for i := rng.Intn(6); i > 0; i-- {
				gb := rng.Int63n(span)
				switch trial % 3 {
				case 0:
					gb = int64(r)*span + rng.Int63n(span) // ranks ascend with their footprints
				case 1:
					gb = int64(r) / 2 // neighbours share a block, at their own offsets
				}
				segs[r] = append(segs[r], rseg{gb: gb, n: 1 + rng.Int63n(3), bufOff: rng.Int63n(4) * 4096})
			}
			slices.SortFunc(segs[r], byKey)
		}
		var want []owned
		for r, ss := range segs {
			for _, sg := range ss {
				want = append(want, owned{rseg: sg, rank: int32(r), idx: int32(len(want))})
			}
		}
		slices.SortStableFunc(want, func(x, y owned) int { return cmp.Or(byKey(x.rseg, y.rseg), cmp.Compare(x.rank, y.rank)) })
		if got := sc.sortedSegs(segs); !slices.Equal(got, want) {
			t.Fatalf("trial %d: the union is ordered\n%v\nwant\n%v", trial, got, want)
		}
	}
}
