package blockio

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/sim"
)

// TestDryIssueIsWhatTheDriveCharges: a dry issue prices the requests
// that continue a sequential run — what a deeper pipeline pays a drive
// for every round — with the drive's own service-time model and the
// cylinders the head really crosses, so it must equal, to the
// nanosecond, what a drive then charges for them: a process writes a run
// in equal requests, and the busy time the drive books for all but the
// first is the dry price of the same requests from where the first left
// the head — for requests shorter than a cylinder, longer than one, and
// runs that start in the middle of one.
func TestDryIssueIsWhatTheDriveCharges(t *testing.T) {
	for _, tc := range []struct{ first, blocks, n int64 }{
		{0, 16, 7},    // eight rounds of a 128-block domain: one crossing
		{0, 64, 1},    // two rounds: the second starts one cylinder on
		{40, 16, 7},   // mid-cylinder start: two crossings
		{3, 1, 200},   // single blocks
		{10, 100, 5},  // more than a cylinder a request
		{64, 128, 3},  // whole cylinders
		{5000, 32, 9}, // far out on the platter: distance, not position, is charged
	} {
		e := sim.NewEngine()
		d := device.New(device.Config{Engine: e})
		store, err := NewDirect([]*device.Disk{d})
		if err != nil {
			t.Fatal(err)
		}
		bs := int64(d.Geometry().BlockSize)
		var rest, want time.Duration
		e.Go("writer", func(p *sim.Proc) {
			buf := make([]byte, tc.blocks*bs)
			for j := int64(0); j <= tc.n; j++ {
				if j == 1 {
					rest = -d.Stats().BusyTime
					var dry Dry
					dry.Sync(store, true)
					for k := int64(1); k <= tc.n; k++ {
						dry.Vectored([]Run{{Dev: 0, PBlock: tc.first + k*tc.blocks, N: tc.blocks}})
						want += dry.Flush()
					}
				}
				if err := d.WriteBlocksVec(p, tc.first+j*tc.blocks, int(tc.blocks), [][]byte{buf}); err != nil {
					t.Error(err)
				}
			}
			rest += d.Stats().BusyTime
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if rest != want {
			t.Errorf("%d requests of %d blocks continuing from block %d: the drive charged %v, the dry issue prices %v",
				tc.n, tc.blocks, tc.first, rest, want)
		}
	}
}

// TestDryMixedDrives: every drive is priced by its own model. On a plain
// array whose drives 1 and 2 are twice as fast as drive 0, the dry price
// of a vectored read across the three is what the read takes, to the
// nanosecond — and AtLeast is a lower bound on the fast drives too.
func TestDryMixedDrives(t *testing.T) {
	e := sim.NewEngine()
	slow := device.DefaultTiming1989()
	fast := slow
	fast.SeekMin, fast.SeekMax, fast.RotationPeriod, fast.Overhead = slow.SeekMin/2, slow.SeekMax/2, slow.RotationPeriod/2, slow.Overhead/2
	fast.TransferRate *= 2
	disks := []*device.Disk{
		device.New(device.Config{Name: "slow", Timing: slow, Engine: e}),
		device.New(device.Config{Name: "fast1", Timing: fast, Engine: e}),
		device.New(device.Config{Name: "fast2", Timing: fast, Engine: e}),
	}
	store, err := NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	runs := []Run{{Dev: 0, PBlock: 0, N: 1}, {Dev: 1, PBlock: 64, N: 4}, {Dev: 1, PBlock: 9000, N: 4}, {Dev: 2, PBlock: 20000, N: 8}}
	var dry Dry
	dry.Sync(store, false)
	dry.Vectored(runs)
	price := dry.Flush()
	bs := disks[0].Geometry().BlockSize
	bound := make([]Bound, len(runs))
	for i, r := range runs {
		bound[i] = Bound{Dev: r.Dev, PBlock: r.PBlock, N: int(r.N), Iov: [][]byte{make([]byte, int(r.N)*bs)}}
	}
	e.Go("reader", func(p *sim.Proc) {
		if err := store.Transfer(p, false, bound); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("priced %v, took %v", price, e.Now())
	if price != e.Now() {
		t.Errorf("a vectored read over a slow and two fast drives: dry price %v, the read took %v", price, e.Now())
	}
	least, one := dry.AtLeast(1, 3), device.ServiceTime(disks[1].Geometry(), fast, 0, 3*bs)
	t.Logf("AtLeast(1, 3) = %v; one 3-block request on a fast drive takes %v", least, one)
	if least > one {
		t.Errorf("AtLeast(1, 3) = %v, above the %v a fast drive takes for one 3-block request", least, one)
	}
}

// dryWorld is one seeded machine for FuzzDryIssue: a handful of small
// drives, each of a seeded timing, under a seeded discipline; a store
// over them, plain or redundant; and a file under a seeded layout at
// seeded extent bases.
type dryWorld struct {
	e     *sim.Engine
	disks []*device.Disk
	store Store
	set   *Set
	total int64
	bs    int64
}

// The stores a dryWorld is built on: a plain array, a mirror, and a
// parity store with its parity rotating or on a dedicated drive.
const (
	worldDirect = iota
	worldMirror
	worldParity
	worldParityDedicated
)

// redundant builds package stripe's stores over disks — a mirror whose
// first half are the primaries, or a parity store — for the worlds this
// package's tests cannot import them into (stripe imports blockio); the
// external test in dry_stripe_test.go sets it (SetRedundant).
var redundant func(disks []*device.Disk, mirror, rotate bool) (Store, error)

// SetRedundant sets redundant.
func SetRedundant(f func(disks []*device.Disk, mirror, rotate bool) (Store, error)) { redundant = f }

// drawTiming is a seeded drive timing: the 1989 drive's with its seeks,
// rotation, overhead and transfer rate each scaled by ½, 1, 1½ or 2.
func drawTiming(rng *rand.Rand) device.Timing {
	tm := device.DefaultTiming1989()
	scale := func() time.Duration { return time.Duration(1 + rng.Intn(4)) }
	s := scale()
	tm.SeekMin, tm.SeekMax = tm.SeekMin*s/2, tm.SeekMax*s/2
	tm.RotationPeriod = tm.RotationPeriod * scale() / 2
	tm.Overhead = tm.Overhead * scale() / 2
	tm.TransferRate *= float64(scale()) / 2
	return tm
}

func newDryWorld(t *testing.T, rng *rand.Rand, devices int, sched device.Sched, merge bool, kind int) *dryWorld {
	t.Helper()
	w := &dryWorld{e: sim.NewEngine(), bs: 64}
	geom := device.Geometry{BlockSize: int(w.bs), BlocksPerCyl: 8, Cylinders: 64}
	drives := map[int]int{worldDirect: devices, worldMirror: 2 * devices}[kind]
	if kind >= worldParity {
		drives = devices + 1
	}
	for i := 0; i < drives; i++ {
		w.disks = append(w.disks, device.New(device.Config{
			Name: fmt.Sprintf("d%d", i), Geometry: geom, Timing: drawTiming(rng), Engine: w.e, Sched: sched, MergeQueued: merge,
		}))
	}
	var err error
	if kind == worldDirect {
		w.store, err = NewDirect(w.disks)
	} else {
		w.store, err = redundant(w.disks, kind == worldMirror, kind == worldParity)
	}
	if err != nil {
		t.Fatal(err)
	}
	w.total = int64(40 + rng.Intn(160))
	var l Layout
	switch rng.Intn(3) {
	case 0:
		l = NewStriped(devices, int64(1+rng.Intn(5)))
	case 1:
		parts := 1 + rng.Intn(2*devices)
		sizes := make([]int64, parts)
		for b := int64(0); b < w.total; b++ {
			sizes[rng.Intn(parts)]++
		}
		l, err = NewPartitioned(devices, sizes, int64(1+rng.Intn(3)), Pack(rng.Intn(2)))
	default:
		l, err = NewInterleaved(devices, 1+rng.Intn(2*devices), int64(1+rng.Intn(3)), w.total, Pack(rng.Intn(2)))
	}
	if err != nil {
		t.Fatal(err)
	}
	base := make([]int64, l.Devices())
	for dev, need := range PerDevice(l, w.total) {
		base[dev] = rng.Int63n(geom.Blocks() - need + 1)
	}
	if w.set, err = NewSet(w.store, l, base, w.total); err != nil {
		t.Fatal(err)
	}
	return w
}

// vec draws a descriptor over the logical blocks [lo, hi): disjoint
// segments in ascending block order, landing in the buffer in a seeded
// order. It may be empty.
func (w *dryWorld) vec(rng *rand.Rand, lo, hi int64) (Vec, int64) {
	var vec Vec
	for b := lo + rng.Int63n(4); b < hi; {
		n := min(1+rng.Int63n(5), hi-b)
		vec = append(vec, VecSeg{Block: b, N: n})
		b += n + rng.Int63n(7)
	}
	var off int64
	for _, i := range rng.Perm(len(vec)) {
		vec[i].BufOff = off
		off += vec[i].N * w.bs
	}
	return vec, off
}

// park leaves every head at a seeded cylinder, the elevators travelling
// a seeded way.
func (w *dryWorld) park(p *sim.Proc, rng *rand.Rand, t *testing.T) {
	buf := make([]byte, w.bs)
	for _, d := range w.disks {
		for k := rng.Intn(3); k >= 0; k-- {
			if err := d.ReadBlocksVec(p, rng.Int63n(d.Geometry().Blocks()), 1, [][]byte{buf}); err != nil {
				t.Error(err)
			}
		}
	}
}

// issueOne prices, then issues, one process's seeded descriptors on w —
// vectored and sieved, read and write, each from seeded head positions —
// and hands check each price and what its issue took.
func (w *dryWorld) issueOne(t *testing.T, rng *rand.Rand, check func(strat Strategy, write bool, price, took time.Duration)) {
	w.e.Go("one", func(p *sim.Proc) {
		var dry Dry
		for _, tc := range []struct {
			strat Strategy
			write bool
		}{{StrategyVectored, false}, {StrategyVectored, true}, {StrategySieved, false}, {StrategySieved, true}} {
			vec, size := w.vec(rng, 0, w.total)
			m, _, _, err := w.set.Map(vec, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			w.park(p, rng, t)
			dry.Sync(w.store, tc.write)
			if tc.strat == StrategySieved {
				dry.Sieved(m.Runs())
			} else {
				dry.Vectored(m.Runs())
			}
			price := dry.Flush()
			buf, t0 := make([]byte, size), p.Now()
			if err := m.Transfer(p, tc.write, tc.strat, buf); err != nil {
				t.Fatal(err)
			}
			check(tc.strat, tc.write, price, p.Now()-t0)
		}
	})
	if err := w.e.Run(); err != nil {
		t.Fatal(err)
	}
}

// FuzzDryIssue holds the dry issue to the live one. For a seeded layout
// (striped, partitioned, interleaved), descriptor, head position and
// timing of every drive, one process on idle drives: the dry price of
// the vectored and of the sieved execution, read and write, equals the
// modeled time of issuing it to the nanosecond, under either discipline,
// merging or not. On a mirror too, but for a sieved write, whose shadow
// waits live for the primary's covering read (dry.go): priced no higher
// than it takes. On a parity store, rotating or not, reads are exact, and
// writes priced no higher than they take — their row locks and the
// small write's barrier are not priced. And k processes on a few drives,
// each issuing its own descriptor at the same instant —
// disjoint slices of the file, or overlapping ones: exact again — the
// order the requests reach the drives in is known, and the dry walk
// replays it through the drive's own waiting line. And where a walk
// serves a drive's arrivals in the order they came, without the replay
// (non-merging, cylinder-ascending arrivals, from parked and carried-over
// arms), it equals the replay to the nanosecond under either discipline.
func FuzzDryIssue(f *testing.F) {
	for seed := uint64(1); seed <= 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		sched, merge := device.Sched(rng.Intn(2)), rng.Intn(2) == 1

		for kind, name := range []string{"plain array", "mirror", "rotating parity store", "dedicated parity store"} {
			w := newDryWorld(t, rng, 1+rng.Intn(4), sched, merge, kind)
			w.issueOne(t, rng, func(strat Strategy, write bool, price, took time.Duration) {
				bound := write && (kind >= worldParity || kind == worldMirror && strat == StrategySieved)
				if price != took && (!bound || price > took) {
					t.Errorf("seed %d, %s, %v write=%v on %s (%v, merge %v): dry price %v, the issue took %v",
						seed, name, strat, write, w.set.Layout().Name(), sched, merge, price, took)
				}
			})
		}

		many := newDryWorld(t, rng, 1+rng.Intn(3), sched, merge, worldDirect)
		k := 2 + rng.Intn(4)
		overlap := rng.Intn(2) == 1
		strat, write := Strategy(StrategyVectored+Strategy(rng.Intn(2))), rng.Intn(2) == 1
		maps := make([]Mapped, k)
		bufs := make([][]byte, k)
		var dry Dry
		dry.Sync(many.store, write)
		for i := range maps {
			// Each process asks for its own slice of the file, or for
			// any of it: then requests of several processes abut, and
			// one may abut two waiting requests.
			lo, hi := many.total*int64(i)/int64(k), many.total*int64(i+1)/int64(k)
			if overlap {
				lo, hi = 0, many.total
			}
			vec, size := many.vec(rng, lo, hi)
			var err error
			if maps[i], _, _, err = many.set.Map(vec, nil, nil); err != nil {
				t.Fatal(err)
			}
			bufs[i] = make([]byte, size)
			if strat == StrategySieved {
				dry.Sieved(maps[i].Runs())
			} else {
				dry.Vectored(maps[i].Runs())
			}
		}
		price := dry.Flush()
		for i := range maps {
			many.e.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				if err := maps[i].Transfer(p, write, strat, bufs[i]); err != nil {
					t.Error(err)
				}
			})
		}
		if err := many.e.Run(); err != nil {
			t.Fatal(err)
		}
		if took := many.e.Now(); price != took {
			t.Errorf("seed %d, %d processes, %v write=%v on %s (%v, merge %v): dry price %v, the issues took %v",
				seed, k, strat, write, many.set.Layout().Name(), sched, merge, price, took)
		}

		// Arrivals whose cylinders never fall, on drives that merge
		// nothing: served in arrival order from an arm travelling up, or
		// under FCFS (device.Line.InOrder), they must cost what the
		// replay through the line charges — from parked arms, and from
		// arms a walk of seeded arrivals left, travelling either way.
		// The replay keeps arms of its own from walk to walk, so that an
		// arm the in-order path left elsewhere, or travelling the other
		// way, shows in the walks after.
		ord := newDryWorld(t, rng, 1+rng.Intn(3), sched, false, worldDirect)
		var od Dry
		od.Park(ord.store, false)
		arms := make([]device.Arm, len(od.drv))
		for walk := 0; walk < 6; walk++ {
			if walk == 0 || rng.Intn(4) == 0 {
				od.Park(ord.store, false)
				for dev := range arms {
					arms[dev] = device.Arm{Cyl: -1, Up: true}
				}
			}
			ascending := walk%2 == 1 || rng.Intn(2) == 0
			for dev := range od.drv {
				blocks := ord.disks[dev].Geometry().Blocks()
				pbs := make([]int64, rng.Intn(12))
				for i := range pbs {
					pbs[i] = rng.Int63n(blocks - 4)
				}
				if ascending {
					slices.Sort(pbs)
				}
				for _, pb := range pbs {
					od.Vectored([]Run{{Dev: dev, PBlock: pb, N: 1 + rng.Int63n(4)}})
				}
			}
			want := replayDry(&od, arms)
			if price := od.Flush(); price != want {
				t.Errorf("seed %d, walk %d (%v, ascending %v): served in order %v, the replay through the line %v",
					seed, walk, sched, ascending, price, want)
			}
		}
	})
}

// replayDry is what d's queued requests cost served from the arms given,
// every drive's first straight into service and the others through
// Add and Next — the replay Flush leaves out where they arrive in order.
// It leaves each arm where the replay put it.
func replayDry(d *Dry, arms []device.Arm) time.Duration {
	var l device.Line[struct{}]
	var slowest time.Duration
	for dev := range d.drv {
		q := d.drv[dev].first
		if len(q) == 0 {
			continue
		}
		m := d.store.Drives()[dev].Model()
		m.MergeQueued = false
		l.Reset(m)
		l.Arm = arms[dev]
		busy := l.Serve(q[0].pb, q[0].n)
		for _, r := range q[1:] {
			l.Add(false, r.pb, r.n, struct{}{})
		}
		for l.Len() > 0 {
			_, svc := l.Next()
			busy += svc
		}
		arms[dev] = l.Arm
		slowest = max(slowest, busy)
	}
	return slowest
}

// flushShape is the vectored candidate of one ckpt_fresh call as a dry
// issue sees it: 512 ranks, each sending 8 one-block runs to seeded
// places on 32 SCAN drives, 128 requests a drive, priced parked.
func flushShape(t testing.TB) (*Dry, [][]Run) {
	const ranks, each, drives = 512, 8, 32
	disks := make([]*device.Disk, drives)
	for i := range disks {
		disks[i] = device.New(device.Config{Sched: device.SCAN, MergeQueued: true})
	}
	store, err := NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	slots := rng.Perm(ranks * each)
	runs := make([][]Run, ranks)
	for r := range runs {
		for _, g := range slots[r*each : (r+1)*each] {
			runs[r] = append(runs[r], Run{Dev: g % drives, PBlock: 1000 + int64(g/drives)*4, N: 1})
		}
		slices.SortFunc(runs[r], func(a, b Run) int { return cmp.Or(a.Dev-b.Dev, int(a.PBlock-b.PBlock)) })
	}
	var dry Dry
	dry.Park(store, false)
	return &dry, runs
}

func flushAll(dry *Dry, runs [][]Run) time.Duration {
	dry.Park(dry.store, false)
	for _, r := range runs {
		dry.Vectored(r)
	}
	return dry.Flush()
}

// BenchmarkDryFlush is the host cost of pricing one ckpt_fresh vectored
// candidate: queueing 4096 requests and serving 32 drives' SCAN lines.
func BenchmarkDryFlush(b *testing.B) {
	dry, runs := flushShape(b)
	b.ReportAllocs()
	for b.Loop() {
		flushAll(dry, runs)
	}
}

// TestDryFlushAllocs: once its queues and lines have grown, a dry issue
// prices a flush without allocating.
func TestDryFlushAllocs(t *testing.T) {
	dry, runs := flushShape(t)
	want := flushAll(dry, runs)
	if got := testing.AllocsPerRun(20, func() {
		if price := flushAll(dry, runs); price != want {
			t.Fatalf("the same flush priced %v, then %v", want, price)
		}
	}); got != 0 {
		t.Errorf("a warm flush allocates %v objects, want 0", got)
	}
}
