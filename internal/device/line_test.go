package device

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// queueBehindBusy occupies the drive with an 8-block read at block busy,
// queues one read per run in the order given a microsecond later, and
// reports the instant each queued run completed.
func queueBehindBusy(t *testing.T, cfg Config, busy int64, runs [][2]int64) []time.Duration {
	t.Helper()
	e := sim.NewEngine()
	cfg.Engine = e
	d := New(cfg)
	bs := d.Geometry().BlockSize
	e.Go("busy", func(p *sim.Proc) {
		if err := readBlocks(d, p, busy, 8, make([]byte, 8*bs)); err != nil {
			t.Error(err)
		}
	})
	done := make([]time.Duration, len(runs))
	for i, r := range runs {
		e.Go("rq", func(p *sim.Proc) {
			p.Sleep(time.Microsecond)
			if err := readBlocks(d, p, r[0], int(r[1]), make([]byte, int(r[1])*bs)); err != nil {
				t.Error(err)
			}
			done[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return done
}

// TestScanServesACylinderInArrivalOrder: the elevator takes one
// cylinder's waiting requests in the order they arrived, not in block
// order — a tie in distance goes to the request queued first.
func TestScanServesACylinderInArrivalOrder(t *testing.T) {
	bpc := int64(DefaultGeometry1989().BlocksPerCyl)
	// The busy read leaves the head on cylinder 5, travelling up; the
	// sweep finds nothing at or above it, turns, and reaches cylinder 2.
	runs := [][2]int64{{2*bpc + 30, 1}, {2*bpc + 2, 1}, {2*bpc + 50, 1}, {2*bpc + 10, 1}}
	done := queueBehindBusy(t, Config{Sched: SCAN}, 5*bpc, runs)
	if !slices.IsSorted(done) || done[0] == done[len(done)-1] {
		t.Fatalf("one cylinder's requests completed at %v: want arrival order", done)
	}
}

// TestMergeJoinsTheFirstQueued: a run that abuts two waiting requests —
// the end of one and the start of the other — joins the one queued
// first, back merge or front merge, under either discipline.
func TestMergeJoinsTheFirstQueued(t *testing.T) {
	low, high, mid := [2]int64{100, 2}, [2]int64{103, 2}, [2]int64{102, 1}
	for _, sched := range []Sched{FCFS, SCAN} {
		for _, tc := range []struct {
			name string
			runs [][2]int64
		}{
			{"low first: back merge", [][2]int64{low, high, mid}},
			{"high first: front merge", [][2]int64{high, low, mid}},
		} {
			done := queueBehindBusy(t, Config{Sched: sched, MergeQueued: true}, 0, tc.runs)
			if done[2] != done[0] || done[1] == done[0] {
				t.Errorf("%v, %s: the runs completed at %v; want the third with the first alone", sched, tc.name, done)
			}
		}
	}
}

// scanLine is the waiting line written the plain way, for
// TestLineAgainstScan: requests in arrival order, the first that an
// arrival abuts taking it, and every pick a scan of the whole line.
type scanLine struct {
	m   Model
	arm Arm
	q   []scanReq
}

type scanReq struct {
	id       int
	write    bool
	block, n int64
}

func (s *scanLine) add(id int, write bool, block, n int64) (int, bool) {
	for i := range s.q {
		r := &s.q[i]
		if s.m.MergeQueued && r.write == write && (r.block+r.n == block || block+n == r.block) {
			r.block, r.n = min(r.block, block), r.n+n
			return r.id, true
		}
	}
	s.q = append(s.q, scanReq{id, write, block, n})
	return 0, false
}

func (s *scanLine) next() (int, time.Duration) {
	best := 0
	if s.m.Sched == SCAN {
		for pass := 0; pass < 2; pass++ {
			bestDist := -1
			for i, r := range s.q {
				dist := s.m.cylinderOf(r.block) - s.arm.Cyl
				if !s.arm.Up {
					dist = -dist
				}
				if dist >= 0 && (bestDist < 0 || dist < bestDist) {
					best, bestDist = i, dist
				}
			}
			if bestDist >= 0 {
				break
			}
			s.arm.Up = !s.arm.Up
		}
	}
	r := s.q[best]
	s.q = slices.Delete(s.q, best, best+1)
	cyl := s.m.cylinderOf(r.block)
	svc := ServiceTime(s.m.Geometry, s.m.Timing, max(cyl-s.arm.Cyl, s.arm.Cyl-cyl), int(r.n)*s.m.BlockSize)
	s.arm.Cyl = cyl
	return r.id, svc
}

// TestLineAgainstScan holds the line to the plain line above over seeded
// streams of arrivals and picks that keep it from emptying for long —
// arrivals that abut, overlap and share cylinders, both disciplines,
// merging or not — pick by pick: what is served, its service time, the
// arm, and which request an arrival merged into.
func TestLineAgainstScan(t *testing.T) {
	geom := Geometry{BlockSize: 512, BlocksPerCyl: 4, Cylinders: 64}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := Model{Geometry: geom, Timing: DefaultTiming1989(), Sched: Sched(seed % 2), MergeQueued: seed%4 >= 2}
		arm := Arm{Cyl: rng.Intn(geom.Cylinders), Up: rng.Intn(2) == 0}
		var l Line[int]
		l.Reset(m)
		l.Arm = arm
		ref := scanLine{m: m, arm: arm}
		for id := 1; id <= 3000; {
			if n := l.Len(); n < 3 || n < 40 && rng.Intn(3) > 0 {
				write, n := rng.Intn(4) == 0, int64(1+rng.Intn(3))
				block := rng.Int63n(geom.Blocks() - n)
				into, merged := l.Add(write, block, n, id)
				rinto, rmerged := ref.add(id, write, block, n)
				if into != rinto || merged != rmerged {
					t.Fatalf("seed %d, arrival %d: joined %d (%v), want %d (%v)", seed, id, into, merged, rinto, rmerged)
				}
				id++
				continue
			}
			got, svc := l.Next()
			want, wsvc := ref.next()
			if got != want || svc != wsvc || l.Arm != ref.arm {
				t.Fatalf("seed %d (%v, merge %v): served %d for %v, arm %+v; want %d for %v, arm %+v",
					seed, m.Sched, m.MergeQueued, got, svc, l.Arm, want, wsvc, ref.arm)
			}
		}
	}
}

// TestSeekTableIsSeekTime: a line takes its seek term from its model's
// table, which seekTime fills on first use: at every distance of the 1989
// drive and of a small geometry, under the 1989 timing and one with a
// longer full stroke, the table's entry — filled, then read back — is
// seekTime's, and a request costs overhead, that seek, half a rotation
// and its transfer, through the table as through ServiceTime.
func TestSeekTableIsSeekTime(t *testing.T) {
	long := DefaultTiming1989()
	long.SeekMax = 40 * time.Millisecond
	for _, g := range []Geometry{DefaultGeometry1989(), {BlockSize: 64, BlocksPerCyl: 8, Cylinders: 64}} {
		for _, tm := range []Timing{DefaultTiming1989(), long} {
			for pass := range 2 {
				for dist := 0; dist < g.Cylinders; dist++ {
					seek := seekTime(g, tm, dist)
					if got := seeksOf(g, tm).seek(dist); got != seek {
						t.Fatalf("%d cylinders, full stroke %v, pass %d: the table seeks %d cylinders in %v, seekTime %v",
							g.Cylinders, tm.SeekMax, pass, dist, got, seek)
					}
					bytes := (dist%5 + 1) * g.BlockSize
					want := tm.Overhead + seek + tm.RotationPeriod/2 + time.Duration(float64(bytes)/tm.TransferRate*float64(time.Second))
					if got := ServiceTime(g, tm, dist, bytes); got != want {
						t.Fatalf("%d cylinders, full stroke %v: ServiceTime(%d, %d) = %v, want %v", g.Cylinders, tm.SeekMax, dist, bytes, got, want)
					}
					if got := seeksOf(g, tm).service(dist, bytes); got != want {
						t.Fatalf("%d cylinders, full stroke %v: the table prices (%d, %d) at %v, want %v", g.Cylinders, tm.SeekMax, dist, bytes, got, want)
					}
				}
			}
		}
	}
}

// TestSeekTableShared: drives of one model on different engines share
// its seek table; filled from several goroutines at once, it reads what
// seekTime computes (a data race here is a -race failure).
func TestSeekTableShared(t *testing.T) {
	g, tm := Geometry{BlockSize: 64, BlocksPerCyl: 4, Cylinders: 97}, DefaultTiming1989()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * g.Cylinders {
				dist := (i*7 + w*13) % g.Cylinders
				if got, want := seeksOf(g, tm).service(dist, 0), ServiceTime(g, tm, dist, 0); got != want {
					t.Errorf("goroutine %d: the table prices %d cylinders at %v, want %v", w, dist, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
