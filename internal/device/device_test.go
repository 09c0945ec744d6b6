package device

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// untimed returns a disk with no engine attached.
func untimed() *Disk {
	return New(Config{Name: "d0"})
}

// readBlocks and writeBlocks give the tests the contiguous form of the
// drive's one transfer: n blocks of buf as a one-element list.
func readBlocks(d *Disk, ctx sim.Context, b int64, n int, buf []byte) error {
	return d.ReadBlocksVec(ctx, b, n, [][]byte{buf})
}

func writeBlocks(d *Disk, ctx sim.Context, b int64, n int, buf []byte) error {
	return d.WriteBlocksVec(ctx, b, n, [][]byte{buf})
}

func TestGeometryMath(t *testing.T) {
	g := Geometry{BlockSize: 512, BlocksPerCyl: 4, Cylinders: 10}
	if g.Blocks() != 40 {
		t.Fatalf("Blocks = %d, want 40", g.Blocks())
	}
	if c := g.Blocks() * int64(g.BlockSize); c != 40*512 {
		t.Fatalf("capacity = %d", c)
	}
	if g.cylinderOf(0) != 0 || g.cylinderOf(3) != 0 || g.cylinderOf(4) != 1 || g.cylinderOf(39) != 9 {
		t.Fatal("cylinderOf mapping wrong")
	}
}

func TestReadWriteBlockRoundTrip(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	src := make([]byte, bs)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := writeBlocks(d, ctx, 5, 1, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, bs)
	if err := readBlocks(d, ctx, 5, 1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	dst := make([]byte, d.Geometry().BlockSize)
	dst[0] = 0xff
	if err := readBlocks(d, ctx, 17, 1, dst); err != nil {
		t.Fatal(err)
	}
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestBlockSizeMismatchRejected(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	if err := readBlocks(d, ctx, 0, 1, make([]byte, 3)); err == nil {
		t.Fatal("short ReadBlock accepted")
	}
	if err := writeBlocks(d, ctx, 0, 1, make([]byte, 3)); err == nil {
		t.Fatal("short WriteBlock accepted")
	}
}

func TestOutOfRange(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	buf := make([]byte, d.Geometry().BlockSize)
	if err := readBlocks(d, ctx, d.Geometry().Blocks(), 1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if err := readBlocks(d, ctx, -1, 1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative block: want ErrOutOfRange, got %v", err)
	}
	if err := readBlocks(d, ctx, d.Geometry().Blocks()-1, 2, make([]byte, 2*len(buf))); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("run past the end: want ErrOutOfRange, got %v", err)
	}
}

func TestReadWriteAtSpanningBlocks(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	bs := int64(d.Geometry().BlockSize)
	// Block 1 written whole, block 0 never: a run across their boundary
	// sees block 0's zeros, then block 1's bytes, whichever way the
	// caller's buffer is cut.
	blk := make([]byte, bs)
	src := []byte("hello, parallel files")
	copy(blk, src)
	if err := writeBlocks(d, ctx, 1, 1, blk); err != nil {
		t.Fatal(err)
	}
	want := append(make([]byte, bs), blk...)
	one := make([]byte, 2*bs)
	if err := readBlocks(d, ctx, 0, 2, one); err != nil {
		t.Fatal(err)
	}
	two := [][]byte{bytes.Repeat([]byte{0xEE}, int(bs)), make([]byte, bs)}
	if err := d.ReadBlocksVec(ctx, 0, 2, two); err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]byte{one, append(two[0], two[1]...)} {
		if !bytes.Equal(got[:bs], want[:bs]) {
			t.Fatal("unwritten block before the boundary read nonzero")
		}
		if !bytes.Equal(got[bs:], want[bs:]) {
			t.Fatalf("got %q want %q", got[bs:bs+int64(len(src))], src)
		}
	}
}

func TestFailedDeviceErrors(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	buf := make([]byte, d.Geometry().BlockSize)
	d.Fail()
	if !d.Failed() {
		t.Fatal("Failed() false after Fail()")
	}
	if err := readBlocks(d, ctx, 0, 1, buf); !errors.Is(err, ErrFailed) {
		t.Fatalf("want ErrFailed, got %v", err)
	}
	d.Repair()
	if err := readBlocks(d, ctx, 0, 1, buf); err != nil {
		t.Fatalf("after Repair: %v", err)
	}
}

func TestEraseDiscardsData(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	src := bytes.Repeat([]byte{0xab}, bs)
	if err := writeBlocks(d, ctx, 0, 1, src); err != nil {
		t.Fatal(err)
	}
	if err := d.Erase(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, bs)
	if err := readBlocks(d, ctx, 0, 1, dst); err != nil {
		t.Fatal(err)
	}
	for _, b := range dst {
		if b != 0 {
			t.Fatal("Erase left data behind")
		}
	}
}

func TestSeekTimeMonotonic(t *testing.T) {
	d := untimed()
	prev := time.Duration(0)
	for dist := 0; dist < d.Geometry().Cylinders; dist += 37 {
		s := d.seekTime(dist)
		if s < prev {
			t.Fatalf("seekTime(%d)=%v < seekTime(prev)=%v", dist, s, prev)
		}
		prev = s
	}
	if d.seekTime(0) != 0 {
		t.Fatal("zero-distance seek should be free")
	}
	if d.seekTime(1) < d.Timing().SeekMin {
		t.Fatal("single-cylinder seek below SeekMin")
	}
	if got := d.seekTime(d.Geometry().Cylinders - 1); got != d.Timing().SeekMax {
		t.Fatalf("full-stroke seek = %v, want SeekMax %v", got, d.Timing().SeekMax)
	}
}

func TestVirtualTimeSingleRequest(t *testing.T) {
	e := sim.NewEngine()
	d := New(Config{Engine: e})
	var elapsed time.Duration
	e.Go("p", func(p *sim.Proc) {
		buf := make([]byte, d.Geometry().BlockSize)
		if err := readBlocks(d, p, 0, 1, buf); err != nil {
			t.Error(err)
		}
		elapsed = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Head starts at cylinder 0, block 0 is cylinder 0: no seek.
	want := d.Timing().Overhead + d.Timing().RotationPeriod/2 +
		time.Duration(float64(d.Geometry().BlockSize)/d.Timing().TransferRate*float64(time.Second))
	if elapsed != want {
		t.Fatalf("single request took %v, want %v", elapsed, want)
	}
	if d.Stats().Seeks != 0 {
		t.Fatalf("seeks = %d, want 0", d.Stats().Seeks)
	}
}

func TestVirtualTimeQueueingSerializes(t *testing.T) {
	e := sim.NewEngine()
	d := New(Config{Engine: e})
	perReq := d.serviceTime(0, 0, d.Geometry().BlockSize)
	const workers = 4
	var latest time.Duration
	for i := 0; i < workers; i++ {
		e.Go("w", func(p *sim.Proc) {
			buf := make([]byte, d.Geometry().BlockSize)
			if err := readBlocks(d, p, 0, 1, buf); err != nil {
				t.Error(err)
			}
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(workers) * perReq; latest != want {
		t.Fatalf("4 same-cylinder requests finished at %v, want serialized %v", latest, want)
	}
	if d.Stats().QueuePeak != workers {
		t.Fatalf("queue peak %d, want %d", d.Stats().QueuePeak, workers)
	}
}

func TestVirtualTimeTwoDisksOverlap(t *testing.T) {
	e := sim.NewEngine()
	d0 := New(Config{Name: "d0", Engine: e})
	d1 := New(Config{Name: "d1", Engine: e})
	perReq := d0.serviceTime(0, 0, d0.Geometry().BlockSize)
	var end time.Duration
	for i, d := range []*Disk{d0, d1} {
		disk := d
		_ = i
		e.Go("w", func(p *sim.Proc) {
			buf := make([]byte, disk.Geometry().BlockSize)
			if err := readBlocks(disk, p, 0, 1, buf); err != nil {
				t.Error(err)
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != perReq {
		t.Fatalf("two independent disks: end %v, want parallel %v", end, perReq)
	}
}

func TestSeekChargedBetweenCylinders(t *testing.T) {
	e := sim.NewEngine()
	d := New(Config{Engine: e})
	bpc := int64(d.Geometry().BlocksPerCyl)
	var t1, t2 time.Duration
	e.Go("p", func(p *sim.Proc) {
		buf := make([]byte, d.Geometry().BlockSize)
		if err := readBlocks(d, p, 0, 1, buf); err != nil {
			t.Error(err)
		}
		t1 = p.Now()
		if err := readBlocks(d, p, 100*bpc, 1, buf); err != nil { // cylinder 100
			t.Error(err)
		}
		t2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	noSeek := d.serviceTime(0, 0, d.Geometry().BlockSize)
	if t1 != noSeek {
		t.Fatalf("first request %v, want %v", t1, noSeek)
	}
	if t2-t1 <= noSeek {
		t.Fatalf("second request with 100-cyl seek took %v, want > %v", t2-t1, noSeek)
	}
	st := d.Stats()
	if st.Seeks != 1 || st.SeekCyls != 100 {
		t.Fatalf("seek stats = %+v", st)
	}
}

func TestSCANOrdersByPosition(t *testing.T) {
	// Issue requests at cylinders 800, 100, 400 while the disk is busy;
	// SCAN (head moving up from 0) should serve 100, 400, 800.
	runOrder := func(sched Sched) []int64 {
		e := sim.NewEngine()
		d := New(Config{Engine: e, Sched: sched})
		bpc := int64(d.Geometry().BlocksPerCyl)
		var order []int64
		// A first process occupies the disk at cylinder 0.
		e.Go("hold", func(p *sim.Proc) {
			buf := make([]byte, d.Geometry().BlockSize)
			if err := readBlocks(d, p, 0, 1, buf); err != nil {
				t.Error(err)
			}
		})
		for _, cyl := range []int64{800, 100, 400} {
			c := cyl
			e.Go("w", func(p *sim.Proc) {
				p.Sleep(time.Microsecond) // enqueue while disk busy
				buf := make([]byte, d.Geometry().BlockSize)
				if err := readBlocks(d, p, c*bpc, 1, buf); err != nil {
					t.Error(err)
				}
				order = append(order, c)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	scan := runOrder(SCAN)
	want := []int64{100, 400, 800}
	for i := range want {
		if scan[i] != want[i] {
			t.Fatalf("SCAN order = %v, want %v", scan, want)
		}
	}
	fcfs := runOrder(FCFS)
	wantF := []int64{800, 100, 400}
	for i := range wantF {
		if fcfs[i] != wantF[i] {
			t.Fatalf("FCFS order = %v, want %v", fcfs, wantF)
		}
	}
}

func TestSCANReducesTotalSeekTravel(t *testing.T) {
	run := func(sched Sched) int64 {
		e := sim.NewEngine()
		d := New(Config{Engine: e, Sched: sched})
		bpc := int64(d.Geometry().BlocksPerCyl)
		e.Go("hold", func(p *sim.Proc) {
			buf := make([]byte, d.Geometry().BlockSize)
			_ = readBlocks(d, p, 0, 1, buf)
		})
		for _, cyl := range []int64{700, 50, 650, 100, 600, 150} {
			c := cyl
			e.Go("w", func(p *sim.Proc) {
				p.Sleep(time.Microsecond)
				buf := make([]byte, d.Geometry().BlockSize)
				_ = readBlocks(d, p, c*bpc, 1, buf)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return d.Stats().SeekCyls
	}
	if scan, fcfs := run(SCAN), run(FCFS); scan >= fcfs {
		t.Fatalf("SCAN travel %d should be < FCFS travel %d", scan, fcfs)
	}
}

func TestFailDuringQueuedRequests(t *testing.T) {
	e := sim.NewEngine()
	d := New(Config{Engine: e})
	errs := 0
	// One service takes ~11.5 ms with default timing. The holder
	// finishes before the 12 ms failure; the victim (queued behind the
	// holder) completes after it and must observe the failure.
	e.Go("holder", func(p *sim.Proc) {
		buf := make([]byte, d.Geometry().BlockSize)
		if err := readBlocks(d, p, 0, 1, buf); err != nil {
			t.Errorf("holder should complete before failure: %v", err)
		}
	})
	e.Go("failer", func(p *sim.Proc) {
		p.Sleep(12 * time.Millisecond)
		d.Fail()
	})
	e.Go("victim", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // enqueue while holder is in service
		buf := make([]byte, d.Geometry().BlockSize)
		if err := readBlocks(d, p, 0, 1, buf); errors.Is(err, ErrFailed) {
			errs++
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if errs != 1 {
		t.Fatalf("victim should observe ErrFailed, errs=%d", errs)
	}
}

func TestStatsAccumulation(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	buf := make([]byte, bs)
	for i := int64(0); i < 3; i++ {
		if err := writeBlocks(d, ctx, i, 1, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := readBlocks(d, ctx, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes != 3 || st.Reads != 1 {
		t.Fatalf("ops = %d writes %d reads", st.Writes, st.Reads)
	}
	if st.BytesWritten != int64(3*bs) || st.BytesRead != int64(bs) {
		t.Fatalf("bytes = %d written %d read", st.BytesWritten, st.BytesRead)
	}
	if st.Requests() != 4 || st.Bytes() != int64(4*bs) {
		t.Fatalf("totals wrong: %+v", st)
	}
	d.ResetStats()
	if d.Stats().Requests() != 0 {
		t.Fatal("ResetStats did not zero")
	}
}

func TestReadAtWriteAtQuick(t *testing.T) {
	d := untimed()
	ctx := sim.NewWall()
	bs := d.Geometry().BlockSize
	// An image of whole-block writes; any run of its blocks, scattered
	// into any cut of the caller's buffer into whole blocks, must return
	// exactly the image's bytes.
	const blocks = 8
	image := make([]byte, blocks*bs)
	for i := range image {
		image[i] = byte(i*31 + i/bs)
	}
	if err := writeBlocks(d, ctx, 0, blocks, image); err != nil {
		t.Fatal(err)
	}
	err := quick.Check(func(b8, n8, cuts uint8) bool {
		b := int(b8) % blocks
		n := 1 + int(n8)%(blocks-b)
		got := make([]byte, n*bs)
		var iov [][]byte
		for rest, k := got, 0; len(rest) > 0; k++ {
			// Bit k of cuts ends a segment after this block.
			seg := bs
			for seg < len(rest) && cuts>>(k%8)&1 == 0 {
				seg += bs
				k++
			}
			iov, rest = append(iov, rest[:seg]), rest[seg:]
		}
		if err := d.ReadBlocksVec(ctx, int64(b), n, iov); err != nil {
			return false
		}
		return bytes.Equal(got, image[b*bs:(b+n)*bs])
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSchedString(t *testing.T) {
	if FCFS.String() != "FCFS" || SCAN.String() != "SCAN" {
		t.Fatal("Sched String broken")
	}
	if Sched(9).String() == "" {
		t.Fatal("unknown sched empty")
	}
}

// TestRequestsAreRecycled: a request record goes back to its disk's free
// list when its last member has finished, on the idle path and on the
// queued one, so a steady stream of requests allocates nothing and the
// free list stays as short as the queue ever was deep.
func TestRequestsAreRecycled(t *testing.T) {
	const procs, each = 3, 400
	e := sim.NewEngine()
	d := New(Config{Engine: e, MergeQueued: true})
	var ms runtime.MemStats // out here: reading it must not allocate it
	var from, to uint64
	for i := 0; i < procs; i++ {
		first := i == 0
		base := int64(i) * 1000
		e.Go("p", func(p *sim.Proc) {
			buf := make([]byte, 2*d.Geometry().BlockSize)
			for k := int64(0); k < each; k++ {
				switch {
				case first && k == each/2: // every page exists, every process is past its first lap
					runtime.ReadMemStats(&ms)
					from = ms.Mallocs
				case first && k == each-each/4: // while the others still queue
					runtime.ReadMemStats(&ms)
					to = ms.Mallocs
				}
				// Three processes, one drive: two of them always queue.
				if err := writeBlocks(d, p, base+2*(k%100), 2, buf); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(d.free); n > procs {
		t.Errorf("%d finished requests on the free list of a disk %d processes use", n, procs)
	}
	// (The memory backend allocates a page the first time a block is
	// written: the first hundred writes of each process.)
	// It was two objects a request; a handful is the Go runtime's own.
	if got := to - from; got > 8 && !raceEnabled {
		t.Errorf("%d requests in steady state allocated %d objects", procs*each/4, got)
	}
}

// seekTime is the seek model at d's parameters, for the tests above.
func (d *Disk) seekTime(dist int) time.Duration { return seekTime(d.geom, d.Timing(), dist) }

// serviceTime is what d charges a request moving bytes from cylinder
// fromCyl to toCyl, for the tests above.
func (d *Disk) serviceTime(fromCyl, toCyl, bytes int) time.Duration {
	return ServiceTime(d.geom, d.Timing(), max(toCyl-fromCyl, fromCyl-toCyl), bytes)
}
