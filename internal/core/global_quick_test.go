package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// globalFile creates spec on v and fills it through the global writer
// with a position-dependent byte pattern, returning the reference payload.
func globalFile(t *testing.T, v *pfs.Volume, spec pfs.Spec) (*pfs.File, []byte) {
	t.Helper()
	f, err := v.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]byte, spec.NumRecords*int64(spec.RecordSize))
	for i := range ref {
		ref[i] = byte(i*7 + i>>8 + 3)
	}
	ctx := sim.NewWall()
	gw, err := OpenGlobalWriter(f, ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Write(ref); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return f, ref
}

// extentBytes is the payload of one TunedOptions extent of f, as near as
// padding allows (exact for dense framings).
func extentBytes(f *pfs.File) int64 {
	m := f.Mapper()
	perFS := int64(m.BlockRecords()*m.RecordSize()) / m.FSPerBlock()
	return max(perFS, 1) * int64(TunedOptions().ExtentBlocks)
}

// globalSpec draws a file shape: dense or padded framing; striped,
// partitioned or interleaved placement; 1 fs block, or k·32−1, k·32 or
// k·32+1 of them (k ≤ 3), the last paper-block possibly partial.
func globalSpec(rng *sim.RNG) pfs.Spec {
	spec := pfs.Spec{Name: "g"}
	switch rng.Intn(3) {
	case 0: // dense, one fs block per paper-block
		spec.RecordSize, spec.BlockRecords = 64, 4
	case 1: // dense, records straddling fs blocks
		spec.RecordSize, spec.BlockRecords = 96, 8
	default: // padded
		spec.RecordSize, spec.BlockRecords = rng.Intn(300)+1, rng.Intn(12)+1
	}
	switch rng.Intn(3) {
	case 0:
		spec.Org, spec.StripeUnitFS = pfs.OrgSequential, 1
	case 1:
		spec.Org, spec.Parts = pfs.OrgPartitioned, 3
	default:
		spec.Org, spec.Parts = pfs.OrgInterleaved, 3
	}
	fsBlocks := int64(1)
	if k := int64(rng.Intn(4)); k > 0 {
		fsBlocks = k*32 + int64(rng.Intn(3)) - 1
	}
	fsPer := (int64(spec.RecordSize*spec.BlockRecords) + 255) / 256
	blocks := max((fsBlocks+fsPer-1)/fsPer, int64(spec.Parts), 1)
	spec.NumRecords = blocks*int64(spec.BlockRecords) - int64(rng.Intn(spec.BlockRecords))
	return spec
}

// globalScript drives gr with random Reads (1 byte to three extents) and
// Seeks (forward inside the read-ahead window, backward, near the end,
// anywhere) against a bytes.Reader over ref, then ends the reader's life
// as `end` says. It reports the first disagreement.
func globalScript(ctx sim.Context, gr *GlobalReader, ref []byte, ext int64, rng *sim.RNG, end int) error {
	want := bytes.NewReader(ref)
	size := int64(len(ref))
	a := make([]byte, 3*ext)
	b := make([]byte, 3*ext)
	for op := 0; op < 24; op++ {
		var off int64
		whence := io.SeekStart
		switch rng.Intn(6) {
		case 0: // forward, inside the window
			off, whence = int64(rng.Intn(int(2*ext))), io.SeekCurrent
		case 1: // backward
			off, whence = -int64(rng.Intn(int(2*ext))), io.SeekCurrent
		case 2: // size−k
			off, whence = -int64(rng.Intn(int(min(size, 40)+1))), io.SeekEnd
		case 3: // anywhere, EOF included
			off = int64(rng.Intn(int(size + 1)))
		default: // keep reading
			off, whence = 0, io.SeekCurrent
		}
		wp, werr := want.Seek(off, whence)
		gp, gerr := gr.Seek(off, whence)
		if (werr == nil) != (gerr == nil) || (werr == nil && wp != gp) {
			return fmt.Errorf("op %d: Seek(%d,%d) = %d, %v; want %d, %v", op, off, whence, gp, gerr, wp, werr)
		}
		n := 1 + rng.Intn(97)
		switch rng.Intn(4) {
		case 0:
			n = 1 + rng.Intn(int(ext))
		case 1:
			n = 1 + rng.Intn(int(3*ext))
		}
		wn, werr := want.Read(b[:n])
		gn, gerr := gr.Read(a[:n])
		if gn != wn || gerr != werr {
			return fmt.Errorf("op %d: Read(%d) at %d = %d, %v; want %d, %v", op, n, wp, gn, gerr, wn, werr)
		}
		if !bytes.Equal(a[:gn], b[:wn]) {
			return fmt.Errorf("op %d: Read(%d) at %d: bytes differ", op, n, wp)
		}
		if rng.Intn(3) == 0 {
			ctx.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond) // let read-ahead run on
		}
	}
	switch end {
	case 0: // abandoned where the script left it
	case 1: // drained, never closed
		if _, err := io.Copy(io.Discard, gr); err != nil {
			return err
		}
	default:
		if err := gr.Close(); err != nil {
			return err
		}
		if err := gr.Close(); err != nil { // idempotent
			return err
		}
		if _, err := gr.Read(a[:1]); err == nil || err == io.EOF {
			return fmt.Errorf("Read after Close: %v", err)
		}
	}
	return nil
}

// TestQuickGlobalReaderMatchesReference writes a byte pattern through
// the global writer and checks that arbitrary Seek/Read sequences on the
// global reader agree with a plain in-memory reference buffer — the
// "appears conventional to the system" property (§2) as an executable
// specification. Every generated case runs twice: under a wall context
// (synchronous extent reads) and inside an engine process (read-ahead by
// a dedicated I/O process), where the run must also end with no process
// left parked however the reader's life ends.
func TestQuickGlobalReaderMatchesReference(t *testing.T) {
	check := func(seed uint64) bool {
		spec := globalSpec(sim.NewRNG(seed))
		end := int(seed % 3)

		v := testVolume(t, 3, nil)
		f, ref := globalFile(t, v, spec)
		wall := sim.NewWall()
		gr, err := OpenGlobalReader(f, wall)
		if err != nil || gr.size != int64(len(ref)) {
			t.Logf("seed %d %+v: open: size %d, %v", seed, spec, gr.size, err)
			return false
		}
		if err := globalScript(wall, gr, ref, extentBytes(f), sim.NewRNG(seed+1), end); err != nil {
			t.Logf("seed %d %+v wall: %v", seed, spec, err)
			return false
		}

		e := sim.NewEngine()
		v = testVolume(t, 3, e)
		f, ref = globalFile(t, v, spec)
		var scriptErr error
		e.Go("program", func(p *sim.Proc) {
			gr, err := OpenGlobalReader(f, p)
			if err != nil {
				scriptErr = err
				return
			}
			scriptErr = globalScript(p, gr, ref, extentBytes(f), sim.NewRNG(seed+1), end)
		})
		if err := e.Run(); err != nil {
			t.Logf("seed %d %+v engine, end %d: %v", seed, spec, end, err)
			return false
		}
		if scriptErr != nil {
			t.Logf("seed %d %+v engine: %v", seed, spec, scriptErr)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalReaderSeekCost pins what a Seek costs in modeled time: a
// target ahead inside the extents already read ahead is free, any other
// restarts read-ahead and waits for a device.
func TestGlobalReaderSeekCost(t *testing.T) {
	e := sim.NewEngine()
	v := testVolume(t, 3, e)
	f, ref := globalFile(t, v, pfs.Spec{Name: "g", RecordSize: 64, BlockRecords: 4, NumRecords: 4 * 32 * 6, StripeUnitFS: 1})
	ext := extentBytes(f)
	e.Go("program", func(p *sim.Proc) {
		gr, err := OpenGlobalReader(f, p)
		if err != nil {
			t.Error(err)
			return
		}
		defer gr.Close()
		one := make([]byte, 1)
		readAt := func(off int64) time.Duration {
			if _, err := gr.Seek(off, io.SeekStart); err != nil {
				t.Error(err)
			}
			t0 := p.Now()
			if _, err := gr.Read(one); err != nil || one[0] != ref[off] {
				t.Errorf("byte %d = %d, %v; want %d", off, one[0], err, ref[off])
			}
			return p.Now() - t0
		}
		if d := readAt(0); d == 0 {
			t.Error("first read cost no modeled time")
		}
		p.Sleep(time.Second) // four extents are now buffered
		for _, off := range []int64{5, ext - 1, ext, 3*ext + 17, 4*ext - 1} {
			if d := readAt(off); d != 0 {
				t.Errorf("forward seek to %d inside the window cost %v", off, d)
			}
		}
		if d := readAt(ext); d == 0 {
			t.Error("backward seek cost nothing: served from a dropped extent?")
		}
		p.Sleep(time.Second)
		if d := readAt(5*ext + 1); d == 0 {
			t.Error("seek past the window cost nothing")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalReaderDriveFailureMidScan fails a drive while a scan has four
// extents in hand: every byte of those extents is still served, the error
// surfaces on the very Read that reaches the first extent fetched after
// the failure, nothing stays parked behind it (with or without Close),
// and once the drive is repaired the next Read resumes where it stopped.
func TestGlobalReaderDriveFailureMidScan(t *testing.T) {
	for _, underEngine := range []bool{false, true} {
		for _, closeIt := range []bool{false, true} {
			var e *sim.Engine
			if underEngine {
				e = sim.NewEngine()
			}
			v, disks := testVolumeDisks(t, 3, e)
			f, ref := globalFile(t, v, pfs.Spec{Name: "g", RecordSize: 64, BlockRecords: 4, NumRecords: 4 * 32 * 7, StripeUnitFS: 1})
			ext := int(extentBytes(f))
			scan := func(ctx sim.Context) {
				gr, err := OpenGlobalReader(f, ctx)
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 100)
				got := 0
				read := func() error {
					n, err := gr.Read(buf)
					if !bytes.Equal(buf[:n], ref[got:got+n]) {
						t.Errorf("bytes [%d,%d) differ", got, got+n)
					}
					got += n
					return err
				}
				if err := read(); err != nil {
					t.Error(err)
				}
				ctx.Sleep(time.Second)
				good := ext // a wall context fetches one extent at a time
				if underEngine {
					good = 4 * ext // the one in hand and three read ahead
				}
				disks[1].Fail()
				var failure error
				for failure == nil && got < len(ref) {
					failure = read()
				}
				if !errors.Is(failure, device.ErrFailed) {
					t.Errorf("engine=%v: scan ended with %v after %d bytes", underEngine, failure, got)
				}
				if got != good {
					t.Errorf("engine=%v: error surfaced after %d bytes, want exactly %d", underEngine, got, good)
				}
				disks[1].Repair()
				if err := read(); err != nil {
					t.Errorf("engine=%v: Read after repair: %v", underEngine, err)
				}
				if closeIt {
					if err := gr.Close(); err != nil {
						t.Error(err)
					}
				}
			}
			if !underEngine {
				scan(sim.NewWall())
				continue
			}
			e.Go("program", func(p *sim.Proc) { scan(p) })
			if err := e.Run(); err != nil {
				t.Fatalf("close=%v: %v", closeIt, err)
			}
		}
	}
}
