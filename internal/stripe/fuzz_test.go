package stripe

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/sim"
)

// scatterIov cuts buf, n blocks of bs bytes, into a random scatter list
// of whole-block segments.
func scatterIov(rng *rand.Rand, buf []byte, n, bs int) [][]byte {
	var iov [][]byte
	for off := 0; off < n; {
		k := 1 + rng.Intn(n-off)
		iov = append(iov, buf[off*bs:(off+k)*bs])
		off += k
	}
	return iov
}

// FuzzParityStore drives a parity store (rotating or dedicated parity,
// 3-6 drives) with runs of 1-40 rows through Transfer, each run's
// buffer a scattered iov list, and fails one drive — data or parity —
// before the writes or between the writes and the reads. Every read must
// match a reference image byte for byte, degraded or not; after the
// drive is repaired, erased and rebuilt, every row's parity must equal
// the XOR of its data, and every device must read back the reference.
func FuzzParityStore(f *testing.F) {
	f.Add(uint64(1), false, uint8(0), uint8(0), false, false)
	f.Add(uint64(2), true, uint8(1), uint8(2), true, true)
	f.Add(uint64(3), false, uint8(3), uint8(3), true, false)
	f.Add(uint64(4), true, uint8(2), uint8(5), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, rotate bool, drivesSel, failSel uint8, failFirst, engine bool) {
		const bs, rows = 32, 64
		nd := 3 + int(drivesSel%4)
		failPhys := int(failSel) % nd
		var e *sim.Engine
		if engine {
			e = sim.NewEngine()
		}
		ds := make([]*device.Disk, nd)
		for i := range ds {
			ds[i] = device.New(device.Config{
				Name:     "d",
				Geometry: device.Geometry{BlockSize: bs, BlocksPerCyl: 8, Cylinders: rows / 8},
				Engine:   e,
			})
		}
		p, err := NewParity(ds, rotate)
		if err != nil {
			t.Fatal(err)
		}
		devs := p.Devices()
		ref := make([][]byte, devs)
		for d := range ref {
			ref[d] = make([]byte, rows*bs)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		run := func(ctx sim.Context, write bool, dev int, b int64, n int, buf []byte) error {
			iov := scatterIov(rng, buf, n, bs)
			if err := p.Transfer(ctx, write, []blockio.Bound{{Dev: dev, PBlock: b, N: n, Iov: iov}}); err != nil {
				return fmt.Errorf("write=%v dev %d rows [%d,%d): %w", write, dev, b, b+int64(n), err)
			}
			return nil
		}
		readAll := func(ctx sim.Context, when string) error {
			for dev := range ref {
				for b := 0; b < rows; {
					n := min(1+rng.Intn(40), rows-b)
					got := make([]byte, n*bs)
					if err := run(ctx, false, dev, int64(b), n, got); err != nil {
						return fmt.Errorf("%s: %w", when, err)
					}
					if !bytes.Equal(got, ref[dev][b*bs:(b+n)*bs]) {
						return fmt.Errorf("%s: dev %d rows [%d,%d) differ from the reference", when, dev, b, b+n)
					}
					b += n
				}
			}
			return nil
		}
		body := func(ctx sim.Context) error {
			if failFirst {
				ds[failPhys].Fail()
			}
			for w := 0; w < 12; w++ {
				dev, n := rng.Intn(devs), 1+rng.Intn(40)
				b := rng.Intn(rows - n + 1)
				src := make([]byte, n*bs)
				rng.Read(src)
				if err := run(ctx, true, dev, int64(b), n, src); err != nil {
					return err
				}
				copy(ref[dev][b*bs:], src)
			}
			if !failFirst {
				ds[failPhys].Fail()
			}
			if err := readAll(ctx, "degraded"); err != nil {
				return err
			}
			if err := ds[failPhys].Erase(); err != nil {
				return err
			}
			ds[failPhys].Repair()
			if err := p.Rebuild(ctx, failPhys, rows); err != nil {
				return err
			}
			acc := make([]byte, rows*bs)
			for _, d := range ds {
				img := make([]byte, rows*bs)
				if err := diskIO(ctx, false, d, 0, img); err != nil {
					return err
				}
				xorInto(acc, img)
			}
			for i, x := range acc {
				if x != 0 {
					return fmt.Errorf("after the rebuild row %d's parity is not the XOR of its data", i/bs)
				}
			}
			return readAll(ctx, "rebuilt")
		}
		if e == nil {
			if err := body(sim.NewWall()); err != nil {
				t.Fatal(err)
			}
			return
		}
		var bodyErr error
		e.Go("fuzz", func(pr *sim.Proc) { bodyErr = body(pr) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if bodyErr != nil {
			t.Fatal(bodyErr)
		}
	})
}
