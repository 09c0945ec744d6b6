package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// BenchmarkExchangeCopy is the host cost of moving a steady checkpoint's
// bytes through the two-phase calls: 32 ranks write a 4 MiB checkpoint
// interleaved one 4 KiB block at a time over four drives, with WriteAll,
// and read it back with ReadAll, over and over, in 64 KiB pipeline rounds;
// every call after the first replays the cached schedule. Nothing is
// staged: each chunk's piece table is bound to the ranks' buffers and the
// drives copy straight between those and their own store, so the one copy
// left is the drive's. One op is one WriteAll and one ReadAll: host_ns/B
// is the wall clock per byte the two moved — exchange sizing, binding and
// the drives' copy — and allocs/op what they allocated.
func BenchmarkExchangeCopy(b *testing.B) {
	const nRanks, bs, blocks = 32, 4096, 1024
	e := sim.NewEngine()
	disks := make([]*device.Disk, 4)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name: fmt.Sprintf("d%d", i), Engine: e,
			Geometry: device.Geometry{BlockSize: bs, BlocksPerCyl: 16, Cylinders: 64},
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		b.Fatal(err)
	}
	vol := pfs.NewVolume(store)
	if _, err := vol.Create(pfs.Spec{Name: "ckpt", Org: pfs.OrgSequential, RecordSize: bs,
		NumRecords: blocks, Placement: pfs.PlaceStriped, StripeUnitFS: 1}); err != nil {
		b.Fatal(err)
	}
	g, err := vol.OpenGroup("ckpt")
	if err != nil {
		b.Fatal(err)
	}
	col, err := Open(g, nRanks, Options{ChunkBytes: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	_, join := mpp.Run(e, nRanks, "ckpt", func(p *mpp.Proc) {
		var vec blockio.Vec
		for blk := int64(p.Rank()); blk < blocks; blk += nRanks {
			vec = append(vec, blockio.VecSeg{Block: blk, N: 1, BufOff: int64(len(vec)) * bs})
		}
		reqs := []VecReq{{File: 0, Vec: vec}}
		wbuf, rbuf := make([]byte, len(vec)*bs), make([]byte, len(vec)*bs)
		for i := range wbuf {
			wbuf[i] = byte(i*7 + p.Rank())
		}
		// Op -1 builds the schedule; the timer starts once every rank is
		// through it.
		for op := -1; op < b.N; op++ {
			if op == 0 {
				p.Barrier()
				if p.Rank() == 0 {
					b.ResetTimer()
				}
			}
			if err := col.WriteAll(p, reqs, wbuf); err != nil {
				b.Errorf("rank %d: %v", p.Rank(), err)
				return
			}
			if err := col.ReadAll(p, reqs, rbuf); err != nil {
				b.Errorf("rank %d: %v", p.Rank(), err)
				return
			}
		}
		if !bytes.Equal(rbuf, wbuf) {
			b.Errorf("rank %d read back other bytes than it wrote", p.Rank())
		}
	})
	e.Go("join", func(sp *sim.Proc) { join.Wait(sp) })
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N*blocks*bs), "host_ns/B")
}
