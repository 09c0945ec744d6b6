package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	pario "repro"
	"repro/internal/collective"
	"repro/internal/device"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Pattern is which blocks of the file each rank of a Checkpoint writes.
// Every pattern is block-disjoint across ranks.
type Pattern int

const (
	// Strided: rank r's k-th block is k·Ranks + r, file-wide. On the
	// unit-1 declustered file every rank's view fragments on every drive
	// while the union is dense — the checkpoint two-phase I/O is for.
	Strided Pattern = iota
	// Shifted: the file in Ranks slabs; rank r writes slab (r+3) mod Ranks
	// less its last 8 blocks, and the last 8 blocks of slab (r+2) mod
	// Ranks. Each logical file domain has an obvious owner that
	// round-robin assignment never picks.
	Shifted
	// Dense: every other block of the rank's slice of a partitioned file
	// (one partition per drive): half the span is holes no rank fills.
	Dense
	// Sparse: 8-block runs every 64 blocks of that slice.
	Sparse
)

// shiftedTail is how many trailing blocks of each Shifted slab the
// neighbouring rank writes.
const shiftedTail = 8

// Checkpoint describes one N-rank checkpoint on a fresh machine: Ranks
// processes write the Blocks one-block records of one file, each its
// Pattern's share, Calls times through one collective handle.
type Checkpoint struct {
	Drives   int
	Geometry device.Geometry // zero: the default 1989 drive
	// Profile configures the drive queues, the ranks' interconnect, the
	// collective handle (Profile.Collective) and the restart scan
	// (Profile.Access).
	Profile pario.Profile
	Ranks   int
	Blocks  int64
	Pattern Pattern
	Calls   int // 0: one call

	// Independent has every rank issue its own vectored write instead of
	// joining the collective.
	Independent bool
	// Restart has rank 0 scan the file back sequentially after the last
	// call, in virtual time, checking every record.
	Restart bool
	// ForceSplit > 0 forces two-phase on the drive-aligned partition with
	// every chunk cut in ForceSplit (collective.ForceAligned).
	ForceSplit int
	// Uncached drops the handle's schedules before every call
	// (Collective.InvalidateSchedules), so every call plans afresh.
	Uncached bool

	// Rec records the run (nil: detached) under track scope Scope;
	// EngineOnly attaches it to the engine alone, for the dispatch count
	// without the upper layers' spans.
	Rec        *probe.Recorder
	Scope      string
	EngineOnly bool
}

// CallStat is one collective call as rank 0 saw it, entry to return:
// modeled time, the drives' work, and what it cost the host (Dispatches
// needs a recorder).
type CallStat struct {
	Modeled            time.Duration
	Requests, SeekCyls int64
	Wall               time.Duration
	Mallocs, Bytes     uint64
	Dispatches         int64
}

// CheckpointResult is what one Checkpoint run measured.
type CheckpointResult struct {
	Elapsed   time.Duration // virtual time of the whole run
	Wall      time.Duration // host time of the whole run
	Requests  int64         // device requests, whole run
	Bytes     int64         // what the ranks write per call
	Calls     []CallStat
	Stats     pario.ExchangeStats // the last call's exchange
	LinkBytes int64               // bytes that crossed the interconnect
	Route     string              // the last call's route, its price and depth
	Predicted time.Duration
	Prices    pario.RoutePrices // what StrategyAuto priced every candidate at
	Depth     int
	Ramped    bool    // the last call's rounds ramped, not equal (collective.LastCut)
	Rounds    []int64 // blocks each of its rounds moved of the largest file domain
	Cache     pario.CollectiveCacheStats
	Image     uint64 // FNV-1a of the final file image
}

// Traced returns c recorded through rec (nil: detached) under track
// scope scope.
func (c Checkpoint) Traced(rec *probe.Recorder, scope string) Checkpoint {
	c.Rec, c.Scope = rec, scope
	return c
}

// vec is rank's write descriptor, packed in buffer order.
func (c *Checkpoint) vec(rank int) pario.Vec {
	var vec pario.Vec
	var off int64
	bs := int64(c.blockSize())
	add := func(b, n int64) {
		vec = append(vec, pario.VecSeg{Block: b, N: n, BufOff: off})
		off += n * bs
	}
	r, n := int64(rank), int64(c.Ranks)
	slab := c.Blocks / n
	switch c.Pattern {
	case Strided:
		for b := r; b < c.Blocks; b += n {
			add(b, 1)
		}
	case Shifted:
		add((r+3)%n*slab, slab-shiftedTail)
		add((r+2)%n*slab+slab-shiftedTail, shiftedTail)
	case Dense:
		for i := int64(0); i < slab/2; i++ {
			add(r*slab+2*i, 1)
		}
	case Sparse:
		for b := int64(0); b+8 <= slab; b += 64 {
			add(r*slab+b, 8)
		}
	}
	return vec
}

func (c *Checkpoint) blockSize() int {
	if c.Geometry.BlockSize > 0 {
		return c.Geometry.BlockSize
	}
	return device.DefaultGeometry1989().BlockSize
}

// stamp marks blk as block b of call: enough to tell a block that landed
// in the wrong place, from the wrong call, or cut short.
func stamp(blk []byte, b int64, call int) {
	v := uint64(b)<<16 | uint64(call)
	binary.LittleEndian.PutUint64(blk, v)
	binary.LittleEndian.PutUint64(blk[len(blk)-8:], ^v)
}

// Run executes the checkpoint and verifies the file: every block some
// rank wrote holds its last call's stamp, every other block zeros.
func (c Checkpoint) Run() (CheckpointResult, error) {
	var res CheckpointResult
	calls := max(c.Calls, 1)
	bs := int64(c.blockSize())
	pf := c.Profile

	e := sim.NewEngine()
	disks := device.NewDrives(c.Drives, device.Config{Geometry: c.Geometry, Engine: e, Sched: pf.Sched, MergeQueued: pf.MergeQueued})
	vol, err := pario.NewVolume(disks)
	if err != nil {
		return res, err
	}
	m := &pario.Machine{Engine: e, Disks: disks, Volume: vol}
	if c.Rec != nil {
		c.Rec.SetScope(c.Scope)
		if c.EngineOnly {
			e.SetProbe(c.Rec)
		} else {
			m.SetProbe(c.Rec)
		}
	}
	spec := pario.Spec{Name: "ckpt", RecordSize: int(bs), BlockRecords: 1, NumRecords: c.Blocks}
	if c.Pattern == Dense || c.Pattern == Sparse {
		spec.Org, spec.Parts = pario.OrgPartitioned, c.Drives
	} else {
		spec.Org, spec.Placement, spec.StripeUnitFS = pario.OrgGlobalDirect, pario.PlaceStriped, 1
	}
	f, err := vol.Create(spec)
	if err != nil {
		return res, err
	}
	group, err := vol.OpenGroup("ckpt")
	if err != nil {
		return res, err
	}
	col, err := pario.OpenCollective(group, c.Ranks, pf.Collective)
	if err != nil {
		return res, err
	}
	if c.ForceSplit > 0 {
		collective.ForceAligned(col, c.ForceSplit)
	}

	// Rank 0 brackets each call with a mark; nothing between a call's two
	// marks allocates on the fixture's account, and the wall-clock stamp is
	// taken on the call's side of ReadMemStats, which stops the world.
	type mark struct {
		now                time.Duration
		wall               time.Time
		mallocs, bytes     uint64
		requests, seekCyls int64
		dispatches         int64
	}
	dispatches := c.Rec.Metrics().Counter("sim.dispatches")
	var ms runtime.MemStats
	take := func(now time.Duration, after bool) (mk mark) {
		if after {
			mk.wall = time.Now()
		}
		runtime.ReadMemStats(&ms)
		if !after {
			mk.wall = time.Now()
		}
		mk.now, mk.mallocs, mk.bytes, mk.dispatches = now, ms.Mallocs, ms.TotalAlloc, dispatches.Value()
		for _, d := range disks {
			st := d.Stats()
			mk.requests += st.Requests()
			mk.seekCyls += st.SeekCyls
		}
		return mk
	}
	res.Calls = make([]CallStat, calls)

	var rankErr error
	fail := func(rank int, err error) {
		if rankErr == nil {
			rankErr = fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	rg := m.GoRanks(c.Ranks, "rank", func(r *pario.Rank) {
		vec := c.vec(r.Rank())
		var n int64
		for _, sg := range vec {
			n += sg.N
		}
		buf := make([]byte, n*bs)
		reqs := []pario.VecReq{{File: 0, Vec: vec}}
		for call := 0; call < calls; call++ {
			for _, sg := range vec {
				for k := int64(0); k < sg.N; k++ {
					stamp(buf[sg.BufOff+k*bs:][:bs], sg.Block+k, call)
				}
			}
			var before mark
			if r.Rank() == 0 {
				if c.Uncached {
					col.InvalidateSchedules()
				}
				before = take(r.Now(), false)
			}
			var err error
			if c.Independent {
				err = f.Set().WriteVec(r.Proc, vec, buf)
			} else {
				err = col.WriteAll(r, reqs, buf)
			}
			if err != nil {
				fail(r.Rank(), err)
			}
			if r.Rank() == 0 {
				after := take(r.Now(), true)
				res.Calls[call] = CallStat{
					Modeled:  after.now - before.now,
					Requests: after.requests - before.requests, SeekCyls: after.seekCyls - before.seekCyls,
					Wall:    after.wall.Sub(before.wall),
					Mallocs: after.mallocs - before.mallocs, Bytes: after.bytes - before.bytes,
					Dispatches: after.dispatches - before.dispatches,
				}
			}
		}
		if c.Restart && r.Rank() == 0 {
			if err := c.restart(r, f, calls-1); err != nil {
				fail(0, err)
			}
		}
	})
	pf.ConfigureRanks(rg)
	start := time.Now()
	if err := m.Run(); err != nil {
		return res, err
	}
	res.Wall = time.Since(start)
	if rankErr != nil {
		return res, rankErr
	}

	res.Elapsed = e.Now()
	for _, d := range disks {
		res.Requests += d.Stats().Requests()
	}
	res.Stats = col.LastStats()
	_, res.LinkBytes = rg.Traffic()
	res.Route, res.Predicted, res.Depth = col.LastRoute(), col.LastPredicted(), col.LastDepth()
	res.Prices = col.LastPrices()
	res.Ramped, res.Rounds = collective.LastCut(col)
	res.Cache = col.PlanCacheStats()

	written := make([]bool, c.Blocks)
	for rank := 0; rank < c.Ranks; rank++ {
		for _, sg := range c.vec(rank) {
			for k := int64(0); k < sg.N; k++ {
				written[sg.Block+k] = true
			}
			res.Bytes += sg.N * bs
		}
	}
	// One untimed whole-file read: a run per drive, which is all the check
	// adds to the drives' own counters.
	img := make([]byte, c.Blocks*bs)
	if err := f.Set().ReadVec(pario.NewWall(), pario.Vec{{Block: 0, N: c.Blocks}}, img); err != nil {
		return res, err
	}
	want := make([]byte, bs)
	for b := int64(0); b < c.Blocks; b++ {
		clear(want)
		if written[b] {
			stamp(want, b, calls-1)
		}
		if !bytes.Equal(img[b*bs:][:bs], want) {
			return res, fmt.Errorf("block %d corrupt after the checkpoint (%+v)", b, pf.Collective)
		}
	}
	h := fnv.New64a()
	h.Write(img)
	res.Image = h.Sum64()
	return res, nil
}

// restart is rank 0's sequential scan of the finished checkpoint through
// the profile's access options.
func (c *Checkpoint) restart(r *pario.Rank, f *pario.File, call int) error {
	rd, err := pario.OpenReader(f, c.Profile.Access)
	if err != nil {
		return err
	}
	want := make([]byte, c.blockSize())
	for b := int64(0); ; b++ {
		rec, _, err := rd.ReadRecord(r.Proc)
		if err == io.EOF {
			if b != c.Blocks {
				return fmt.Errorf("restart scan ended after %d of %d records", b, c.Blocks)
			}
			return rd.Close(r.Proc)
		}
		if err != nil {
			return err
		}
		if stamp(want, b, call); !bytes.Equal(rec, want) {
			return fmt.Errorf("record %d corrupt under profile %q", b, c.Profile.Name)
		}
	}
}
