// Package blockio provides the logical-block layer between parallel files
// and storage devices.
//
// A file sees a flat array of logical blocks; a Layout maps each logical
// block to a (device, physical block) pair. The three layout families
// implement the placement strategies of the paper's §4:
//
//   - Striped: logical blocks round-robin across all devices in stripe
//     units ("disk striping" for S and SS files, and — with a unit smaller
//     than the file's block — Livny-style declustering for direct access).
//   - Partitioned: each partition's contiguous logical range lives on one
//     device (one device per process when devices ≥ partitions), the PS
//     strategy; with fewer devices, partitions share devices under a
//     configurable on-device packing policy.
//   - Interleaved: logical block groups belong to processes cyclically
//     (wrapped storage) and each process's stream lives on its device,
//     the IS strategy.
//
// A Store abstracts the device array so reliability wrappers (parity,
// shadowing — package stripe) can interpose transparently. It moves
// blocks one way only: a transfer's list of runs, each physically
// contiguous on one device and scattered into or gathered from a list of
// buffers.
//
// Every transfer, whatever its shape, goes down one pipeline:
//
//	describe   a Vec lists (logical range, buffer offset) segments; one
//	           block or one range is the one-segment case (vec.go)
//	map        segments → physical pieces → sorted → merged into gather
//	           runs, within one file or across the files of a BatchVec,
//	           whole or split into the windows of a BatchPlan (batch.go)
//	transform  optionally, data sieving: a device's runs become one
//	           covering run whose gaps are hole segments (sieve.go)
//	issue      each run's segments are bound to the caller's buffer
//	           space — one buffer, or pieces anywhere in memory — and
//	           the bound list goes to the store in one call, its runs
//	           in parallel (issue.go)
//	dry issue  the drive requests the store sends for the same runs
//	           (Store.Requests) through the drives' queues without the
//	           drives: what the issue would take, which is how a
//	           strategy is priced before one is chosen (dry.go)
package blockio

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/device"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Store is a block-addressed array of devices. Implementations: Direct
// (plain disks), stripe.Parity, stripe.Mirror.
//
// The bound run list is the only transfer: one block is a run of one
// with a one-buffer list, a contiguous range a run of n with one buffer.
// Which drive requests a run becomes is the store's to say, and it says
// it once (Requests), for the transfer and for its price alike — Direct
// sends every run to its drive as one batch, Mirror to the drive and its
// shadow, Parity split by physical drive with the parity rows batched.
type Store interface {
	// Devices reports how many (data) devices are visible.
	Devices() int
	// BlockSize reports the block size in bytes, identical on all devices.
	BlockSize() int
	// Blocks reports the per-device capacity in blocks.
	Blocks() int64
	// Drives lists the physical drives, data and redundancy alike: the
	// drives a Request names by index.
	Drives() []*device.Disk
	// Requests appends to dst the drive requests Transfer sends for runs,
	// read (write false) or written, in the order they reach the drives
	// while every drive is up.
	Requests(dst []Request, write bool, runs []Run) []Request
	// Transfer reads (write false) or writes the runs of one transfer,
	// in parallel across devices under a simulation engine, each
	// coalesced into as few device requests as the store's redundancy
	// geometry allows — one for plain disks — and returns their errors:
	// one run's as it is, several joined in run order.
	Transfer(ctx sim.Context, write bool, runs []Bound) error
}

// Request is one drive request a store sends for a run: N blocks at
// PBlock of drive Drive, an index into the store's Drives. Later marks a
// request that reaches its drive only after the first request of every
// transfer sent at the same instant (Direct's runs after the first, a
// redundant store's requests after a run's first). RMW marks a write
// whose drive first reads the blocks it overwrites: Kim's small write.
type Request struct {
	Drive      int
	PBlock, N  int64
	Later, RMW bool
}

// Direct is a Store over plain disks with no redundancy.
type Direct struct {
	disks []*device.Disk
	pr    *batchProbe
}

// batchProbe caches the flight-recorder handles a store hands to the
// issue loop.
type batchProbe struct {
	rec     *probe.Recorder
	trk     probe.TrackID
	batches *probe.Counter
	runs    *probe.Counter
	bytes   *probe.Counter
}

// storeProber is implemented by stores carrying a flight recorder; the
// issue loop consults it to record every transfer. Optional — stores
// without it are simply not traced.
type storeProber interface{ batchProbe() *batchProbe }

func (d *Direct) batchProbe() *batchProbe { return d.pr }

// SetProbe attaches a flight recorder to the store: every transfer issued
// through it — a block, a descriptor, a plan window — records an async
// span on the "blockio" track (start to completion of all its parallel
// runs) plus batch/run/byte counters. Pass nil to detach. Device-level
// spans are the disks' own (device.Disk.SetProbe).
func (d *Direct) SetProbe(r *probe.Recorder) {
	if r == nil {
		d.pr = nil
		return
	}
	m := r.Metrics()
	d.pr = &batchProbe{
		rec:     r,
		trk:     r.AsyncTrack("blockio"),
		batches: m.Counter("blockio.batches"),
		runs:    m.Counter("blockio.runs"),
		bytes:   m.Counter("blockio.bytes"),
	}
}

// NewDirect wraps disks as a Store. All disks must share one geometry.
func NewDirect(disks []*device.Disk) (*Direct, error) {
	if len(disks) == 0 {
		return nil, fmt.Errorf("blockio: empty device set")
	}
	g := disks[0].Geometry()
	for _, d := range disks[1:] {
		if d.Geometry() != g {
			return nil, fmt.Errorf("blockio: mixed geometries in device set")
		}
	}
	return &Direct{disks: disks}, nil
}

// Devices implements Store.
func (d *Direct) Devices() int { return len(d.disks) }

// BlockSize implements Store.
func (d *Direct) BlockSize() int { return d.disks[0].Geometry().BlockSize }

// Blocks implements Store.
func (d *Direct) Blocks() int64 { return d.disks[0].Geometry().Blocks() }

// Drives implements Store: the disks, one a device.
func (d *Direct) Drives() []*device.Disk { return d.disks }

// Requests implements Store: each run is one request on its drive, run 0
// at the call instant and the others after one yield (Transfer).
func (d *Direct) Requests(dst []Request, write bool, runs []Run) []Request {
	for i := range runs {
		dst = append(dst, Request{Drive: runs[i].Dev, PBlock: runs[i].PBlock, N: runs[i].N, Later: i > 0})
	}
	return dst
}

// batchPool recycles the drive batches of Direct transfers.
var batchPool = sync.Pool{New: func() any { return new(device.Batch) }}

// Transfer implements Store as list I/O: each run is one request on its
// drive, all of them submitted to one device.Batch that the caller waits
// for once — no process per run. Run 0 reaches its drive at the call
// instant, the others after one yield (Sleep(0)): once every process
// runnable at this instant has reached the drives with its own first
// run, the order a dry issue prices (dry.go).
func (d *Direct) Transfer(ctx sim.Context, write bool, runs []Bound) error {
	b := batchPool.Get().(*device.Batch)
	for i, r := range runs {
		if i == 1 {
			ctx.Sleep(0)
		}
		d.disks[r.Dev].Submit(ctx, b, write, r.PBlock, r.N, r.Iov)
	}
	err := b.Wait()
	batchPool.Put(b)
	return err
}

// Layout maps a file's logical blocks onto a device set. Physical block
// numbers are relative to the file's per-device extent (the volume adds
// the extent base). MapRun is a layout's one placement computation:
// transfers, extent sizing (PerDevice) and the collective's physical
// keys all read where blocks go from the runs it yields.
type Layout interface {
	// Name identifies the layout for diagnostics and metadata.
	Name() string
	// Devices reports how many devices the layout spreads over.
	Devices() int
	// MapRun appends to dst the maximal physically contiguous runs
	// covering the logical range [b, b+n), in ascending logical order.
	// Each implementation walks its layout a granule (stripe unit,
	// partition span, interleave group) at a time, never a block.
	MapRun(dst []Run, b, n int64) []Run
}

// extentWindow is how many logical blocks PerDevice maps at a time: a
// window yields at most that many runs, so they always fit its scratch.
const extentWindow = 64

// PerDevice computes how many physical blocks a layout needs on each
// device to hold total logical blocks (the per-device extent sizes): the
// end of the topmost run MapRun yields on each device. It maps the blocks
// a window at a time through one scratch array, so sizing a file
// allocates the same however long the file is.
func PerDevice(l Layout, total int64) []int64 {
	need := make([]int64, l.Devices())
	var scratch [extentWindow]Run
	for b := int64(0); b < total; b += extentWindow {
		for _, r := range l.MapRun(scratch[:0], b, min(extentWindow, total-b)) {
			need[r.Dev] = max(need[r.Dev], r.PBlock+r.N)
		}
	}
	return need
}

// Pack selects how streams that share a device are packed on it.
type Pack int

const (
	// PackContiguous stores each stream in one contiguous run; runs
	// follow one another. Sequential within a stream, but streams
	// progressing together cause long seeks between runs.
	PackContiguous Pack = iota
	// PackInterleaved interleaves the streams' units round-robin, so
	// streams progressing together stay within a short seek distance.
	PackInterleaved
)

// String implements fmt.Stringer.
func (p Pack) String() string {
	switch p {
	case PackContiguous:
		return "contiguous"
	case PackInterleaved:
		return "interleaved"
	default:
		return fmt.Sprintf("Pack(%d)", int(p))
	}
}

// Striped spreads logical blocks round-robin across devices in units of
// Unit blocks: the implementation for S and SS files (§4) and, with Unit
// smaller than the file block, for declustered direct access files.
type Striped struct {
	D    int
	Unit int64
}

// NewStriped returns a striped layout over d devices with the given
// stripe unit in blocks (minimum 1).
func NewStriped(d int, unit int64) *Striped {
	if unit < 1 {
		unit = 1
	}
	return &Striped{D: d, Unit: unit}
}

// Name implements Layout.
func (s *Striped) Name() string { return fmt.Sprintf("striped(d=%d,unit=%d)", s.D, s.Unit) }

// Devices implements Layout.
func (s *Striped) Devices() int { return s.D }

// Partitioned is the PS placement: partition p (a contiguous logical
// range) lives on device p mod D. With fewer devices than partitions,
// cohabiting partitions are packed per the policy, in units of Unit
// blocks (the file's block, so paper-blocks stay physically contiguous
// under PackInterleaved).
type Partitioned struct {
	D      int
	Unit   int64
	Policy Pack

	starts []int64 // logical start of each partition; len = parts+1
	base   []int64 // PackContiguous: physical base of each partition on its device
	shareK []int   // per partition: number of partitions sharing its device
	rank   []int   // per partition: rank among partitions on its device
}

// NewPartitioned builds a PS layout. partBlocks gives each partition's
// size in logical blocks; unit is the file block size in logical blocks
// (≥1) used as the interleaving granule under PackInterleaved.
func NewPartitioned(d int, partBlocks []int64, unit int64, policy Pack) (*Partitioned, error) {
	if d <= 0 {
		return nil, fmt.Errorf("blockio: partitioned layout needs devices > 0")
	}
	if len(partBlocks) == 0 {
		return nil, fmt.Errorf("blockio: partitioned layout needs partitions")
	}
	if unit < 1 {
		unit = 1
	}
	p := &Partitioned{D: d, Unit: unit, Policy: policy}
	p.starts = make([]int64, len(partBlocks)+1)
	for i, n := range partBlocks {
		if n < 0 {
			return nil, fmt.Errorf("blockio: negative partition size")
		}
		p.starts[i+1] = p.starts[i] + n
	}
	p.base = make([]int64, len(partBlocks))
	p.shareK = make([]int, len(partBlocks))
	p.rank = make([]int, len(partBlocks))
	for i := range partBlocks {
		dev := i % d
		k, rk := 0, 0
		var base int64
		for j := range partBlocks {
			if j%d != dev {
				continue
			}
			if j < i {
				rk++
				base += partBlocks[j]
			}
			k++
		}
		p.base[i] = base
		p.shareK[i] = k
		p.rank[i] = rk
	}
	return p, nil
}

// Name implements Layout.
func (p *Partitioned) Name() string {
	return fmt.Sprintf("partitioned(d=%d,parts=%d,%s)", p.D, len(p.starts)-1, p.Policy)
}

// Devices implements Layout.
func (p *Partitioned) Devices() int { return p.D }

// PartOf reports which partition holds logical block b.
func (p *Partitioned) PartOf(b int64) int {
	return sort.Search(len(p.starts)-1, func(i int) bool { return p.starts[i+1] > b })
}

// Interleaved is the IS placement: logical block group g (of Unit blocks)
// belongs to process g mod P; process p's stream lives on device p mod D.
// Streams sharing a device are packed per the policy.
type Interleaved struct {
	D      int
	P      int
	Unit   int64
	Policy Pack
	total  int64 // total logical blocks (needed for contiguous packing)
}

// NewInterleaved builds an IS layout for procs processes over d devices
// with file blocks of unit logical blocks and total logical blocks
// overall (total bounds stream lengths under PackContiguous; the final
// partial group is allocated a full unit).
func NewInterleaved(d, procs int, unit, total int64, policy Pack) (*Interleaved, error) {
	if d <= 0 || procs <= 0 {
		return nil, fmt.Errorf("blockio: interleaved layout needs devices > 0 and procs > 0")
	}
	if unit < 1 {
		unit = 1
	}
	return &Interleaved{D: d, P: procs, Unit: unit, Policy: policy, total: total}, nil
}

// groups reports the total number of unit-sized groups in the file.
func (il *Interleaved) groups() int64 {
	return (il.total + il.Unit - 1) / il.Unit
}

// streamGroups reports how many groups process q owns.
func (il *Interleaved) streamGroups(q int) int64 {
	g := il.groups()
	if int64(q) >= g {
		return 0
	}
	return (g-int64(q)-1)/int64(il.P) + 1
}

// Name implements Layout.
func (il *Interleaved) Name() string {
	return fmt.Sprintf("interleaved(d=%d,p=%d,unit=%d)", il.D, il.P, il.Unit)
}

// Devices implements Layout.
func (il *Interleaved) Devices() int { return il.D }

// place reports where stream q's group of round round starts: the
// per-group step of MapRun.
func (il *Interleaved) place(q int, round int64) (int, int64) {
	dev := q % il.D
	if il.Policy == PackContiguous {
		var before int64 // groups of the streams packed ahead of q's
		for p := dev; p < q; p += il.D {
			before += il.streamGroups(p)
		}
		return dev, (before + round) * il.Unit
	}
	onDev := (il.P-1-dev)/il.D + 1 // streams sharing device dev
	return dev, (round*int64(onDev) + int64(q/il.D)) * il.Unit
}

var (
	_ Layout = (*Striped)(nil)
	_ Layout = (*Partitioned)(nil)
	_ Layout = (*Interleaved)(nil)
	_ Store  = (*Direct)(nil)
)

// Set binds a Store, a Layout and per-device extent bases into the
// file-facing interface: reads and writes of the file's logical blocks
// [0, blocks).
type Set struct {
	store  Store
	layout Layout
	base   []int64
	blocks int64

	// sieveLocks serializes sieved read-modify-write spans per device
	// (lazily created; engine contexts only — see lockSieve). The
	// map is only ever touched by engine-managed processes, whose strict
	// alternation provides the required happens-before edges, mirroring
	// stripe.Parity's row-lock map.
	sieveLocks map[int]*sim.Mutex
}

// NewSet builds a Set of blocks logical blocks. base gives the first
// physical block of the file's extent on each device (len must equal
// layout.Devices()).
func NewSet(store Store, layout Layout, base []int64, blocks int64) (*Set, error) {
	if layout.Devices() > store.Devices() {
		return nil, fmt.Errorf("blockio: layout wants %d devices, store has %d", layout.Devices(), store.Devices())
	}
	if len(base) != layout.Devices() {
		return nil, fmt.Errorf("blockio: %d extent bases for %d devices", len(base), layout.Devices())
	}
	return &Set{store: store, layout: layout, base: base, blocks: blocks}, nil
}

// Store exposes the underlying store.
func (s *Set) Store() Store { return s.store }

// Base reports the first physical block of the file's extent on device
// dev: a layout's relative physical block plus Base is the drive's.
func (s *Set) Base(dev int) int64 { return s.base[dev] }

// Layout exposes the layout.
func (s *Set) Layout() Layout { return s.layout }
