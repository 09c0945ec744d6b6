// Strategy selection: the Set-level half of the stack's self-tuning
// ("Noncontiguous I/O through PVFS" shows no fixed choice wins across
// workloads). One descriptor can execute vectored — a request per gather
// run — or sieved — a covering request per device, holes and all. Which
// is cheaper is not estimated: StrategyAuto puts the mapped runs through
// a dry issue (dry.go) both ways, from where the drives' heads stand, and
// takes the execution the drives would finish first. The collective layer
// extends the same comparison with the two-phase route and the
// interconnect (internal/collective).

package blockio

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Strategy selects how a noncontiguous transfer executes. The zero
// value, StrategyDefault, is each layer's historical path (vectored for
// independent Set transfers, two-phase for collectives), so zero-valued
// options keep every pinned modeled time bit-identical.
type Strategy int

const (
	// StrategyDefault keeps the layer's historical path.
	StrategyDefault Strategy = iota
	// StrategyVectored forces one request per physically contiguous
	// gather run (what ReadVec/WriteVec are shorthand for).
	StrategyVectored
	// StrategySieved forces data sieving: one covering span per device,
	// holes moved through scratch, writes as read-modify-write
	// (sieve.go).
	StrategySieved
	// StrategyCollective forces the two-phase collective path where one
	// exists (internal/collective); independent Set transfers treat it
	// as vectored.
	StrategyCollective
	// StrategyAuto prices the candidate paths with a dry issue and picks
	// the cheapest per operation.
	StrategyAuto
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyDefault:
		return "default"
	case StrategyVectored:
		return "vectored"
	case StrategySieved:
		return "sieved"
	case StrategyCollective:
		return "collective"
	case StrategyAuto:
		return "auto"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Mapped is a descriptor taken through the map stage and no further:
// validated, its gather runs at absolute physical blocks. It is what a
// price is put on (Dry.Vectored, Dry.Sieved) and what then issues, so the
// runs that were priced are the runs that go out; a Mapped may be issued
// any number of times.
type Mapped struct {
	set  *Set
	runs []Run
	need int64 // the buffer bytes its segments address
}

// Map validates vec and maps it once, for pricing and for issue. The
// runs are appended to runs and their segments to segs, which come back
// extended: a caller mapping many descriptors passes one arena, sized for
// all of them, through every call (the collective's independent routes,
// schedule.mapped); nil allocates them for this descriptor alone. The
// Mapped's runs are capped, so nothing appended later reaches them.
func (s *Set) Map(vec Vec, runs []Run, segs []Seg) (Mapped, []Run, []Seg, error) {
	if err := s.checkVec("Map", vec, -1); err != nil {
		return Mapped{}, runs, segs, err
	}
	bs := int64(s.store.BlockSize())
	sc := mapPool.Get().(*mapScratch)
	r0 := len(runs)
	runs, segs, _, err := sc.mapRuns("Map", BatchVec{{Set: s, Vec: vec}}, nil, bs, runs, segs)
	mapPool.Put(sc)
	if err != nil {
		return Mapped{}, runs[:r0], segs, err
	}
	m := Mapped{set: s, runs: runs[r0:len(runs):len(runs)]}
	for _, sg := range vec {
		if sg.N > 0 {
			m.need = max(m.need, sg.BufOff+sg.N*bs)
		}
	}
	return m, runs, segs, nil
}

// Runs exposes the gather runs (absolute physical blocks, (device, block)
// order); they must not be modified.
func (m Mapped) Runs() []Run { return m.runs }

// Transfer issues the mapped descriptor into buf (a read) or from it
// (write) under strat, as Set.Transfer would the descriptor it was mapped
// from with the one-piece space of buf.
func (m Mapped) Transfer(ctx sim.Context, write bool, strat Strategy, buf []byte) error {
	if m.set == nil {
		return nil // the zero Mapped: nothing was described
	}
	op := vecOp(write)
	if int64(len(buf)) < m.need {
		return fmt.Errorf("blockio: %s: mapped descriptor addresses %d buffer bytes, the buffer holds %d", op, m.need, len(buf))
	}
	return m.set.issueRuns(ctx, op, write, strat, m.runs, Space{{Buf: buf}})
}

// vecOp names a descriptor transfer in errors and spans.
func vecOp(write bool) string {
	if write {
		return "WriteVec"
	}
	return "ReadVec"
}

// Transfer moves the blocks described by vec between the file and the
// buffer space sp — into sp, or with write out of it — each segment's
// blocks at its space offset, as strat directs: vectored (also what
// StrategyDefault and StrategyCollective mean at this layer), sieved, or
// — StrategyAuto — whichever a dry issue of this descriptor prices
// cheaper. It is the Set's one entry point for both directions; one
// block is the one-segment descriptor, and one buffer the one-piece
// space (ReadVec, WriteVec). A space of several pieces is list I/O's
// memory list: the drives scatter straight into (gather straight from)
// every piece, so a stream's batch of frames moves as one descriptor
// with nothing staged.
//
// The pipeline: validate — the segments against the file and against
// the space — map, price if the strategy asks, transform if it is (or
// prices out as) sieved, issue. The runs are mapped into pooled scratch
// held until the issue returns, so a steady stream of transfers maps
// without allocating.
func (s *Set) Transfer(ctx sim.Context, write bool, strat Strategy, vec Vec, sp Space) error {
	op := vecOp(write)
	if err := s.checkVec(op, vec, sp.end()); err != nil {
		return err
	}
	if err := sp.covers(op, vec, int64(s.store.BlockSize())); err != nil {
		return err
	}
	m := mapPool.Get().(*mapScratch)
	defer mapPool.Put(m)
	var err error
	if m.runs, m.segs, _, err = m.mapRuns(op, BatchVec{{Set: s, Vec: vec}}, nil, int64(s.store.BlockSize()), m.runs[:0], m.segs[:0]); err != nil {
		return err
	}
	return s.issueRuns(ctx, op, write, strat, m.runs, sp)
}

// issueRuns is the pipeline below the map stage. A sieved transfer's
// covering runs are built in pooled scratch held until the issue returns.
func (s *Set) issueRuns(ctx sim.Context, op string, write bool, strat Strategy, runs []Run, sp Space) error {
	if strat == StrategyAuto {
		strat = s.choose(runs, write)
	}
	var sieve *Set
	if strat == StrategySieved {
		sc := coverPool.Get().(*sieveScratch)
		defer func() { sc.release(); coverPool.Put(sc) }()
		runs = sc.sieveRuns(runs)
		if write {
			sieve = s
		}
	}
	return issue(ctx, s.store, op, write, runs, sp, sieve)
}

// dryPool recycles the dry issues of Set-level pricing (a collective
// handle keeps its own).
var dryPool = sync.Pool{New: func() any { return new(Dry) }}

// choose resolves StrategyAuto for mapped runs: both executions go
// through a dry issue from where the store's heads stand now, and the
// one the drives finish first wins (ties to vectored, which never moves
// bytes nobody asked for). Runs that put one request on each device are
// the same requests either way and are not priced.
func (s *Set) choose(runs []Run, write bool) Strategy {
	fragmented := false
	for i := 1; i < len(runs) && !fragmented; i++ {
		fragmented = runs[i].Dev == runs[i-1].Dev
	}
	if !fragmented {
		return StrategyVectored
	}
	d := dryPool.Get().(*Dry)
	defer dryPool.Put(d)
	d.Sync(s.store, write)
	d.Vectored(runs)
	vec := d.Flush()
	d.Sync(s.store, write)
	d.Sieved(runs)
	if d.Flush() < vec {
		return StrategySieved
	}
	return StrategyVectored
}
