// Strategy selection: a per-operation cost model that prices the
// vectored and sieved execution of one scatter/gather descriptor from
// the modeled device parameters and picks the cheaper path — the
// Set-level half of the stack's self-tuning ("Noncontiguous I/O through
// PVFS" shows no fixed choice wins across workloads). The collective
// layer extends the same comparison with the two-phase route and the
// interconnect model (internal/collective).

package blockio

import (
	"fmt"
	"time"

	"repro/internal/device"
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
	// StrategyAuto prices the candidate paths with the cost model and
	// picks the cheapest per operation.
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

// CostModel carries the modeled machine parameters a strategy decision
// prices transfers with. The device half comes from StoreCostModel; the
// link half (used by the collective layer) from mpp.Group.LinkModel.
// The zero value prices requests as free, under which Auto degenerates
// to the vectored path — harmless, never wrong.
type CostModel struct {
	// ReqFixed is the expected fixed cost of one device request:
	// controller overhead + average rotational latency + an average
	// seek. It is what sieving trades transfer bytes against.
	ReqFixed time.Duration
	// DevBytesPerSec is one device's streaming transfer rate.
	DevBytesPerSec float64
	// LinkMsg and LinkBytesPerSec are the per-process interconnect
	// model; BisectionBytesPerSec the shared pool (0 = uncontended).
	// Zero values mean communication is free, the historical default.
	LinkMsg              time.Duration
	LinkBytesPerSec      float64
	BisectionBytesPerSec float64
	// Ranks is the number of processes accessing the store at once.
	Ranks int

	// The drive model ReqFixed and DevBytesPerSec were derived from, for
	// requests whose seek is known (ContFixed). Zero outside
	// StoreCostModel: such requests then price as free, like the rest.
	geom   device.Geometry
	timing device.Timing
}

// DeviceModeler is implemented by stores that can report their drives'
// geometry and service-time model (Direct, stripe.Parity,
// stripe.Mirror). Stores without it price requests with the 1989
// defaults.
type DeviceModeler interface {
	DeviceModel() (device.Geometry, device.Timing)
}

// DeviceModel implements DeviceModeler for plain disk arrays.
func (d *Direct) DeviceModel() (device.Geometry, device.Timing) {
	return d.disks[0].Geometry(), d.disks[0].Timing()
}

// StoreCostModel derives the device half of a cost model from a store's
// drive parameters, for ranks concurrent accessors.
func StoreCostModel(store Store, ranks int) CostModel {
	g, t := device.DefaultGeometry1989(), device.DefaultTiming1989()
	if dm, ok := store.(DeviceModeler); ok {
		g, t = dm.DeviceModel()
	}
	if ranks < 1 {
		ranks = 1
	}
	return CostModel{
		ReqFixed:       t.Overhead + t.RotationPeriod/2 + (t.SeekMin+t.SeekMax)/2,
		DevBytesPerSec: t.TransferRate,
		Ranks:          ranks,
		geom:           g,
		timing:         t,
	}
}

// ContFixed prices the fixed part — everything but the transfer — of n
// requests that continue a sequential run on one drive: the run's first
// request started at physical block first, and each of the n starts
// blocks blocks after the one before it. Such a request does not pay
// ReqFixed's average seek: the drive's own service-time model
// (device.ServiceTime) charges it controller overhead, half a rotation,
// and the seek across the cylinders it actually crosses — none, when it
// starts in the cylinder the previous one started in.
func (m CostModel) ContFixed(n, first, blocks int64) time.Duration {
	per := int64(m.geom.BlocksPerCyl)
	if per <= 0 || n <= 0 {
		return 0
	}
	// Every one of the n crosses blocks/per cylinders or one more; the run
	// crosses (first+n×blocks)/per − first/per in all.
	cyls := blocks / per
	more := (first+n*blocks)/per - first/per - n*cyls
	fixed := func(cyls int64) time.Duration { return device.ServiceTime(m.geom, m.timing, int(cyls), 0) }
	return time.Duration(more)*fixed(cyls+1) + time.Duration(n-more)*fixed(cyls)
}

// Xfer prices moving bytes at the device transfer rate.
func (m CostModel) Xfer(bytes int64) time.Duration {
	if m.DevBytesPerSec <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / m.DevBytesPerSec * float64(time.Second))
}

// VecCost prices the vectored execution of mapped gather runs: devices
// proceed in parallel, so the cost is the slowest device's requests
// plus its useful bytes.
func (m CostModel) VecCost(runs []Run, bs int64) time.Duration {
	var worst time.Duration
	for i := 0; i < len(runs); {
		j := i + 1
		var bytes int64
		for ; j <= len(runs); j++ {
			if j == len(runs) || runs[j].Dev != runs[i].Dev {
				break
			}
		}
		for _, r := range runs[i:j] {
			bytes += r.N * bs
		}
		if d := time.Duration(j-i)*m.ReqFixed + m.Xfer(bytes); d > worst {
			worst = d
		}
		i = j
	}
	return worst
}

// SieveCost prices the sieved execution of the covering spans: one
// request moving the whole span per device for reads, two requests
// moving it twice for the read-modify-write of writes; again the
// slowest device bounds the operation.
func (m CostModel) SieveCost(spans []SieveSpan, bs int64, write bool) time.Duration {
	var worst time.Duration
	for _, sp := range spans {
		d := m.ReqFixed + m.Xfer(sp.Blocks*bs)
		if write && sp.Useful < sp.Blocks {
			d *= 2
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// ChooseVecStrategy resolves StrategyAuto for one Set transfer: the
// descriptor is mapped once and the vectored and sieved executions are
// priced; the cheaper one wins (ties to vectored, which never moves
// bytes nobody asked for).
func (s *Set) ChooseVecStrategy(m CostModel, vec Vec, write bool) (Strategy, error) {
	if err := s.checkVec("ChooseVecStrategy", vec, -1); err != nil {
		return 0, err
	}
	runs, err := s.mapVec("ChooseVecStrategy", vec)
	if err != nil {
		return 0, err
	}
	return m.choose(runs, int64(s.store.BlockSize()), write), nil
}

// choose prices mapped runs both ways and names the cheaper strategy.
func (m CostModel) choose(runs []Run, bs int64, write bool) Strategy {
	if m.SieveCost(sieveSpans(runs), bs, write) < m.VecCost(runs, bs) {
		return StrategySieved
	}
	return StrategyVectored
}

// ReadVecStrategy reads the blocks described by vec into buf, scattering
// each segment's blocks at its buffer offset, as strat directs: vectored
// (also what StrategyDefault and StrategyCollective mean at this layer),
// sieved, or — StrategyAuto — whichever the cost model prices cheaper for
// this descriptor. It is the Set's one read entry point for anything
// larger than a block.
func (s *Set) ReadVecStrategy(ctx sim.Context, strat Strategy, m CostModel, vec Vec, buf []byte) error {
	return s.transfer(ctx, "ReadVec", false, strat, m, vec, buf)
}

// WriteVecStrategy writes the blocks described by vec from buf — the
// write counterpart of ReadVecStrategy.
func (s *Set) WriteVecStrategy(ctx sim.Context, strat Strategy, m CostModel, vec Vec, buf []byte) error {
	return s.transfer(ctx, "WriteVec", true, strat, m, vec, buf)
}

// transfer takes one descriptor down the pipeline: validate, map,
// transform if the strategy is (or prices out as) sieved, issue.
func (s *Set) transfer(ctx sim.Context, op string, write bool, strat Strategy, m CostModel, vec Vec, buf []byte) error {
	if err := s.checkVec(op, vec, int64(len(buf))); err != nil {
		return err
	}
	runs, err := s.mapVec(op, vec)
	if err != nil {
		return err
	}
	if strat == StrategyAuto {
		strat = m.choose(runs, int64(s.store.BlockSize()), write)
	}
	var body runBody
	if strat == StrategySieved {
		runs = sieveRuns(runs)
		if write {
			body = s.sievedWrite
		}
	}
	return issue(ctx, s.store, op, write, runs, buf, 0, body)
}
