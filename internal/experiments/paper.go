package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The paper rows' fixture: f1, e1–e4, e6, e7 and e9–e11 are parameter
// tables over organization, the sibling of Checkpoint and rawScan for the
// paper's access methods.

// fillSeed is the workload.Record stream every organization's file holds.
const fillSeed = 1989

// record stamps record r of an organization's file into buf. It is a
// variable so that a test can break the fill and see every row fail.
var record = func(buf []byte, r int64) { workload.Record(buf, fillSeed, r) }

// view is what a consumer reads its records through.
type view int

const (
	global      view = iota // core.OpenReader: the whole file in order
	part                    // core.OpenPartReader of partition part
	interleaved             // core.OpenInterleavedReader of part, stride
	claim                   // the phase's shared core.SelfSched: a record a claim
	claimBlocks             // the same, a whole block a claim
)

// recordReader is a read view: core's streams, boundary's part and dedup
// readers.
type recordReader interface {
	ReadRecord(ctx sim.Context) ([]byte, int64, error)
	Close(ctx sim.Context) error
}

// consumer is one process of a phase: it opens its view (open, when set,
// instead), reads to EOF, checks every record against its stamp and
// computes for compute per record it got.
type consumer struct {
	view         view
	part, stride int
	opts         core.Options
	compute      time.Duration
	open         func(p *sim.Proc, f *pfs.File, part int) (recordReader, error)
}

// team is n consumers of view v, the i-th reading partition i with stride
// n through opts, each computing compute per record.
func team(n int, v view, opts core.Options, compute time.Duration) []consumer {
	cs := make([]consumer, n)
	for i := range cs {
		cs[i] = consumer{view: v, part: i, stride: n, opts: opts, compute: compute}
	}
	return cs
}

// organization is one machine of a paper row: drives 1989 drives under
// sched and one file of spec (create, when set, instead), filled by one
// process through the global writer with stamped records (fill, when set,
// instead). Then comes the timed body: before, when set, and the phases in
// turn, the consumers of a phase all together.
type organization struct {
	drives      int
	sched       device.Sched
	spec        pfs.Spec
	create      func(vol *pfs.Volume) (*pfs.File, error)
	fill        func(p *sim.Proc, f *pfs.File) error
	fillOpts    core.Options
	fillCompute time.Duration // before each record the global writer writes
	// before opens the body and returns the file the phases read.
	before func(p *sim.Proc, vol *pfs.Volume, f *pfs.File) (*pfs.File, error)
	phases [][]consumer
	// seen, when set, is told of every record a consumer has checked, in
	// the order the consumers read them; consumer is its index in the phase.
	seen func(consumer int, rec int64)
}

// orgResult is what one organization run measured.
type orgResult struct {
	file            *pfs.File
	fill            time.Duration   // the fill, from time 0
	ends            []time.Duration // each phase's end, from the body's start
	finish          []time.Duration // each consumer of the last phase: its end, from the body's start
	claims          int64           // reads that returned records, every phase
	seeks, seekCyls int64           // the drives', in the body
}

// run builds the machine, recorded through rec (nil: detached), and runs
// it. An error anywhere — the fill, before, any consumer's open, read,
// check or close — fails the run.
func (o organization) run(rec *probe.Recorder) (orgResult, error) {
	var res orgResult
	e := sim.NewEngine()
	disks, vol, err := array(rec, e, o.drives, device.Config{Geometry: geom1989(), Sched: o.sched})
	if err != nil {
		return res, err
	}
	if o.create == nil {
		res.file, err = vol.Create(o.spec)
	} else {
		res.file, err = o.create(vol)
	}
	if err != nil {
		return res, err
	}
	if o.fill == nil {
		o.fill = o.globalFill
	}
	_, err = runMain(e, func(p *sim.Proc) error {
		f := res.file
		if err := o.fill(p, f); err != nil {
			return err
		}
		res.fill = p.Now()
		for _, d := range disks {
			d.ResetStats()
		}
		start := p.Now()
		if o.before != nil {
			var err error
			if f, err = o.before(p, vol, f); err != nil {
				return err
			}
		}
		for _, cs := range o.phases {
			if err := res.phase(p, f, cs, start, o.seen); err != nil {
				return err
			}
			res.ends = append(res.ends, p.Now()-start)
		}
		return nil
	})
	res.seeks, res.seekCyls = sumSeeks(disks)
	return res, err
}

// globalFill writes every record of f, stamped, through one S writer.
func (o *organization) globalFill(p *sim.Proc, f *pfs.File) error {
	w, err := core.OpenWriter(f, o.fillOpts)
	if err != nil {
		return err
	}
	buf := make([]byte, f.Mapper().RecordSize())
	for r := int64(0); r < f.Mapper().NumRecords(); r++ {
		if o.fillCompute > 0 {
			p.Sleep(o.fillCompute)
		}
		record(buf, r)
		if _, err := w.WriteRecord(p, buf); err != nil {
			return errors.Join(err, w.Close(p))
		}
	}
	return w.Close(p)
}

// phase runs one phase's consumers together. The self-scheduled ones
// share a handle opened with the first one's options before any starts and
// closed after the last ends.
func (res *orgResult) phase(p *sim.Proc, f *pfs.File, cs []consumer, start time.Duration, seen func(int, int64)) error {
	var ss *core.SelfSched
	for _, c := range cs {
		if c.view >= claim && ss == nil {
			var err error
			if ss, err = core.OpenSelfSched(f, core.SSRead, c.opts); err != nil {
				return err
			}
		}
	}
	errs := make([]error, len(cs), len(cs)+1)
	res.finish = make([]time.Duration, len(cs))
	var g sim.Group
	for i, c := range cs {
		g.Spawn(p.Engine(), "w", func(w *sim.Proc) {
			report := func(rec int64) {
				if seen != nil {
					seen(i, rec)
				}
			}
			if err := c.consume(w, f, ss, &res.claims, report); err != nil {
				errs[i] = fmt.Errorf("consumer %d: %w", i, err)
			}
			res.finish[i] = w.Now() - start
		})
	}
	g.Wait(p)
	if ss != nil {
		errs = append(errs, ss.Close(p))
	}
	return errors.Join(errs...)
}

// consume is one consumer's process; it reports each record it checked.
func (c consumer) consume(p *sim.Proc, f *pfs.File, ss *core.SelfSched, claims *int64, report func(rec int64)) error {
	rd, err := c.reader(p, f, ss)
	if err != nil {
		return err
	}
	rs := f.Mapper().RecordSize()
	for {
		data, first, err := rd.ReadRecord(p)
		if err == io.EOF {
			return rd.Close(p)
		}
		for k := 0; err == nil && k < len(data)/rs; k++ {
			err = workload.CheckRecord(data[k*rs:][:rs], fillSeed, first+int64(k))
		}
		if err != nil {
			return errors.Join(err, rd.Close(p))
		}
		for k := 0; k < len(data)/rs; k++ {
			report(first + int64(k))
		}
		*claims++
		if c.compute > 0 {
			p.Sleep(time.Duration(len(data)/rs) * c.compute)
		}
	}
}

// reader opens the consumer's view of f.
func (c consumer) reader(p *sim.Proc, f *pfs.File, ss *core.SelfSched) (recordReader, error) {
	switch {
	case c.open != nil:
		return c.open(p, f, c.part)
	case c.view == global:
		return core.OpenReader(f, c.opts)
	case c.view == part:
		return core.OpenPartReader(f, c.part, c.opts)
	case c.view == interleaved:
		return core.OpenInterleavedReader(f, c.part, c.stride, c.opts)
	}
	m := f.Mapper()
	return &claimer{ss, c.view == claimBlocks, make([]byte, m.RecordSize()), int64(m.BlockRecords())}, nil
}

// claimer reads a shared self-scheduled handle, a record or a whole block
// a claim.
type claimer struct {
	ss     *core.SelfSched
	blocks bool
	dst    []byte
	per    int64 // records a block
}

func (c *claimer) ReadRecord(ctx sim.Context) ([]byte, int64, error) {
	if c.blocks {
		data, b, err := c.ss.ReadNextBlock(ctx)
		return data, b * c.per, err
	}
	r, err := c.ss.ReadNext(ctx, c.dst)
	return c.dst, r, err
}

// Close leaves the handle to the phase, which outlives its claimers.
func (*claimer) Close(sim.Context) error { return nil }
