package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"time"

	pario "repro"
	"repro/internal/workload"
)

// org_scan: the paper's organizations driven by independent processes —
// no rank group, no collective, no I/O server. One op is one phase, all
// processes between two barriers.
const (
	scanProcs   = 16
	scanDrives  = 8
	scanRecSize = 1024
	scanBlkRecs = 4    // records per paper-block: one 4 KiB fs block
	scanPerPart = 2048 // records each process streams per PS / IS phase
	scanSeqRecs = 8192 // S file, read by one process through the global view
	scanTasks   = 4096 // SS queue length
	scanGDAOps  = 512  // record accesses per process per GDA phase
	scanPhases  = 7
	scanMaxSkew = 10 * time.Millisecond
)

var scanPhaseNames = [scanPhases]string{"ps-write", "ps-read", "is-write", "is-read", "s-global-read", "ss-read", "gda-mixed"}

// scanFile is one benchmark file and the reference-model index of its
// record 0.
type scanFile struct {
	f  *pario.File
	at int64
}

type scanFixture struct {
	seed                 uint64
	w                    *world
	opts                 pario.Options
	total                int
	ps, is, seq, ss, gda scanFile
	ref                  *refModel
	pay                  [][]byte                   // per process: one seeded record
	zipf                 []*workload.AccessPattern  // per process GDA skew
	coin                 []*rand.Rand               // per process read/write draw
	direct               *pario.Direct              // the shared GDA handle
	skew                 [][scanProcs]time.Duration // per op: compute each process does before its I/O
	recs, checks         int64                      // records moved / checked by the current op (all processes)
}

func (fx *scanFixture) world() *world              { return fx.w }
func (fx *scanFixture) attach(rec *pario.Recorder) { fx.w.attach(rec) }

// newScan is org_scan's set-up: machine, the five files, per-process
// payloads and access streams, and the two input files' contents.
func newScan(seed uint64, total int) (fixture, error) {
	pf := pario.TunedProfile()
	m := pario.NewProfiledMachine(scanDrives, pf)
	fx := &scanFixture{seed: seed, w: &world{m: m}, opts: pf.Access, total: total}
	rng := rand.New(rand.NewSource(int64(seed)))
	// Seeded pad, as in the checkpoint workloads: placement depends on the seed.
	if _, err := m.Volume.Create(pario.Spec{Name: "pad", RecordSize: blockSize, BlockRecords: 1,
		NumRecords: int64(scanDrives * (64 + rng.Intn(64*8)))}); err != nil {
		return nil, err
	}
	var next int64
	var err error
	create := func(name string, org pario.Organization, parts int, recs int64) scanFile {
		if err != nil {
			return scanFile{}
		}
		var f *pario.File
		f, err = m.Volume.Create(pario.Spec{Name: name, Org: org, Parts: parts,
			RecordSize: scanRecSize, BlockRecords: scanBlkRecs, NumRecords: recs})
		sf := scanFile{f, next}
		next += recs
		return sf
	}
	gdaRecs := int64(8 * fx.opts.CacheBlocks * scanBlkRecs) // working set 8× the cache
	fx.ps = create("ps", pario.OrgPartitioned, scanProcs, scanProcs*scanPerPart)
	fx.is = create("is", pario.OrgInterleaved, scanProcs, scanProcs*scanPerPart)
	fx.seq = create("seq", pario.OrgSequential, 0, scanSeqRecs)
	fx.ss = create("ss", pario.OrgSelfScheduled, 0, scanTasks)
	fx.gda = create("gda", pario.OrgGlobalDirect, 0, gdaRecs)
	if err != nil {
		return nil, err
	}
	fx.ref = newRefModel(next, scanRecSize, func(slot int) []byte { return fx.pay[slot] })
	fx.pay = make([][]byte, scanProcs)
	fx.zipf = make([]*workload.AccessPattern, scanProcs)
	fx.coin = make([]*rand.Rand, scanProcs)
	for p := range fx.pay {
		fx.pay[p] = make([]byte, scanRecSize)
		newPayload(fx.pay[p], seed, p)
		fx.zipf[p] = workload.NewZipfAccess(seed+uint64(p)*7919, gdaRecs/scanProcs, 1.1)
		fx.coin[p] = rand.New(rand.NewSource(int64(seed) + int64(p)*104729))
	}

	// Processes reach their I/O at independent, seeded times, so a phase's
	// modeled length depends on the seed and not only on placement.
	fx.skew = make([][scanProcs]time.Duration, total)
	for op := range fx.skew {
		for p := range fx.skew[op] {
			fx.skew[op][p] = time.Duration(rng.Int63n(int64(scanMaxSkew)))
		}
	}

	// The S file and the SS task queue are inputs: written once here under
	// a wall context (devices complete instantly) from process 0's
	// payload; record i carries stamp i, which for the queue is its task id.
	wall := pario.NewWall()
	rec := append([]byte(nil), fx.pay[0]...)
	for _, in := range []scanFile{fx.seq, fx.ss} {
		w, err := pario.OpenWriter(in.f, fx.opts)
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < in.f.Spec().NumRecords; i++ {
			st := stamp(seed, int(i))
			binary.BigEndian.PutUint64(rec, st)
			if _, err := w.WriteRecord(wall, rec); err != nil {
				return nil, err
			}
			fx.ref.wrote(in.at+i, 0, st)
		}
		if err := w.Close(wall); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// readAll drains a stream view, checking every record.
func (fx *scanFixture) readAll(c *pario.Proc, r *pario.StreamReader, at int64) error {
	for {
		got, idx, err := r.ReadRecord(c)
		if err == io.EOF {
			return r.Close(c)
		}
		if err != nil {
			return err
		}
		fx.recs++
		fx.checks++
		if e := fx.ref.expect(at+idx, got); e != nil {
			return e
		}
	}
}

// writeAll streams process p's stamped record into its whole partition.
func (fx *scanFixture) writeAll(c *pario.Proc, w *pario.StreamWriter, at int64, p int, buf []byte, st uint64) error {
	for i := 0; i < scanPerPart; i++ {
		idx, err := w.WriteRecord(c, buf)
		if err != nil {
			return err
		}
		fx.recs++
		fx.ref.wrote(at+idx, p, st)
	}
	return w.Close(c)
}

// phase runs op's phase on process p.
func (fx *scanFixture) phase(c *pario.Proc, op, p int, ss *pario.SelfSched) error {
	c.Sleep(fx.skew[op][p])
	st := stamp(fx.seed, op)
	buf := make([]byte, scanRecSize)
	copy(buf, fx.pay[p])
	binary.BigEndian.PutUint64(buf, st)
	switch op % scanPhases {
	case 0:
		w, err := pario.OpenPartWriter(fx.ps.f, p, fx.opts)
		if err != nil {
			return err
		}
		return fx.writeAll(c, w, fx.ps.at, p, buf, st)
	case 1:
		r, err := pario.OpenPartReader(fx.ps.f, p, fx.opts)
		if err != nil {
			return err
		}
		return fx.readAll(c, r, fx.ps.at)
	case 2:
		w, err := pario.OpenInterleavedWriter(fx.is.f, p, scanProcs, fx.opts)
		if err != nil {
			return err
		}
		return fx.writeAll(c, w, fx.is.at, p, buf, st)
	case 3:
		r, err := pario.OpenInterleavedReader(fx.is.f, p, scanProcs, fx.opts)
		if err != nil {
			return err
		}
		return fx.readAll(c, r, fx.is.at)
	case 5:
		// Self-scheduled servers: claim the next task, check it, serve it
		// for its seeded service time.
		for {
			id, err := ss.ReadNext(c, buf)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			fx.recs++
			fx.checks++
			if e := fx.ref.expect(fx.ss.at+id, buf); e != nil {
				return e
			}
			c.Sleep(workload.ServiceOf(fx.seed, id, time.Millisecond, 20*time.Millisecond))
		}
	default: // 6: GDA, Zipf-skewed, 70 % reads / 30 % writes
		for i := 0; i < scanGDAOps; i++ {
			if fx.coin[p].Intn(10) < 3 {
				own := fx.zipf[p].Next()*scanProcs + int64(p) // a record only p writes
				if err := fx.direct.WriteRecordAt(c, own, buf); err != nil {
					return err
				}
				fx.ref.wrote(fx.gda.at+own, p, st)
			} else {
				// A record of the neighbour's, drawn by p's skew. Its owner
				// may be rewriting it right now, so the read is checked for
				// self-consistency under whatever stamp it carries; the
				// final verify checks every record's last stamp exactly.
				idx := fx.gda.at + fx.zipf[p].Next()*scanProcs + int64((p+1)%scanProcs)
				if err := fx.direct.ReadRecordAt(c, idx-fx.gda.at, buf); err != nil {
					return err
				}
				if fx.ref.slot[idx] != 0 {
					fx.checks++
					if e := fx.ref.expectAs(idx, buf, binary.BigEndian.Uint64(buf)); e != nil {
						return e
					}
				}
				copy(buf, fx.pay[p])
				binary.BigEndian.PutUint64(buf, st)
			}
			fx.recs++
		}
		return nil
	}
}

// globalRead is phase 4, the conventional view: one process reads the
// whole S file as a byte stream.
func (fx *scanFixture) globalRead(d *pario.Proc) error {
	gr, err := pario.OpenGlobalReader(fx.seq.f, d)
	if err != nil {
		return err
	}
	buf := make([]byte, scanRecSize)
	for i := int64(0); i < scanSeqRecs; i++ {
		if _, err := io.ReadFull(gr, buf); err != nil {
			return err
		}
		fx.recs++
		fx.checks++
		if e := fx.ref.expect(fx.seq.at+i, buf); e != nil {
			return e
		}
	}
	return nil
}

func (fx *scanFixture) run(c *clock) error {
	m := fx.w.m
	bad := make([]bool, fx.total)
	fail := func(op int, who string, err error) {
		if !bad[op] {
			fmt.Fprintf(logw, "op %d (%s) %s: %v\n", op, scanPhaseNames[op%scanPhases], who, err)
		}
		bad[op] = true
	}
	var runErr error
	var checked int64 // records checked during the timed ops
	m.Go("driver", func(d *pario.Proc) {
		if fx.direct, runErr = pario.OpenDirect(fx.gda.f, fx.opts); runErr != nil {
			return
		}
		c.arm(d.Now())
		vlast := d.Now()
		for op := 0; op < fx.total; op++ {
			timed := c.timing()
			fx.recs, fx.checks = 0, 0
			switch op % scanPhases {
			case 4:
				d.Sleep(fx.skew[op][0])
				if err := fx.globalRead(d); err != nil {
					fail(op, "driver", err)
				}
			default:
				var ss *pario.SelfSched
				if op%scanPhases == 5 {
					var err error
					if ss, err = pario.OpenSelfSched(fx.ss.f, pario.SSRead, fx.opts); err != nil {
						fail(op, "driver", err)
						break
					}
				}
				var g pario.Group
				for p := 0; p < scanProcs; p++ {
					p := p
					g.Spawn(d.Engine(), fmt.Sprintf("p%d", p), func(sp *pario.Proc) {
						if err := fx.phase(sp, op, p, ss); err != nil {
							fail(op, fmt.Sprintf("process %d", p), err)
						}
					})
				}
				g.Wait(d) // the barrier that closes the phase
				if ss != nil {
					if err := ss.Close(d); err != nil {
						fail(op, "driver", err)
					}
				}
			}
			if timed {
				c.records += fx.recs
				c.payload += fx.recs * scanRecSize
				checked += fx.checks
			}
			now := d.Now()
			c.tick(now, now-vlast)
			vlast = now
		}
		st := fx.direct.CacheStats()
		c.hits, c.lookups = st.Hits, st.Hits+st.Misses
		runErr = fx.direct.Close(d)
	})
	if err := m.Run(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	c.failed = countTrue(bad)
	// Checks are spread over every record read, too fine to time in place
	// without distorting the op; their cost is estimated from a
	// calibration loop over one record.
	const calib = 1 << 14
	t0 := time.Now()
	good := append([]byte(nil), fx.pay[0]...)
	binary.BigEndian.PutUint64(good, fx.ref.stamp[fx.seq.at])
	for i := 0; i < calib; i++ {
		_ = fx.ref.expect(fx.seq.at, good)
	}
	c.verify = time.Duration(float64(time.Since(t0)) / calib * float64(checked))
	for _, v := range []scanFile{fx.ps, fx.is, fx.gda} {
		if err := fx.ref.verifyFile(v.f, v.at, c); err != nil {
			return err
		}
	}
	return nil
}
