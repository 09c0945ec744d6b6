package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	pario "repro"
	"repro/internal/buffer"
	"repro/internal/probe"
	"repro/internal/workload"
)

// DirectMix is the benchmark's GDA phase as a fixture: Procs processes
// share one direct-access handle on a file eight times the size of its
// CacheBlocks-frame buffer pool, over 8 tuned drives (1 KiB records, four
// to a 4 KiB block). Each makes Accesses record accesses drawn
// Zipf(1.1): three in ten rewrite a record of its own, the rest read a
// neighbour's.
type DirectMix struct {
	Procs       int
	Accesses    int
	CacheBlocks int
	IOProcs     int             // the handle's write-behind processes
	Rec         *probe.Recorder // nil: detached
	Scope       string
}

// DirectMixResult is what one DirectMix run measured.
type DirectMixResult struct {
	Elapsed  time.Duration // until the last process is done; Close comes after
	Requests int64         // device requests, Close included
	Cache    buffer.CacheStats
}

const (
	mixDrives  = 8
	mixRecSize = 1024
	mixBlkRecs = 4
)

// Run executes the mix and verifies it: every read returns the version
// its record last got, and after Close the file holds every record's
// last version.
func (c DirectMix) Run() (DirectMixResult, error) {
	var res DirectMixResult
	pf := pario.TunedProfile()
	m := pario.NewProfiledMachine(mixDrives, pf)
	if c.Rec != nil {
		c.Rec.SetScope(c.Scope)
		m.SetProbe(c.Rec)
	}
	opts := pf.Access
	opts.CacheBlocks, opts.IOProcs = c.CacheBlocks, c.IOProcs
	recs := int64(8 * c.CacheBlocks * mixBlkRecs)
	f, err := m.Volume.Create(pario.Spec{Name: "gda", Org: pario.OrgGlobalDirect,
		RecordSize: mixRecSize, BlockRecords: mixBlkRecs, NumRecords: recs})
	if err != nil {
		return res, err
	}
	d, err := pario.OpenDirect(f, opts)
	if err != nil {
		return res, err
	}
	version := make([]int, recs) // 0: never written, reads as zeros
	expect := func(want []byte, rec int64) {
		clear(want)
		if version[rec] > 0 {
			stamp(want, rec, version[rec])
		}
	}
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	m.Go("driver", func(p *pario.Proc) {
		var g pario.Group
		for w := 0; w < c.Procs; w++ {
			g.Spawn(p.Engine(), fmt.Sprintf("p%d", w), func(sp *pario.Proc) {
				zipf := workload.NewZipfAccess(uint64(1+w)*7919, recs/int64(c.Procs), 1.1)
				coin := rand.New(rand.NewSource(int64(1+w) * 104729))
				buf, want := make([]byte, mixRecSize), make([]byte, mixRecSize)
				for i := 0; i < c.Accesses && runErr == nil; i++ {
					if coin.Intn(10) < 3 {
						rec := zipf.Next()*int64(c.Procs) + int64(w) // a record only w writes
						stamp(buf, rec, version[rec]+1)
						if err := d.WriteRecordAt(sp, rec, buf); err != nil {
							fail(err)
							return
						}
						version[rec]++
						continue
					}
					rec := zipf.Next()*int64(c.Procs) + int64((w+1)%c.Procs)
					if err := d.ReadRecordAt(sp, rec, buf); err != nil {
						fail(err)
						return
					}
					if expect(want, rec); !bytes.Equal(buf, want) {
						fail(fmt.Errorf("process %d read a stale record %d", w, rec))
					}
				}
			})
		}
		g.Wait(p)
		res.Elapsed = p.Now()
		res.Cache = d.CacheStats()
		if err := d.Close(p); err != nil {
			fail(err)
		}
	})
	if err := m.Run(); err != nil {
		return res, err
	}
	if runErr != nil {
		return res, runErr
	}
	for _, dk := range m.Disks {
		res.Requests += dk.Stats().Requests()
	}
	img := make([]byte, recs*mixRecSize)
	if err := f.Set().ReadVec(pario.NewWall(), pario.Vec{{Block: 0, N: recs / mixBlkRecs}}, img); err != nil {
		return res, err
	}
	want := make([]byte, mixRecSize)
	for rec := int64(0); rec < recs; rec++ {
		if expect(want, rec); !bytes.Equal(img[rec*mixRecSize:][:mixRecSize], want) {
			return res, fmt.Errorf("record %d on the drives is not its version %d", rec, version[rec])
		}
	}
	return res, nil
}
