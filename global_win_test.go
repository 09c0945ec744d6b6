// Global-view acceptance: a conventional program reading a parallel file
// through io.Reader must get the read-ahead pipeline — extent-sized
// coalesced requests over every drive, overlapped with its own work —
// not one synchronous request per block. These are the ISSUE 13
// acceptance numbers, enforced as a test so they cannot regress; virtual
// time and device counters only.
package pario_test

import (
	"encoding/binary"
	"io"
	"testing"
	"time"

	pario "repro"
)

const (
	globalScanBlocks  = 2048
	globalScanRecSize = 1024
	globalScanRecs    = globalScanBlocks * 4 // four records per 4 KiB block
)

// globalScanResult is one measured whole-file scan by one process.
type globalScanResult struct {
	requests int64         // device requests during the read
	elapsed  time.Duration // virtual time of the read
}

// runGlobalScan writes a unit-1 striped S file of 2 048 blocks over 8
// default drives and has one process read every 1 KiB record back
// through the view `open` returns, checking each.
func runGlobalScan(t *testing.T, open func(f *pario.File, p *pario.Proc) (next func(rec []byte) error, close func() error, err error)) globalScanResult {
	t.Helper()
	m := pario.NewMachine(8)
	f, err := m.Volume.Create(pario.Spec{
		Name: "scan", Org: pario.OrgSequential,
		RecordSize: globalScanRecSize, BlockRecords: 4, NumRecords: globalScanRecs,
		Placement: pario.PlaceStriped, StripeUnitFS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res globalScanResult
	m.Go("scan", func(p *pario.Proc) {
		w, err := pario.OpenWriter(f, pario.TunedProfile().Access)
		if err != nil {
			t.Error(err)
			return
		}
		rec := make([]byte, globalScanRecSize)
		for r := uint64(0); r < globalScanRecs; r++ {
			binary.BigEndian.PutUint64(rec, r)
			binary.BigEndian.PutUint64(rec[globalScanRecSize-8:], ^r)
			if _, err := w.WriteRecord(p, rec); err != nil {
				t.Error(err)
				return
			}
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
			return
		}
		for _, d := range m.Disks {
			d.ResetStats()
		}
		start := p.Now()
		next, closeView, err := open(f, p)
		if err != nil {
			t.Error(err)
			return
		}
		for r := uint64(0); r < globalScanRecs; r++ {
			if err := next(rec); err != nil {
				t.Errorf("record %d: %v", r, err)
				return
			}
			if binary.BigEndian.Uint64(rec) != r || binary.BigEndian.Uint64(rec[globalScanRecSize-8:]) != ^r {
				t.Errorf("record %d: wrong bytes", r)
				return
			}
		}
		if err := closeView(); err != nil {
			t.Error(err)
		}
		res.elapsed = p.Now() - start
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, d := range m.Disks {
		res.requests += d.Stats().Requests()
	}
	return res
}

// streamScan reads records through OpenReader under opts.
func streamScan(t *testing.T, opts pario.Options) globalScanResult {
	return runGlobalScan(t, func(f *pario.File, p *pario.Proc) (func([]byte) error, func() error, error) {
		r, err := pario.OpenReader(f, opts)
		if err != nil {
			return nil, nil, err
		}
		next := func(rec []byte) error {
			data, _, err := r.ReadRecord(p)
			copy(rec, data)
			return err
		}
		return next, func() error { return r.Close(p) }, nil
	})
}

// TestGlobalViewReadAheadWin: the same scan through OpenGlobalReader in
// 1 KiB io.ReadFulls is ≥ 10× faster in modeled time than block-at-a-time
// streaming (OpenReader under DefaultOptions, the equal of the global
// view's old behaviour), within 5 % of the S stream view under
// TunedOptions, and issues at most one device request per four blocks.
func TestGlobalViewReadAheadWin(t *testing.T) {
	perBlock := streamScan(t, pario.DefaultOptions())
	tuned := streamScan(t, pario.TunedProfile().Access)
	global := runGlobalScan(t, func(f *pario.File, p *pario.Proc) (func([]byte) error, func() error, error) {
		gr, err := pario.OpenGlobalReader(f, p)
		if err != nil {
			return nil, nil, err
		}
		next := func(rec []byte) error {
			_, err := io.ReadFull(gr, rec)
			return err
		}
		return next, gr.Close, nil
	})
	speedup := perBlock.elapsed.Seconds() / global.elapsed.Seconds()
	t.Logf("block-at-a-time: %d requests, %v; tuned stream: %d, %v; global view: %d, %v (%.1fx)",
		perBlock.requests, perBlock.elapsed, tuned.requests, tuned.elapsed,
		global.requests, global.elapsed, speedup)
	if speedup < 10 {
		t.Errorf("global view only %.2fx faster than block-at-a-time, want ≥ 10x", speedup)
	}
	if lim := tuned.elapsed + tuned.elapsed/20; global.elapsed > lim {
		t.Errorf("global view %v, more than 5%% over the tuned stream view's %v", global.elapsed, tuned.elapsed)
	}
	if global.requests > globalScanBlocks/4 {
		t.Errorf("global view issued %d device requests for %d blocks, want ≤ %d",
			global.requests, globalScanBlocks, globalScanBlocks/4)
	}
}
