// Package reliability implements the paper's §5 reliability analysis and
// mechanisms:
//
//   - the MTBF arithmetic ("assuming a MTBF of 30,000 hours for each
//     storage device, a file system containing 10 devices could be
//     expected to fail every 3000 hours ... a system with 100 devices
//     would average more than one failure every two weeks");
//   - Monte-Carlo failure campaigns over exponential lifetimes, with and
//     without single-failure redundancy (parity / shadowing);
//   - end-to-end inject/recover scenarios on parity and mirror stores;
//   - the rollback-consistency property: "if a single drive fails, it is
//     not sufficient to restore just that disk from backups — all of the
//     disks will have to be rolled back to the same point in time".
package reliability

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stripe"
	"repro/internal/workload"
)

// Hours is a convenience duration unit.
const Hours = time.Hour

// DeviceMTBF1989 is the drive MTBF the paper assumes.
const DeviceMTBF1989 = 30000 * Hours

// SystemMTBF reports the mean time between failures of n independent
// devices in series (any failure fails the system): MTBF/n.
func SystemMTBF(deviceMTBF time.Duration, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return deviceMTBF / time.Duration(n)
}

// FailuresPerYear reports the expected yearly failure count for a system
// with the given MTBF.
func FailuresPerYear(mtbf time.Duration) float64 {
	if mtbf <= 0 {
		return 0
	}
	year := 365.25 * 24 * float64(Hours)
	return year / float64(mtbf)
}

// MTTFSingleFaultHours approximates the mean time to data loss, in
// hours, of an n-drive group that tolerates one failure and repairs in
// mttr (the classical Markov result MTBF² / (n·(n−1)·MTTR)). Hours avoid
// the time.Duration overflow these very large MTTFs hit.
func MTTFSingleFaultHours(deviceMTBF, mttr time.Duration, n int) float64 {
	if n < 2 || mttr <= 0 {
		return 0
	}
	m := deviceMTBF.Hours()
	return m * m / (float64(n) * float64(n-1) * mttr.Hours())
}

// CampaignResult summarizes a Monte-Carlo failure campaign.
type CampaignResult struct {
	Missions     int
	DataLoss     int     // missions that lost data
	MeanFailures float64 // device failures per mission
}

// LossRate reports the fraction of missions with data loss.
func (c CampaignResult) LossRate() float64 {
	if c.Missions == 0 {
		return 0
	}
	return float64(c.DataLoss) / float64(c.Missions)
}

// Campaign simulates `missions` independent missions of the given length
// over n drives with exponential lifetimes (mean deviceMTBF) and repair
// time mttr. The drives are split into `groups` equal redundancy groups,
// each tolerating `tolerate` concurrent outages (0 = plain array, 1 =
// parity group or mirror pair). Data is lost when any group's concurrent
// outages exceed its tolerance.
func Campaign(rng *sim.RNG, missions, n, groups, tolerate int,
	deviceMTBF, mttr, mission time.Duration) CampaignResult {
	if groups < 1 {
		groups = 1
	}
	perGroup := (n + groups - 1) / groups
	res := CampaignResult{Missions: missions}
	totalFailures := 0
	repairEnd := make([]time.Duration, n)
	next := make([]time.Duration, n)
	for m := 0; m < missions; m++ {
		lost := false
		failures := 0
		for d := range next {
			repairEnd[d] = 0
			next[d] = time.Duration(rng.ExpFloat64() * float64(deviceMTBF))
		}
		for {
			best := -1
			for d, t := range next {
				if t <= mission && (best == -1 || t < next[best]) {
					best = d
				}
			}
			if best == -1 {
				break
			}
			t := next[best]
			failures++
			g := best / perGroup
			concurrent := 1
			for d := g * perGroup; d < n && d < (g+1)*perGroup; d++ {
				if d != best && repairEnd[d] > t {
					concurrent++
				}
			}
			if concurrent > tolerate {
				lost = true
			}
			repairEnd[best] = t + mttr
			next[best] = repairEnd[best] + time.Duration(rng.ExpFloat64()*float64(deviceMTBF))
		}
		if lost {
			res.DataLoss++
		}
		totalFailures += failures
	}
	res.MeanFailures = float64(totalFailures) / float64(missions)
	return res
}

// WritePattern fills f with the workload pattern for seed through the
// sequential view.
func WritePattern(ctx sim.Context, f *pfs.File, seed uint64) error {
	w, err := core.OpenWriter(f, core.Options{})
	if err != nil {
		return err
	}
	buf := make([]byte, f.Mapper().RecordSize())
	for rec := int64(0); rec < f.Mapper().NumRecords(); rec++ {
		workload.Record(buf, seed, rec)
		if _, err := w.WriteRecord(ctx, buf); err != nil {
			w.Close(ctx)
			return err
		}
	}
	return w.Close(ctx)
}

// VerifyPattern checks that every record of f carries the workload
// pattern for seed.
func VerifyPattern(ctx sim.Context, f *pfs.File, seed uint64) error {
	r, err := core.OpenReader(f, core.Options{})
	if err != nil {
		return err
	}
	defer r.Close(ctx)
	for {
		data, rec, err := r.ReadRecord(ctx)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := workload.CheckRecord(data, seed, rec); err != nil {
			return err
		}
	}
}

// ParityScenario runs the end-to-end §5 scenario on a parity store:
// write a pattern, fail one physical drive, verify degraded reads still
// return correct data, install a blank replacement, rebuild, and verify
// clean reads. It returns the virtual time spent in the rebuild phase.
func ParityScenario(ctx sim.Context, par *stripe.Parity, f *pfs.File, failPhys int, seed uint64) (time.Duration, error) {
	if err := WritePattern(ctx, f, seed); err != nil {
		return 0, fmt.Errorf("reliability: write: %w", err)
	}
	par.Drives()[failPhys].Fail()
	if err := VerifyPattern(ctx, f, seed); err != nil {
		return 0, fmt.Errorf("reliability: degraded read: %w", err)
	}
	// Blank replacement arrives; rebuild every allocated row.
	if err := par.Drives()[failPhys].Erase(); err != nil {
		return 0, err
	}
	par.Drives()[failPhys].Repair()
	start := ctx.Now()
	rows := rowsInUse(par.Blocks(), f)
	if err := par.Rebuild(ctx, failPhys, rows); err != nil {
		return 0, fmt.Errorf("reliability: rebuild: %w", err)
	}
	rebuildTime := ctx.Now() - start
	if err := VerifyPattern(ctx, f, seed); err != nil {
		return rebuildTime, fmt.Errorf("reliability: post-rebuild read: %w", err)
	}
	return rebuildTime, nil
}

// MirrorScenario runs the shadow-disk §5 scenario: write a pattern, fail
// a primary, verify reads fail over to the shadow, rebuild the primary
// from its twin, fail the shadow, and verify the rebuilt primary serves
// correct data alone.
func MirrorScenario(ctx sim.Context, mir *stripe.Mirror, f *pfs.File, dev int, seed uint64) (time.Duration, error) {
	if err := WritePattern(ctx, f, seed); err != nil {
		return 0, fmt.Errorf("reliability: write: %w", err)
	}
	mir.Drives()[dev].Fail() // the primaries, then their shadows
	if err := VerifyPattern(ctx, f, seed); err != nil {
		return 0, fmt.Errorf("reliability: failover read: %w", err)
	}
	if err := mir.Drives()[dev].Erase(); err != nil {
		return 0, err
	}
	mir.Drives()[dev].Repair()
	start := ctx.Now()
	rows := rowsInUse(mir.Blocks(), f)
	if err := mir.Rebuild(ctx, dev, rows, true); err != nil {
		return 0, fmt.Errorf("reliability: rebuild: %w", err)
	}
	rebuildTime := ctx.Now() - start
	mir.Drives()[mir.Devices()+dev].Fail()
	if err := VerifyPattern(ctx, f, seed); err != nil {
		return rebuildTime, fmt.Errorf("reliability: post-rebuild read: %w", err)
	}
	mir.Drives()[mir.Devices()+dev].Repair()
	return rebuildTime, nil
}

// rowsInUse bounds the physical rows a file can occupy (whole-device
// rebuilds are wasteful in experiments; rebuilding the file's extent
// suffices). It conservatively uses the file's total fs blocks, which is
// an upper bound on any single device's extent.
func rowsInUse(deviceBlocks int64, f *pfs.File) int64 {
	rows := f.Mapper().TotalFSBlocks()
	if rows > deviceBlocks {
		rows = deviceBlocks
	}
	return rows
}

// RollbackDemo demonstrates the §5 consistency hazard on a striped file
// over plain disks. It:
//  1. writes pattern A and takes a consistent backup of every drive;
//  2. writes pattern B (the file evolves past the backup);
//  3. simulates losing one drive and restoring ONLY it from the backup;
//  4. checks the file is now inconsistent (a mix of A and B);
//  5. rolls ALL drives back to the common snapshot and verifies pattern A.
//
// It returns (inconsistentAfterSingleRestore, consistentAfterFullRollback).
func RollbackDemo(ctx sim.Context, disks []*device.Disk, f *pfs.File, backupDrive int) (bool, bool, error) {
	if err := WritePattern(ctx, f, 0xA); err != nil {
		return false, false, err
	}
	full := make([]map[int64][]byte, len(disks))
	for i, d := range disks {
		snap, err := d.Snapshot()
		if err != nil {
			return false, false, err
		}
		full[i] = snap
	}
	if err := WritePattern(ctx, f, 0xB); err != nil {
		return false, false, err
	}
	if err := disks[backupDrive].Restore(full[backupDrive]); err != nil {
		return false, false, err
	}
	inconsistent := VerifyPattern(ctx, f, 0xB) != nil

	for i, d := range disks {
		if err := d.Restore(full[i]); err != nil {
			return false, false, err
		}
	}
	consistent := VerifyPattern(ctx, f, 0xA) == nil
	return inconsistent, consistent, nil
}

// ScheduleFailure arranges for the disk to fail at the given virtual
// time (a background failure-injection process).
func ScheduleFailure(e *sim.Engine, d *device.Disk, at time.Duration) {
	e.Go("failure-injector", func(p *sim.Proc) {
		p.SleepUntil(at)
		d.Fail()
	})
}
