// Multi-job QoS acceptance: a victim job sharing the I/O service with a
// bully job must see its latency bounded by the scheduler — fair-share
// below FIFO's p99, strict priority at least 2× below — and the whole
// contended scenario must be bit-for-bit deterministic (ISSUE 7
// acceptance numbers, enforced so they cannot regress).
//
// The scenario is the service-era shape the paper's §2 MIMD machine
// could not express: two independent parallel programs (a 4-rank bully
// checkpointing a 512-block file through six back-to-back nonblocking
// collectives, and a 4-rank victim issuing eight small collectives
// arriving just after) share one I/O server with a single device
// worker. Every call reaches the server as one request. Under FIFO the
// victim's calls queue behind the bully's whole backlog; fair-share
// interleaves dispatches by served bytes; strict priority lets every
// victim call overtake the queue.
package pario_test

import (
	"testing"
	"time"

	pario "repro"
	"repro/internal/experiments"
)

// mjRun is one measured contended run.
type mjRun struct {
	bully, victim pario.IOJobStats
	makespan      time.Duration
}

// runMultijob executes the bully/victim mix on two drives under the given
// policy (victimPrio raises the victim's lane for the Priority runs),
// under a live recorder — it must not perturb modeled time or lane stats —
// and returns both lanes' stats and the modeled makespan.
func runMultijob(tb testing.TB, pol pario.IOPolicy, victimPrio int) mjRun {
	tb.Helper()
	res, err := experiments.Multijob{
		Drives: 2, Policy: pol, Rec: pario.NewRecorder(),
		Jobs: []experiments.Job{
			// Six checkpoints issued back to back — the backlog — then the
			// Waits in issue order.
			{Name: "bully", Blocks: 512, Calls: 6, Backlog: true},
			// Eight small writes, one at a time, arriving behind the backlog.
			{Name: "victim", Blocks: 64, Calls: 8, Delay: 10 * time.Millisecond, Priority: victimPrio},
		},
	}.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return mjRun{bully: res.Lanes[0], victim: res.Lanes[1], makespan: res.Makespan}
}

// TestMultijobQoS enforces the scheduler wins through the full
// collective path: fair-share bounds the victim's p99 below FIFO's,
// and strict priority cuts it at least 2×.
func TestMultijobQoS(t *testing.T) {
	fifo := runMultijob(t, pario.IOFIFO, 0)
	fair := runMultijob(t, pario.IOFairShare, 0)
	prio := runMultijob(t, pario.IOPriority, 1)
	t.Logf("victim p99: fifo %v fair %v prio %v", fifo.victim.P99, fair.victim.P99, prio.victim.P99)
	if fair.victim.P99 >= fifo.victim.P99 {
		t.Errorf("fair-share did not bound the victim: p99 %v vs FIFO %v", fair.victim.P99, fifo.victim.P99)
	}
	if prio.victim.P99*2 > fifo.victim.P99 {
		t.Errorf("priority win under 2x: p99 %v vs FIFO %v", prio.victim.P99, fifo.victim.P99)
	}
	// The bully still finishes: QoS reorders the backlog, it does not
	// starve it (its lane drains by the makespan under every policy). A
	// lane request is a whole collective call, so the lanes count calls —
	// six checkpoints, eight small writes — not aggregator domains.
	for _, r := range []mjRun{fifo, fair, prio} {
		if r.bully.Completed != 6 || r.victim.Completed != 8 {
			t.Errorf("lane accounting off: bully %+v victim %+v", r.bully, r.victim)
		}
	}
}

// TestMultijobDeterminism: the same contended mix twice gives
// bit-identical modeled makespans and stats snapshots (latency
// percentiles included) under every policy.
func TestMultijobDeterminism(t *testing.T) {
	for _, pol := range []pario.IOPolicy{pario.IOFIFO, pario.IOFairShare, pario.IOPriority} {
		a := runMultijob(t, pol, 1)
		b := runMultijob(t, pol, 1)
		if a != b {
			t.Fatalf("policy %v: runs differ:\n%+v\n%+v", pol, a, b)
		}
	}
}

// BenchmarkMultijob reports the contended mix's trajectory numbers:
// victim p99 and makespan per policy on the contended mix.
func BenchmarkMultijob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fifo := runMultijob(b, pario.IOFIFO, 0)
		fair := runMultijob(b, pario.IOFairShare, 0)
		prio := runMultijob(b, pario.IOPriority, 1)
		b.ReportMetric(float64(fifo.victim.P99.Microseconds()), "fifo-victim-p99-µs")
		b.ReportMetric(float64(fair.victim.P99.Microseconds()), "fair-victim-p99-µs")
		b.ReportMetric(float64(prio.victim.P99.Microseconds()), "prio-victim-p99-µs")
		b.ReportMetric(float64(fifo.makespan.Milliseconds()), "makespan-ms")
	}
}
