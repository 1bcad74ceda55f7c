package bench

import (
	"fmt"
	"io"
	"time"

	"shadowdb/internal/core"
)

// Ablations for the design choices DESIGN.md calls out: how much of the
// broadcast service's throughput comes from batching ("All versions of
// the broadcast service implement batching"), and how much of PBR's
// recovery hinges on the state-transfer overlap optimization (resuming
// with one recovered backup instead of waiting for all).

// AblationResult compares a design choice on/off.
type AblationResult struct {
	Name    string
	WithOn  float64
	WithOff float64
	Unit    string
}

// String renders the ablation row.
func (a AblationResult) String() string {
	return fmt.Sprintf("%-32s on=%10.1f %-6s off=%10.1f %-6s (%.2fx)",
		a.Name, a.WithOn, a.Unit, a.WithOff, a.Unit, safeRatio(a.WithOn, a.WithOff))
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// AblationBatching measures SMR micro-benchmark throughput with the
// broadcast service batching freely vs restricted to one message per
// proposal.
func AblationBatching(clients, txPer, rows int) AblationResult {
	run := func(maxBatch int) float64 {
		d := newShadow(shadowSpec{mode: core.ModeSMR, reg: core.BankRegistry(), setup: bankSetup(rows), batch: maxBatch})
		stats := &loadStats{}
		work := func(i int) Workload { return MicroWorkload(rows, int64(i)*101) }
		d.clients(stats, clients, txPer, work, shadowSessions(core.ModeSMR, d.rloc, d.bloc, 10*time.Second))
		d.runClients(stats, clients, 80_000_000)
		return stats.point(clients).Throughput
	}
	return AblationResult{
		Name:    "broadcast batching (SMR micro)",
		WithOn:  run(0), // unbounded batches
		WithOff: run(1), // one message per proposal
		Unit:    "tps",
	}
}

// AblationOverlap measures PBR recovery time with and without the
// overlap optimization by comparing a 3-member recovery (overlap applies:
// resume after the first recovered backup) against one forced to wait for
// every backup.
func AblationOverlap(rows int) AblationResult {
	measure := func(members int) float64 {
		timing := core.Timing{
			HeartbeatEvery: 100 * time.Millisecond,
			SuspectAfter:   time.Second,
			ClientRetry:    500 * time.Millisecond,
		}
		d := newShadow(shadowSpec{mode: core.ModePBR, engines: []string{"h2", "h2", "h2", "h2"}[:members+1],
			reg: core.BankRegistry(), setup: bankSetup(rows), members: members, timing: timing})
		stats := &loadStats{}
		work := func(i int) Workload { return MicroWorkload(rows, int64(i)) }
		d.clients(stats, 2, 1<<30, work, shadowSessions(core.ModePBR, d.rloc, d.bloc, 500*time.Millisecond))
		d.sim.After(2*time.Second, func() { d.clu.Node("r1").Crash() })

		r2 := d.pbr.Replicas["r2"]
		configAt, resumed := -1.0, -1.0
		d.every(0, 5*time.Millisecond, func() bool {
			if configAt < 0 && r2.ConfigNow().Seq > 0 {
				configAt = d.sim.Now().Seconds()
			}
			if configAt >= 0 && resumed < 0 && r2.IsPrimary() && !r2.Stopped() {
				resumed = d.sim.Now().Seconds()
				return false
			}
			return true
		})
		for resumed < 0 && d.sim.Steps() < 80_000_000 && !d.sim.Idle() {
			d.sim.Run(0, 100_000)
		}
		if resumed < 0 || configAt < 0 {
			return -1
		}
		// The interesting window is reconfiguration-to-resume: detection
		// time is identical in both variants (and jittery), so exclude it.
		return resumed - configAt
	}
	return AblationResult{
		Name:    "state-transfer overlap (PBR recovery)",
		WithOn:  measure(3), // 4 replicas: overlap lets the primary resume early
		WithOff: measure(2), // 3 replicas: must wait for the single fresh spare
		Unit:    "sec",
	}
}

// RenderAblations prints the ablation rows.
func RenderAblations(w io.Writer, rows []AblationResult) {
	fmt.Fprintln(w, "Ablations — design choices of DESIGN.md")
	for _, r := range rows {
		fmt.Fprintln(w, " ", r)
	}
}
