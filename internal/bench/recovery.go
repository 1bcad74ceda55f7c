package bench

import (
	"fmt"
	"io"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// The recovery experiment: a 3-replica SMR deployment whose replicas
// journal to real on-disk WALs (internal/store), with a process-level
// nemesis that kills one replica mid-load, corrupts the tail of its
// newest WAL segment (a torn write), and restarts it as a genuinely
// fresh incarnation over the surviving data directory. The restarted
// replica must recover from its local snapshot + WAL replay, fetch only
// the slots ordered during its downtime from a peer, and rejoin the
// group — all without a single online-checker violation. The run is
// certified (nonzero bench exit otherwise) and its recovery figures go
// to BENCH_recovery.json.

// RecoveryConfig sizes the crash-recovery experiment.
type RecoveryConfig struct {
	// Clients and TxPer size the closed-loop load; the run ends when
	// every client finishes, so the virtual duration is load-dependent.
	Clients int
	TxPer   int
	// Rows is the bank table size.
	Rows int
	// KillAt is when the victim replica's process is killed; it restarts
	// RestartAfter later over the same data directory.
	KillAt       time.Duration
	RestartAfter time.Duration
	// CorruptTail flips bytes in the victim's newest WAL segment before
	// the restart — recovery must absorb the torn tail by truncation.
	CorruptTail bool
	// Fsync is the WAL sync policy of every replica's store.
	Fsync store.SyncPolicy
	// Bin is the availability/progress sampling bin.
	Bin time.Duration
	// Drain bounds the post-load quiesce window (catch-up completion).
	Drain time.Duration
	// RingSize is the obs ring capacity.
	RingSize int
	// DataDir, when non-empty, hosts the replicas' stores (a fresh temp
	// directory otherwise, removed after the run).
	DataDir string
	// FlightDir, when non-empty, arms per-node flight recorders that
	// dump postmortem bundles under it on any checker violation and at
	// the end of an uncertified run.
	FlightDir string
}

// DefaultRecovery is the paper-scale run.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{
		Clients: 6, TxPer: 700, Rows: 256,
		KillAt: time.Second, RestartAfter: 300 * time.Millisecond,
		CorruptTail: true, Fsync: store.SyncBatch,
		Bin: 100 * time.Millisecond, Drain: 2 * time.Second,
		RingSize: 1 << 15,
	}
}

// QuickRecovery is the CI-sized run.
func QuickRecovery() RecoveryConfig {
	return RecoveryConfig{
		Clients: 4, TxPer: 200, Rows: 64,
		KillAt: 300 * time.Millisecond, RestartAfter: 200 * time.Millisecond,
		CorruptTail: true, Fsync: store.SyncNever,
		Bin: 50 * time.Millisecond, Drain: 2 * time.Second,
		RingSize: 1 << 14,
	}
}

// RecoveryResult is the certified outcome of one crash-recovery run.
type RecoveryResult struct {
	// Committed/Aborted/Finished summarize the client fleet; Clients
	// echoes the config (certification wants every client done).
	Committed int64
	Aborted   int64
	Finished  int
	Clients   int
	// KillAt/RestartAt/CaughtUpAt are the observed event times on the
	// virtual clock (-1 when the event did not happen). CaughtUpAt is
	// the first 10 ms sample where the victim's slot frontier reached
	// the live replicas' maximum.
	KillAt     time.Duration
	RestartAt  time.Duration
	CaughtUpAt time.Duration
	// SlotAtKill is the victim's applied frontier when killed;
	// SlotsBehind is how far behind the group it woke up — the delta it
	// then fetched over the network instead of a full state transfer.
	SlotAtKill  int
	SlotsBehind int
	// ReplayedRecords counts WAL records re-executed during the local
	// recovery (store.wal.replays delta across the restart hook).
	ReplayedRecords int64
	// RecoveredLocally reports that the fresh incarnation restored state
	// from its own store rather than starting empty.
	RecoveredLocally bool
	// CorruptTail / CorruptTailHit: the torn-tail injection was requested
	// / actually applied to a WAL segment.
	CorruptTail    bool
	CorruptTailHit bool
	// CaughtUp / StateEqual are the end-of-run convergence checks: slot
	// frontier parity and bit-identical table contents across replicas.
	CaughtUp   bool
	StateEqual bool
	// LastSlots is each replica's final applied frontier (r1, r2, r3).
	LastSlots []int
	// ProgressAfterRestart reports commits observed after the restart.
	ProgressAfterRestart bool
	// Events / Violations are the online checker's view of the run.
	Events     int64
	Violations []dist.Violation
}

// DowntimeSec is the kill-to-restart window.
func (r RecoveryResult) DowntimeSec() float64 {
	if r.KillAt < 0 || r.RestartAt < 0 {
		return -1
	}
	return (r.RestartAt - r.KillAt).Seconds()
}

// CatchupSec is restart-to-frontier-parity — the recovery time the
// experiment exists to measure.
func (r RecoveryResult) CatchupSec() float64 {
	if r.RestartAt < 0 || r.CaughtUpAt < 0 {
		return -1
	}
	return (r.CaughtUpAt - r.RestartAt).Seconds()
}

// Certified reports whether the run meets the recovery acceptance bar:
// the victim was killed and restarted, recovered from its own store,
// the torn tail (when injected) was absorbed, the checker stayed clean,
// clients made progress after the restart and all finished, and the
// group converged to slot-frontier parity with equal database states.
func (r RecoveryResult) Certified() bool {
	return r.KillAt >= 0 && r.RestartAt >= 0 &&
		r.RecoveredLocally &&
		(!r.CorruptTail || r.CorruptTailHit) &&
		len(r.Violations) == 0 &&
		r.ProgressAfterRestart &&
		r.Finished == r.Clients &&
		r.CaughtUp && r.StateEqual
}

// maxOtherSlot is the highest applied frontier among the replicas other
// than loc.
func (d *deployment) maxOtherSlot(loc msg.Loc) int {
	m := -1
	for l, r := range d.reps {
		if l != loc && r.LastSlot() > m {
			m = r.LastSlot()
		}
	}
	return m
}

// Recovery runs the crash-recovery experiment.
func Recovery(cfg RecoveryConfig) RecoveryResult {
	root, cleanup := tempRoot(cfg.DataDir)
	defer cleanup()
	// One broadcast service node (compiled mode) per replica, each
	// replica journaling to root/<loc>/smr.
	bloc, rloc := []msg.Loc{"b1", "b2", "b3"}, []msg.Loc{"r1", "r2", "r3"}
	d := newDurable(durableSpec{root: root, fsync: cfg.Fsync, rows: cfg.Rows, peers: rloc}, bloc, rloc)
	local := make(map[msg.Loc][]msg.Loc, len(bloc))
	for i, b := range bloc {
		local[b] = []msg.Loc{rloc[i]}
	}
	d.addBroadcast(broadcast.Config{Nodes: bloc, LocalSubscribers: local}, broadcast.Compiled)
	d.watch(cfg.RingSize, cfg.FlightDir, "recovery")
	sim := d.sim

	timeline := des.NewTimeline(cfg.Bin)
	stats := &loadStats{timeline: timeline}
	work := func(i int) Workload { return MicroWorkload(cfg.Rows, int64(i)*31337) }
	d.clients(stats, cfg.Clients, cfg.TxPer, work, shadowSessions(core.ModeSMR, rloc, bloc, 10*time.Second))

	res := RecoveryResult{
		Clients: cfg.Clients, CorruptTail: cfg.CorruptTail,
		KillAt: -1, RestartAt: -1, CaughtUpAt: -1, SlotsBehind: -1,
	}
	victim := msg.Loc("r2")

	// Once restarted, sample the victim's frontier on a 10 ms grid until
	// it reaches the live replicas' maximum — the recovery time.
	catchup := func() bool {
		if d.reps[victim].LastSlot() >= d.maxOtherSlot(victim) {
			res.CaughtUpAt = sim.Now()
			return false
		}
		return true
	}
	inj := d.bindProcess(fault.Plan{Crashes: []fault.Crash{{
		At:           fault.Duration(cfg.KillAt),
		Node:         victim,
		RestartAfter: fault.Duration(cfg.RestartAfter),
		CorruptTail:  cfg.CorruptTail,
	}}}, procHooks{
		killed: func(node msg.Loc) {
			res.KillAt = sim.Now()
			res.SlotAtKill = d.reps[node].LastSlot()
		},
		restarted: func(node msg.Loc, rep *core.SMRReplica) {
			res.RestartAt = sim.Now()
			res.SlotsBehind = d.maxOtherSlot(node) - rep.LastSlot()
		},
		rejoined: func() {
			if catchup() {
				d.every(10*time.Millisecond, 10*time.Millisecond, catchup)
			}
		},
	})

	d.runClients(stats, cfg.Clients, 80_000_000)
	// Quiesce: let in-flight catch-up and final deliveries drain.
	sim.Run(cfg.Drain, 50_000_000)

	res.Committed = stats.committed
	res.Aborted = stats.aborted
	res.Finished = stats.finished
	res.ReplayedRecords = d.replayed
	res.RecoveredLocally = d.restarts > 0 && d.unrecovered == 0
	for _, i := range inj.Injections() {
		if i.Kind == "corrupt-tail" {
			res.CorruptTailHit = true
		}
	}
	res.Events = d.checker.Status().Events
	res.Violations = d.checker.Violations()

	for _, l := range rloc {
		res.LastSlots = append(res.LastSlots, d.reps[l].LastSlot())
	}
	res.CaughtUp = d.reps[victim].LastSlot() >= d.maxOtherSlot(victim)
	res.StateEqual = true
	for _, l := range rloc[1:] {
		if !sqldb.Equal(d.dbs[rloc[0]], d.dbs[l]) {
			res.StateEqual = false
		}
	}

	if res.RestartAt >= 0 {
		res.ProgressAfterRestart = progressAfter(timeline.Series(), res.RestartAt, cfg.Bin)
	}
	if !res.Certified() {
		d.dump("uncertified")
	}
	return res
}

// ReportRecovery flattens the experiment for BENCH_recovery.json.
func ReportRecovery(res RecoveryResult, quick bool) *Report {
	r := NewReport("recovery", quick)
	r.Add("recovery.committed", float64(res.Committed), "count")
	r.Add("recovery.aborted", float64(res.Aborted), "count")
	r.Add("recovery.finished", float64(res.Finished), "count")
	r.Add("recovery.kill_at", res.KillAt.Seconds(), "s")
	r.Add("recovery.restart_at", res.RestartAt.Seconds(), "s")
	r.Add("recovery.caught_up_at", res.CaughtUpAt.Seconds(), "s")
	r.Add("recovery.downtime", res.DowntimeSec(), "s")
	r.Add("recovery.catchup", res.CatchupSec(), "s")
	r.Add("recovery.slot_at_kill", float64(res.SlotAtKill), "count")
	r.Add("recovery.slots_behind", float64(res.SlotsBehind), "count")
	r.Add("recovery.replayed_records", float64(res.ReplayedRecords), "count")
	r.Add("recovery.recovered_locally", b2f(res.RecoveredLocally), "bool")
	r.Add("recovery.corrupt_tail_hit", b2f(res.CorruptTailHit), "bool")
	r.Add("recovery.caught_up", b2f(res.CaughtUp), "bool")
	r.Add("recovery.state_equal", b2f(res.StateEqual), "bool")
	r.Add("recovery.progress_after_restart", b2f(res.ProgressAfterRestart), "bool")
	r.Add("recovery.checker.events", float64(res.Events), "count")
	r.Add("recovery.checker.violations", float64(len(res.Violations)), "count")
	r.Add("recovery.certified", b2f(res.Certified()), "bool")
	return r
}

// RenderRecovery prints the human-readable summary.
func RenderRecovery(w io.Writer, res RecoveryResult) {
	fmt.Fprintln(w, "Recovery — durable SMR replica killed and restarted mid-load (virtual time, real WAL)")
	fmt.Fprintf(w, "  committed: %d (%d aborted)   clients finished: %d/%d\n",
		res.Committed, res.Aborted, res.Finished, res.Clients)
	fmt.Fprintf(w, "  killed at %.2fs (slot %d), restarted at %.2fs, caught up at %.2fs (downtime %.2fs, catch-up %.2fs)\n",
		res.KillAt.Seconds(), res.SlotAtKill, res.RestartAt.Seconds(),
		res.CaughtUpAt.Seconds(), res.DowntimeSec(), res.CatchupSec())
	fmt.Fprintf(w, "  local recovery: %v (%d WAL records replayed), woke %d slots behind, corrupt tail hit: %v\n",
		res.RecoveredLocally, res.ReplayedRecords, res.SlotsBehind, res.CorruptTailHit)
	fmt.Fprintf(w, "  convergence: frontier parity %v (slots %v), state equal %v, progress after restart %v\n",
		res.CaughtUp, res.LastSlots, res.StateEqual, res.ProgressAfterRestart)
	fmt.Fprintf(w, "  checker: %d events, %d violations   certified: %v\n",
		res.Events, len(res.Violations), res.Certified())
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %v\n", v)
	}
}
