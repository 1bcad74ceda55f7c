package bench

import (
	"fmt"
	"io"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// The membership experiment: a live 3-node SMR cluster grows to 5 nodes
// and shrinks back to 3 under sustained load, with a rolling restart of
// one charter replica and one joiner running concurrently. Every
// add/remove command travels through the total-order broadcast into
// numbered configuration epochs (internal/member), so Synod quorums,
// delivery fan-out, and catch-up peer sets all switch at well-defined
// slots; joiners bootstrap through a snapshot pushed by the
// deterministic proposer plus a slot delta, and removed replicas drain
// by simply falling out of the fan-out. The epoch-aware online checker
// (member/epoch-config, member/stale-quorum, NoteJoin/NoteRestart
// excuse windows) certifies the run; the nemesis schedule is replayed
// a second time to certify bit-reproducible fault injection. Figures go
// to BENCH_membership.json.

// MembershipConfig sizes the dynamic-membership experiment.
type MembershipConfig struct {
	// Clients and TxPer size the closed-loop load; the schedule below
	// must fit inside the load window for post-change progress to be
	// certifiable.
	Clients int
	TxPer   int
	// Rows is the bank table size.
	Rows int
	// GrowAt starts the grow phase (add b4, r4, b5, r5), one command
	// every CmdEvery; ShrinkAt starts the shrink phase (remove r2, b2,
	// r3, b3) on the same cadence.
	GrowAt   time.Duration
	CmdEvery time.Duration
	ShrinkAt time.Duration
	// RestartAt starts the rolling restart of r1 (charter) then r4
	// (joiner): each is down Downtime, starts Stagger apart.
	RestartAt time.Duration
	Downtime  time.Duration
	Stagger   time.Duration
	// Alpha is the acceptor activation lag in slots; it must exceed
	// twice the consensus pipeline window.
	Alpha    int
	Pipeline int
	// Fsync is the WAL sync policy of every replica's store.
	Fsync store.SyncPolicy
	// Bin is the progress sampling bin.
	Bin time.Duration
	// Drain bounds the post-load quiesce window.
	Drain time.Duration
	// RingSize is the obs ring capacity.
	RingSize int
	// DataDir, when non-empty, hosts the replicas' stores (a fresh temp
	// directory otherwise, removed after the run).
	DataDir string
	// FlightDir, when non-empty, arms per-node flight recorders; joiner
	// bundles are marked so `flight merge` baselines them.
	FlightDir string
	// ReproCheck replays the whole run a second time over a fresh store
	// and requires an identical injection fingerprint.
	ReproCheck bool
}

// DefaultMembership is the paper-scale run.
func DefaultMembership() MembershipConfig {
	return MembershipConfig{
		Clients: 6, TxPer: 1400, Rows: 256,
		GrowAt: 400 * time.Millisecond, CmdEvery: 200 * time.Millisecond,
		ShrinkAt:  2500 * time.Millisecond,
		RestartAt: 1500 * time.Millisecond, Downtime: 250 * time.Millisecond,
		Stagger: 400 * time.Millisecond,
		Alpha:   10, Pipeline: 4,
		Fsync: store.SyncBatch,
		Bin:   100 * time.Millisecond, Drain: 2 * time.Second,
		RingSize:   1 << 16,
		ReproCheck: true,
	}
}

// QuickMembership is the CI-sized run.
func QuickMembership() MembershipConfig {
	return MembershipConfig{
		Clients: 4, TxPer: 500, Rows: 64,
		GrowAt: 200 * time.Millisecond, CmdEvery: 120 * time.Millisecond,
		ShrinkAt:  1600 * time.Millisecond,
		RestartAt: 900 * time.Millisecond, Downtime: 150 * time.Millisecond,
		Stagger: 300 * time.Millisecond,
		Alpha:   10, Pipeline: 4,
		Fsync: store.SyncNever,
		Bin:   50 * time.Millisecond, Drain: 2 * time.Second,
		RingSize: 1 << 15,
	}
}

// MembershipResult is the certified outcome of one membership run.
type MembershipResult struct {
	// Committed/Aborted/Finished summarize the client fleet.
	Committed int64
	Aborted   int64
	Finished  int
	Clients   int
	// Epochs is how many configuration epochs the run derived
	// (including the initial one); GrewTo/ShrankTo are the peak and
	// final replica counts.
	Epochs   int
	GrewTo   int
	ShrankTo int
	// FinalBcast/FinalReplicas are the last epoch's member sets.
	FinalBcast    []msg.Loc
	FinalReplicas []msg.Loc
	// JoinersActive reports both joiners finished their bootstrap;
	// JoinerActiveAt is when the last one did (-1 if never).
	JoinersActive  bool
	JoinerActiveAt time.Duration
	// BootstrapSnapshots counts proposer snapshot pushes for joins.
	BootstrapSnapshots int64
	// Kills/Restarts count the rolling-restart injections; Replayed is
	// the WAL records re-executed across both local recoveries, and
	// RecoveredLocally that both incarnations restored from their
	// stores.
	Kills            int
	Restarts         int
	Replayed         int64
	RecoveredLocally bool
	// CaughtUp / StateEqual are the end-of-run convergence checks over
	// the FINAL replica set: slot-frontier parity and bit-identical
	// table contents (the joiner state parity the issue demands).
	CaughtUp   bool
	StateEqual bool
	// LastSlots is each final replica's applied frontier.
	LastSlots []int
	// ProgressAfterChanges / ProgressAfterRestart report commits after
	// the last membership command / after the rolling restart ended.
	ProgressAfterChanges bool
	ProgressAfterRestart bool
	// Events / Violations are the online checker's view of the run.
	Events     int64
	Violations []dist.Violation
	// Fingerprint hashes the injection log; with ReproChecked set,
	// FingerprintStable reports the replay run produced the same hash.
	Fingerprint       uint64
	ReproChecked      bool
	FingerprintStable bool
}

// Certified reports whether the run meets the membership acceptance
// bar: every scheduled epoch derived, the cluster grew to 5 and ended
// at 3, both joiners bootstrapped via proposer snapshots, the rolling
// restart ran and both victims recovered locally, the checker stayed
// clean, clients made progress after the last change and all finished,
// the final replica set converged to identical state, and (when
// checked) the nemesis schedule reproduced bit-identically.
func (r MembershipResult) Certified() bool {
	return r.Finished == r.Clients &&
		r.Epochs == 9 &&
		r.GrewTo == 5 && r.ShrankTo == 3 &&
		r.JoinersActive && r.BootstrapSnapshots >= 2 &&
		r.Kills == 2 && r.Restarts == 2 && r.RecoveredLocally &&
		len(r.Violations) == 0 &&
		r.ProgressAfterChanges && r.ProgressAfterRestart &&
		r.CaughtUp && r.StateEqual &&
		(!r.ReproChecked || r.FingerprintStable)
}

// scheduledChange is one membership command at its proposal time.
type scheduledChange struct {
	At  time.Duration
	Cmd member.Command
}

// membershipChanges is the ordered command schedule: grow to 5/5, then
// shrink to 3/3 keeping the two joiners and the sequencer's replica.
func membershipChanges(cfg MembershipConfig) []scheduledChange {
	return []scheduledChange{
		{cfg.GrowAt, member.Command{Op: member.AddAcceptor, Node: "b4"}},
		{cfg.GrowAt + cfg.CmdEvery, member.Command{Op: member.AddReplica, Node: "r4"}},
		{cfg.GrowAt + 2*cfg.CmdEvery, member.Command{Op: member.AddAcceptor, Node: "b5"}},
		{cfg.GrowAt + 3*cfg.CmdEvery, member.Command{Op: member.AddReplica, Node: "r5"}},
		{cfg.ShrinkAt, member.Command{Op: member.RemoveReplica, Node: "r2"}},
		{cfg.ShrinkAt + cfg.CmdEvery, member.Command{Op: member.RemoveAcceptor, Node: "b2"}},
		{cfg.ShrinkAt + 2*cfg.CmdEvery, member.Command{Op: member.RemoveReplica, Node: "r3"}},
		{cfg.ShrinkAt + 3*cfg.CmdEvery, member.Command{Op: member.RemoveAcceptor, Node: "b3"}},
	}
}

// Membership runs the dynamic-membership experiment, optionally twice
// to certify the nemesis schedule reproduces bit-identically.
func Membership(cfg MembershipConfig) MembershipResult {
	res := membershipRun(cfg)
	if cfg.ReproCheck {
		replay := cfg
		replay.DataDir = ""   // fresh stores for the replay
		replay.FlightDir = "" // evidence only from the primary run
		replay.ReproCheck = false
		res2 := membershipRun(replay)
		res.ReproChecked = true
		res.FingerprintStable = res.Fingerprint == res2.Fingerprint
	}
	return res
}

// membershipRun is one full run of the experiment. The deployment is
// durable SMR under one shared epoch view: five broadcast service nodes
// and five replicas exist as processes from the start, but only the
// charter members (b1-b3, r1-r3) are in epoch 0 — the rest idle until an
// ordered command admits them. Every service node runs the
// dynamic-membership broadcast (PaxosDynamic quorums, per-slot fan-out
// from the view); joiners r4/r5 start empty, awaiting their bootstrap
// snapshot.
func membershipRun(cfg MembershipConfig) MembershipResult {
	root, cleanup := tempRoot(cfg.DataDir)
	defer cleanup()
	view := member.NewView(charter(), cfg.Alpha)
	bloc := []msg.Loc{"b1", "b2", "b3", "b4", "b5"}
	d := newDurable(durableSpec{
		root: root, fsync: cfg.Fsync, rows: cfg.Rows,
		joiners: map[msg.Loc]bool{"r4": true, "r5": true, "b4": true, "b5": true},
		view:    func() *member.View { return view },
	}, bloc, []msg.Loc{"r1", "r2", "r3", "r4", "r5"})
	d.addBroadcast(broadcast.Config{
		Nodes:    bloc,
		Pipeline: cfg.Pipeline,
		View:     view,
		Modules:  []broadcast.Module{broadcast.PaxosDynamic(cfg.Pipeline, nil, view)},
	}, broadcast.Compiled)
	d.watch(cfg.RingSize, cfg.FlightDir, "membership",
		func(c *dist.Checker) { c.SetMembership(charter(), cfg.Alpha) })
	sim := d.sim

	timeline := des.NewTimeline(cfg.Bin)
	stats := &loadStats{timeline: timeline}
	work := func(i int) Workload { return MicroWorkload(cfg.Rows, int64(i)*31337) }
	// Clients keep the seed topology: removed service nodes still
	// forward broadcasts to the sequencer, so a static client config
	// survives every resize.
	d.clients(stats, cfg.Clients, cfg.TxPer, work,
		shadowSessions(core.ModeSMR, charter().Replicas, charter().Bcast, 10*time.Second))

	res := MembershipResult{Clients: cfg.Clients, JoinerActiveAt: -1}
	snapsBefore := obs.C("core.smr.member_snapshots").Value()

	// The admin proposes each membership command through the broadcast
	// order at its scheduled time.
	var lastChangeAt time.Duration
	for i, ch := range membershipChanges(cfg) {
		lastChangeAt = max(lastChangeAt, ch.At)
		d.propose(ch.At, int64(i+1), ch.Cmd)
	}

	// Sample each joiner until its bootstrap snapshot lands.
	for _, j := range []msg.Loc{"r4", "r5"} {
		d.every(cfg.GrowAt, 10*time.Millisecond, func() bool {
			if !d.reps[j].Active() {
				return true
			}
			res.JoinerActiveAt = max(res.JoinerActiveAt, sim.Now())
			return false
		})
	}

	// The rolling restart: r1 (charter, the bootstrap proposer) then r4
	// (freshly joined), deterministically expanded into the same crash
	// schedule every run.
	var rollEnd time.Duration
	inj := d.bindProcess(fault.Plan{Rolling: []fault.Rolling{{
		StartAt:  fault.Duration(cfg.RestartAt),
		Nodes:    []msg.Loc{"r1", "r4"},
		Downtime: fault.Duration(cfg.Downtime),
		Stagger:  fault.Duration(cfg.Stagger),
	}}}, procHooks{restarted: func(msg.Loc, *core.SMRReplica) { rollEnd = sim.Now() }})

	d.runClients(stats, cfg.Clients, 80_000_000)
	// Quiesce: let catch-up, final deliveries and the last epoch drain.
	sim.Run(cfg.Drain, 50_000_000)

	res.Committed = stats.committed
	res.Aborted = stats.aborted
	res.Finished = stats.finished
	res.Kills, res.Restarts, res.Replayed = d.kills, d.restarts, d.replayed
	res.RecoveredLocally = res.Restarts == 2 && d.unrecovered == 0
	res.BootstrapSnapshots = obs.C("core.smr.member_snapshots").Value() - snapsBefore
	res.Events = d.checker.Status().Events
	res.Violations = d.checker.Violations()
	res.Fingerprint = inj.Fingerprint()

	epochs := view.Epochs()
	res.Epochs = len(epochs)
	for _, e := range epochs {
		res.GrewTo = max(res.GrewTo, len(e.Replicas))
	}
	final := epochs[len(epochs)-1]
	res.ShrankTo = len(final.Replicas)
	res.FinalBcast = final.Bcast
	res.FinalReplicas = final.Replicas
	res.JoinersActive = d.reps["r4"].Active() && d.reps["r5"].Active()

	// Convergence over the final replica set: frontier parity and
	// bit-identical state — the joiners must be indistinguishable from
	// the surviving charter replica.
	maxSlot := -1
	for _, l := range final.Replicas {
		s := d.reps[l].LastSlot()
		res.LastSlots = append(res.LastSlots, s)
		maxSlot = max(maxSlot, s)
	}
	res.CaughtUp = len(final.Replicas) > 0
	res.StateEqual = len(final.Replicas) > 0
	for _, l := range final.Replicas {
		if d.reps[l].LastSlot() < maxSlot {
			res.CaughtUp = false
		}
		if !sqldb.Equal(d.dbs[final.Replicas[0]], d.dbs[l]) {
			res.StateEqual = false
		}
	}

	series := timeline.Series()
	res.ProgressAfterChanges = lastChangeAt > 0 && progressAfter(series, lastChangeAt, cfg.Bin)
	res.ProgressAfterRestart = rollEnd > 0 && progressAfter(series, rollEnd, cfg.Bin)

	if !res.Certified() {
		d.dump("uncertified")
	}
	return res
}

// ReportMembership flattens the experiment for BENCH_membership.json.
func ReportMembership(res MembershipResult, quick bool) *Report {
	r := NewReport("membership", quick)
	r.Add("membership.committed", float64(res.Committed), "count")
	r.Add("membership.aborted", float64(res.Aborted), "count")
	r.Add("membership.finished", float64(res.Finished), "count")
	r.Add("membership.epochs", float64(res.Epochs), "count")
	r.Add("membership.grew_to", float64(res.GrewTo), "count")
	r.Add("membership.shrank_to", float64(res.ShrankTo), "count")
	r.Add("membership.joiners_active", b2f(res.JoinersActive), "bool")
	r.Add("membership.joiner_active_at", res.JoinerActiveAt.Seconds(), "s")
	r.Add("membership.bootstrap_snapshots", float64(res.BootstrapSnapshots), "count")
	r.Add("membership.kills", float64(res.Kills), "count")
	r.Add("membership.restarts", float64(res.Restarts), "count")
	r.Add("membership.replayed_records", float64(res.Replayed), "count")
	r.Add("membership.recovered_locally", b2f(res.RecoveredLocally), "bool")
	r.Add("membership.caught_up", b2f(res.CaughtUp), "bool")
	r.Add("membership.state_equal", b2f(res.StateEqual), "bool")
	r.Add("membership.progress_after_changes", b2f(res.ProgressAfterChanges), "bool")
	r.Add("membership.progress_after_restart", b2f(res.ProgressAfterRestart), "bool")
	r.Add("membership.checker.events", float64(res.Events), "count")
	r.Add("membership.checker.violations", float64(len(res.Violations)), "count")
	r.Add("membership.repro_checked", b2f(res.ReproChecked), "bool")
	r.Add("membership.fingerprint_stable", b2f(res.FingerprintStable), "bool")
	r.Add("membership.certified", b2f(res.Certified()), "bool")
	return r
}

// RenderMembership prints the human-readable summary.
func RenderMembership(w io.Writer, res MembershipResult) {
	fmt.Fprintln(w, "Membership — live 3→5→3 resize with a concurrent rolling restart (virtual time, real WAL)")
	fmt.Fprintf(w, "  committed: %d (%d aborted)   clients finished: %d/%d\n",
		res.Committed, res.Aborted, res.Finished, res.Clients)
	fmt.Fprintf(w, "  epochs: %d derived, grew to %d replicas, ended at %d — bcast %v, replicas %v\n",
		res.Epochs, res.GrewTo, res.ShrankTo, res.FinalBcast, res.FinalReplicas)
	fmt.Fprintf(w, "  joiners active: %v (last at %.2fs, %d bootstrap snapshots pushed)\n",
		res.JoinersActive, res.JoinerActiveAt.Seconds(), res.BootstrapSnapshots)
	fmt.Fprintf(w, "  rolling restart: %d kills, %d restarts, local recovery %v (%d WAL records replayed)\n",
		res.Kills, res.Restarts, res.RecoveredLocally, res.Replayed)
	fmt.Fprintf(w, "  convergence: frontier parity %v (slots %v), state equal %v, progress after changes %v / after restart %v\n",
		res.CaughtUp, res.LastSlots, res.StateEqual, res.ProgressAfterChanges, res.ProgressAfterRestart)
	fp := "not checked"
	if res.ReproChecked {
		fp = fmt.Sprintf("stable=%v (%#x)", res.FingerprintStable, res.Fingerprint)
	}
	fmt.Fprintf(w, "  checker: %d events, %d violations   nemesis fingerprint: %s   certified: %v\n",
		res.Events, len(res.Violations), fp, res.Certified())
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %v\n", v)
	}
}
