package bench

import (
	"fmt"
	"io"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs/dist"
)

// The chaos experiment: a 3-replica PBR deployment under a scripted
// nemesis, with the online checker attached. The plan stacks the fault
// classes the recovery protocol must survive — a symmetric partition
// that isolates the primary from both backups (but not from the
// broadcast service or the clients), a crash-restart of a broadcast
// service node, and a window of probabilistic message drops, delays,
// and duplicates on the replication, transaction, and heartbeat
// headers. The run is certified three ways: the checker must flag no
// property violations, clients must make progress after the last fault
// window closes, and a second run of the same plan and seed must
// reproduce the injection schedule bit-for-bit (equal fingerprints).
//
// Probabilistic rules deliberately never target bc.* headers: the
// broadcast service's delivery guarantees are what recovery agreement
// stands on, and dropping delivers at the observation boundary would
// fabricate checker violations the real system never committed.

// ChaosConfig scales the experiment. All times are on the virtual
// clock.
type ChaosConfig struct {
	Rows    int
	Clients int
	RunFor  time.Duration
	// PartitionFrom/To bound the symmetric r1 ↔ {r2,r3} cut.
	PartitionFrom time.Duration
	PartitionTo   time.Duration
	// CrashAt fells broadcast node b2; CrashDowntime later it restarts
	// with retained state.
	CrashAt       time.Duration
	CrashDowntime time.Duration
	// NoiseFrom/To bound the probabilistic drop/delay/dup window.
	NoiseFrom time.Duration
	NoiseTo   time.Duration
	Seed      uint64
	RingSize  int
	// Bin is the availability bin width.
	Bin time.Duration
	// Batch/BatchDelay/Pipeline configure the broadcast hot path
	// (DESIGN.md §8): certification must hold with batching and
	// pipelining enabled, since that is how the service deploys.
	Batch      int
	BatchDelay time.Duration
	Pipeline   int
	// FlightDir, when non-empty, arms per-node flight recorders that
	// dump postmortem bundles under it on any checker violation and at
	// the end of an uncertified run.
	FlightDir string
}

// DefaultChaos is the standard scale.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		Rows: 5_000, Clients: 4, RunFor: 40 * time.Second,
		PartitionFrom: 5 * time.Second, PartitionTo: 13 * time.Second,
		CrashAt: 20 * time.Second, CrashDowntime: 4 * time.Second,
		NoiseFrom: 26 * time.Second, NoiseTo: 32 * time.Second,
		Seed: 7, RingSize: 1 << 16, Bin: 250 * time.Millisecond,
		Batch: 16, BatchDelay: time.Millisecond, Pipeline: 4,
	}
}

// QuickChaos keeps tests fast.
func QuickChaos() ChaosConfig {
	return ChaosConfig{
		Rows: 1_000, Clients: 2, RunFor: 16 * time.Second,
		PartitionFrom: 3 * time.Second, PartitionTo: 6 * time.Second,
		CrashAt: 8 * time.Second, CrashDowntime: 1500 * time.Millisecond,
		NoiseFrom: 11 * time.Second, NoiseTo: 13 * time.Second,
		Seed: 7, RingSize: 1 << 14, Bin: 250 * time.Millisecond,
		Batch: 16, BatchDelay: time.Millisecond, Pipeline: 4,
	}
}

// ChaosPlan builds the nemesis script for a config.
func ChaosPlan(cfg ChaosConfig) fault.Plan {
	noise := func(r fault.Rule) fault.Rule {
		r.From = fault.Duration(cfg.NoiseFrom)
		r.To = fault.Duration(cfg.NoiseTo)
		return r
	}
	return fault.Plan{
		Seed: cfg.Seed,
		Partitions: []fault.Partition{{
			From: fault.Duration(cfg.PartitionFrom), To: fault.Duration(cfg.PartitionTo),
			A: []msg.Loc{"r1"}, B: []msg.Loc{"r2", "r3"}, Symmetric: true,
		}},
		Crashes: []fault.Crash{{
			At: fault.Duration(cfg.CrashAt), Node: "b2",
			RestartAfter: fault.Duration(cfg.CrashDowntime),
		}},
		Rules: []fault.Rule{
			noise(fault.Rule{Match: fault.Match{Hdr: core.HdrRepl}, Prob: 0.05, Drop: true}),
			noise(fault.Rule{Match: fault.Match{Hdr: core.HdrRepl}, Prob: 0.10,
				Delay: fault.Duration(2 * time.Millisecond), Jitter: fault.Duration(3 * time.Millisecond)}),
			noise(fault.Rule{Match: fault.Match{Hdr: core.HdrTx}, Prob: 0.05, Drop: true}),
			noise(fault.Rule{Match: fault.Match{Hdr: core.HdrTx}, Prob: 0.05, Dup: 1}),
			noise(fault.Rule{Match: fault.Match{Hdr: core.HdrHeartbeat}, Prob: 0.10, Drop: true}),
		},
	}
}

// ChaosResult is the certified outcome.
type ChaosResult struct {
	// Committed is the total committed count of the first run.
	Committed int64
	// Injections counts recorded fault applications; Drops/Blocks/
	// Delays/Dups break them down by kind.
	Injections int
	Drops      int
	Blocks     int
	Delays     int
	Dups       int
	// Availability is the fraction of bins with at least one commit,
	// over the whole run and restricted to the fault windows.
	Availability      float64
	FaultAvailability float64
	// Failover timeline of the partition episode (virtual clock, -1 when
	// the 20 ms sampling grid did not observe the state).
	DetectedAt time.Duration
	ConfigAt   time.Duration
	ResumedAt  time.Duration
	// FailoverLatency is DetectedAt→ResumedAt; RecoveryTime is
	// PartitionFrom→ResumedAt (fault onset to restored service).
	FailoverLatency time.Duration
	RecoveryTime    time.Duration
	// ProgressAfterFaults reports commits after the last fault window
	// closed; Primaries counts active primaries at the end (must be 1).
	ProgressAfterFaults bool
	Primaries           int
	// Events / Violations are the online checker's view of the run.
	Events     int64
	Violations []dist.Violation
	// Fingerprint / Fingerprint2 are the injection-log hashes of the two
	// runs; Reproducible is their equality.
	Fingerprint  uint64
	Fingerprint2 uint64
	Reproducible bool
	// Series is committed tx/s per bin (first run).
	Series []float64
	// Batch/Pipeline echo the broadcast hot-path knobs of the run.
	Batch    int
	Pipeline int
}

// Chaos runs the experiment twice — the second run exists only to
// certify that the injection schedule reproduces — and returns the
// first run's measurements with both fingerprints.
func Chaos(cfg ChaosConfig) ChaosResult {
	res := chaosOnce(cfg)
	res.Fingerprint2 = chaosOnce(cfg).Fingerprint
	res.Reproducible = res.Fingerprint == res.Fingerprint2
	return res
}

// chaosOnce is one full nemesis run.
func chaosOnce(cfg ChaosConfig) ChaosResult {
	timing := core.Timing{
		HeartbeatEvery: 500 * time.Millisecond,
		SuspectAfter:   2 * time.Second,
		ClientRetry:    time.Second,
	}
	// All three replicas are initial members: the partition must split a
	// live group, not promote a spare.
	d := newShadow(shadowSpec{mode: core.ModePBR, engines: []string{"h2", "hsqldb", "derby"},
		reg: core.BankRegistry(), setup: bankSetup(cfg.Rows), members: 3, timing: timing,
		batch: cfg.Batch, batchDelay: cfg.BatchDelay, pipeline: cfg.Pipeline})
	d.watch(cfg.RingSize, cfg.FlightDir, "chaos")
	inj := d.bindFaults(ChaosPlan(cfg))

	timeline := des.NewTimeline(cfg.Bin)
	stats := &loadStats{timeline: timeline}
	work := func(i int) Workload { return MicroWorkload(cfg.Rows, int64(i)*31337) }
	d.clients(stats, cfg.Clients, 1<<30, work, shadowSessions(core.ModePBR, d.rloc, d.bloc, timing.ClientRetry))

	res := ChaosResult{DetectedAt: -1, ConfigAt: -1, ResumedAt: -1,
		FailoverLatency: -1, RecoveryTime: -1,
		Batch: cfg.Batch, Pipeline: cfg.Pipeline}

	// Sample every replica's protocol state on a 20 ms grid to extract
	// the partition-failover timeline.
	d.every(0, 20*time.Millisecond, func() bool {
		now := d.sim.Now()
		for _, l := range d.rloc {
			r := d.pbr.Replicas[l]
			if res.DetectedAt < 0 && now > cfg.PartitionFrom && r.Stopped() {
				res.DetectedAt = now
			}
			if res.ConfigAt < 0 && r.ConfigNow().Seq > 0 {
				res.ConfigAt = now
			}
			if res.ConfigAt >= 0 && res.ResumedAt < 0 &&
				r.ConfigNow().Seq > 0 && r.IsPrimary() && !r.Stopped() {
				res.ResumedAt = now
			}
		}
		return now < cfg.RunFor
	})

	d.sim.Run(cfg.RunFor, 500_000_000)

	res.Committed = stats.committed
	res.Series = timeline.Series()
	for _, i := range inj.Injections() {
		res.Injections++
		switch i.Kind {
		case "drop":
			res.Drops++
		case "block":
			res.Blocks++
		case "delay":
			res.Delays++
		case "dup":
			res.Dups++
		}
	}
	res.Fingerprint = inj.Fingerprint()
	res.Events = d.checker.Status().Events
	res.Violations = d.checker.Violations()
	if res.DetectedAt >= 0 && res.ResumedAt >= 0 {
		res.FailoverLatency = res.ResumedAt - res.DetectedAt
	}
	if res.ResumedAt >= 0 {
		res.RecoveryTime = res.ResumedAt - cfg.PartitionFrom
	}
	for _, l := range d.rloc {
		r := d.pbr.Replicas[l]
		if r.IsPrimary() && !r.Stopped() {
			res.Primaries++
		}
	}

	windows := [][2]time.Duration{
		{cfg.PartitionFrom, cfg.PartitionTo},
		{cfg.CrashAt, cfg.CrashAt + cfg.CrashDowntime},
		{cfg.NoiseFrom, cfg.NoiseTo},
	}
	inFault := func(at time.Duration) bool {
		for _, w := range windows {
			if at >= w[0] && at < w[1] {
				return true
			}
		}
		return false
	}
	bins := int(cfg.RunFor / cfg.Bin)
	var up, faultBins, faultUp int
	quiet := cfg.NoiseTo
	for _, w := range windows {
		if w[1] > quiet {
			quiet = w[1]
		}
	}
	for b := 0; b < bins; b++ {
		at := time.Duration(b) * cfg.Bin
		live := b < len(res.Series) && res.Series[b] > 0
		if live {
			up++
			if at >= quiet {
				res.ProgressAfterFaults = true
			}
		}
		if inFault(at) {
			faultBins++
			if live {
				faultUp++
			}
		}
	}
	if bins > 0 {
		res.Availability = float64(up) / float64(bins)
	}
	if faultBins > 0 {
		res.FaultAvailability = float64(faultUp) / float64(faultBins)
	}
	// Keep evidence of runs that fail the local half of the acceptance
	// bar (violations are already dumped by the checker hook; failure to
	// fail over or resume would otherwise leave no bundle behind).
	if len(res.Violations) > 0 || res.Primaries != 1 || !res.ProgressAfterFaults {
		d.dump("uncertified")
	}
	return res
}

// Certified reports whether the run meets the chaos acceptance bar:
// no property violations, a reproducible injection schedule, a single
// surviving primary, and client progress after the faults.
func (r ChaosResult) Certified() bool {
	return len(r.Violations) == 0 && r.Reproducible &&
		r.Primaries == 1 && r.ProgressAfterFaults
}

// ReportChaos flattens the experiment for BENCH_chaos.json.
func ReportChaos(res ChaosResult, quick bool) *Report {
	r := NewReport("chaos", quick)
	r.Add("chaos.committed", float64(res.Committed), "count")
	r.Add("chaos.injections", float64(res.Injections), "count")
	r.Add("chaos.injections.drops", float64(res.Drops), "count")
	r.Add("chaos.injections.blocks", float64(res.Blocks), "count")
	r.Add("chaos.injections.delays", float64(res.Delays), "count")
	r.Add("chaos.injections.dups", float64(res.Dups), "count")
	r.Add("chaos.availability", res.Availability, "fraction")
	r.Add("chaos.availability.fault_windows", res.FaultAvailability, "fraction")
	r.Add("chaos.failover.detected_s", res.DetectedAt.Seconds(), "s")
	r.Add("chaos.failover.config_s", res.ConfigAt.Seconds(), "s")
	r.Add("chaos.failover.resumed_s", res.ResumedAt.Seconds(), "s")
	r.Add("chaos.failover.latency_s", res.FailoverLatency.Seconds(), "s")
	r.Add("chaos.failover.recovery_s", res.RecoveryTime.Seconds(), "s")
	r.Add("chaos.progress_after_faults", b2f(res.ProgressAfterFaults), "bool")
	r.Add("chaos.primaries", float64(res.Primaries), "count")
	r.Add("chaos.checker.events", float64(res.Events), "count")
	r.Add("chaos.checker.violations", float64(len(res.Violations)), "count")
	r.Add("chaos.reproducible", b2f(res.Reproducible), "bool")
	r.Add("chaos.batch", float64(res.Batch), "count")
	r.Add("chaos.pipeline", float64(res.Pipeline), "count")
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RenderChaos prints the human-readable summary.
func RenderChaos(w io.Writer, res ChaosResult) {
	fmt.Fprintln(w, "Chaos — 3-replica PBR under scripted nemesis (virtual time)")
	fmt.Fprintf(w, "  committed: %d   availability: %.3f overall, %.3f during fault windows\n",
		res.Committed, res.Availability, res.FaultAvailability)
	fmt.Fprintf(w, "  injections: %d (%d drops, %d blocks, %d delays, %d dups)\n",
		res.Injections, res.Drops, res.Blocks, res.Delays, res.Dups)
	fmt.Fprintf(w, "  partition failover: detected %.2fs, config %.2fs, resumed %.2fs (latency %.2fs, recovery %.2fs)\n",
		res.DetectedAt.Seconds(), res.ConfigAt.Seconds(), res.ResumedAt.Seconds(),
		res.FailoverLatency.Seconds(), res.RecoveryTime.Seconds())
	fmt.Fprintf(w, "  checker: %d events, %d violations   primaries: %d   progress after faults: %v\n",
		res.Events, len(res.Violations), res.Primaries, res.ProgressAfterFaults)
	fmt.Fprintf(w, "  fingerprints: %016x / %016x   reproducible: %v   certified: %v\n",
		res.Fingerprint, res.Fingerprint2, res.Reproducible, res.Certified())
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %v\n", v)
	}
}
