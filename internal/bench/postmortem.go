package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/bridge"
	"shadowdb/internal/obs/dist"
)

// The postmortem experiment: an end-to-end exercise of the flight
// recorder. A 3-replica SMR deployment (every transaction ordered by
// the broadcast service, so the slot stream is dense) runs a normal
// client load with the recorder fully on — structured logging at debug,
// tracing, metric rate windows, and one Recorder per node — and mid-run
// a forged Deliver event is recorded for slot 0 carrying a batch no
// broadcast node ever ordered. The online checker flags the total-order
// violation, the violation hook dumps a postmortem bundle on every
// node, and the experiment then certifies the bundles alone suffice
// for diagnosis:
//
//  1. every node produced a complete bundle,
//  2. the bundles merge into a causally ordered (Lamport) cross-node
//     timeline that contains the forged delivery,
//  3. replaying the bundles' traces through bridge.CheckTraces
//     re-detects the violation offline, with no access to the live run.
//
// The second half measures the recorder's cost: the same clean run
// (no forgery) executes once with the recorder on and once with
// logging off and tracing disabled, and the wall-clock delta is the
// overhead the always-on flight recorder charges the hot path.

// PostmortemConfig scales the experiment. Times are on the virtual
// clock; the wall-clock overhead pair runs at the same scale.
type PostmortemConfig struct {
	Rows    int
	Clients int
	RunFor  time.Duration
	// InjectAt is when the forged slot-0 delivery is recorded. It must
	// leave enough head room for slot 0 to have genuinely delivered.
	InjectAt time.Duration
	Seed     uint64
	RingSize int
	// Dir is the bundle root; one flight dir per node is created under
	// it. Empty means a temporary directory (removed after the run).
	Dir string
}

// DefaultPostmortem is the standard scale.
func DefaultPostmortem() PostmortemConfig {
	return PostmortemConfig{
		Rows: 5_000, Clients: 4, RunFor: 20 * time.Second,
		InjectAt: 10 * time.Second, Seed: 7, RingSize: 1 << 16,
	}
}

// QuickPostmortem keeps tests fast.
func QuickPostmortem() PostmortemConfig {
	return PostmortemConfig{
		Rows: 1_000, Clients: 2, RunFor: 8 * time.Second,
		InjectAt: 4 * time.Second, Seed: 7, RingSize: 1 << 14,
	}
}

// PostmortemResult is the certified outcome.
type PostmortemResult struct {
	// Committed is the violation run's commit count (sanity: the forgery
	// is an observation-layer event, the system itself keeps working).
	Committed int64
	// Violations are the online checker's flags (expected: exactly the
	// forged total-order violation).
	Violations []dist.Violation
	// Bundles are the dumped bundle directories, one per node that
	// dumped; Nodes is the cluster size they are measured against.
	Bundles []string
	Nodes   int
	// TimelineLen / TimelineOrdered describe the merged cross-node
	// timeline; ForgedInTimeline reports whether the forged delivery is
	// on it.
	TimelineLen      int
	TimelineOrdered  bool
	ForgedInTimeline bool
	// ReplayDetected reports whether bridge.CheckTraces over the
	// bundles' traces alone re-detects the violation.
	ReplayDetected bool
	// ReplayErr is the replay's first property failure (the evidence).
	ReplayErr string
	// WallOnMS / WallOffMS are the wall-clock times of the clean run
	// with the recorder on and off; OverheadPct their relative delta.
	WallOnMS    float64
	WallOffMS   float64
	OverheadPct float64
	// Dir is where the bundles live ("" when a temp dir was cleaned up).
	Dir string
}

// Certified reports whether the run met the acceptance bar: a bundle
// from every node, a causally ordered merged timeline containing the
// forged event, and offline re-detection from the bundles alone.
func (r PostmortemResult) Certified() bool {
	return len(r.Violations) > 0 && len(r.Bundles) == r.Nodes &&
		r.TimelineOrdered && r.ForgedInTimeline && r.ReplayDetected
}

// Postmortem runs the experiment.
func Postmortem(cfg PostmortemConfig) (PostmortemResult, error) {
	res := PostmortemResult{}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "postmortem-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else {
		res.Dir = dir
	}

	if err := postmortemViolationRun(cfg, dir, &res); err != nil {
		return res, err
	}
	if err := postmortemAnalyze(dir, &res); err != nil {
		return res, err
	}

	// Overhead pair: same clean run, recorder on vs off, wall clock.
	res.WallOnMS = postmortemCleanRun(cfg, true).Seconds() * 1e3
	res.WallOffMS = postmortemCleanRun(cfg, false).Seconds() * 1e3
	if res.WallOffMS > 0 {
		res.OverheadPct = (res.WallOnMS - res.WallOffMS) / res.WallOffMS * 100
	}
	return res, nil
}

// postmortemRun builds the experiment's SMR deployment under load and
// repoints obs.Default at the run's Obs, so package-level loggers land in
// the ring the recorders dump; the returned func restores it and must
// run before the next run starts. recorderOn selects the full flight
// recorder (debug logging, tracing, rate windows on the virtual clock)
// or everything off. A non-empty flightDir attaches the online checker
// and a flight recorder per node dumping there.
func postmortemRun(cfg PostmortemConfig, recorderOn bool, flightDir string) (*deployment, *loadStats, *obs.Rates, func()) {
	d := newShadow(shadowSpec{mode: core.ModeSMR, reg: core.BankRegistry(), setup: bankSetup(cfg.Rows)})
	if flightDir != "" {
		d.watch(cfg.RingSize, flightDir, "postmortem")
	} else {
		// The overhead pair measures the recorder alone, without a checker.
		d.o = obs.New(cfg.RingSize)
		d.clu.Observe(d.o)
		d.o.EnableTracing(recorderOn)
	}
	prev := obs.Default
	obs.Default = d.o
	level := obs.LevelOff
	if recorderOn {
		level = obs.LevelDebug
	}
	d.o.SetLogLevel(level)

	stats := &loadStats{}
	work := func(i int) Workload { return MicroWorkload(cfg.Rows, int64(cfg.Seed)+int64(i)*31337) }
	d.clients(stats, cfg.Clients, 1<<30, work, shadowSessions(core.ModeSMR, nil, d.bloc, 5*time.Second))
	var rates *obs.Rates
	if recorderOn {
		rates = obs.NewRates(d.o, time.Second, 0)
		d.every(time.Second, time.Second, func() bool {
			rates.Tick()
			return d.sim.Now() < cfg.RunFor
		})
	}
	return d, stats, rates, func() { obs.Default = prev }
}

// postmortemViolationRun is the instrumented run with the forged
// delivery: recorders on every node, checker attached, bundle dumps on
// the violation hook.
func postmortemViolationRun(cfg PostmortemConfig, dir string, res *PostmortemResult) error {
	// One recorder per node, every one fed from the run's shared Obs;
	// Dump filters its node's slice of the log and trace rings.
	d, stats, rates, restore := postmortemRun(cfg, true, dir)
	defer restore()
	res.Nodes = len(d.nodes)
	for _, rec := range d.recs {
		rec.SetRates(rates)
		rec.SetConfig(map[string]string{"experiment": "postmortem", "seed": fmt.Sprint(cfg.Seed)})
	}

	// The forgery: a Deliver for slot 0 whose batch no broadcast node
	// ever ordered, recorded as if r2 received it. Slot 0 delivered long
	// ago with a different batch, so the checker flags total-order; the
	// slot is below r2's frontier, so no gap cascade follows.
	d.sim.After(cfg.InjectAt, func() {
		forged := msg.M(broadcast.HdrDeliver, broadcast.Deliver{
			Slot: 0, Msgs: []broadcast.Bcast{{From: "evil", Seq: 1}},
		})
		d.o.Record(obs.Event{
			Loc: "r2", Layer: obs.LayerRuntime, Kind: "deliver",
			Hdr: broadcast.HdrDeliver, Slot: 0, LC: d.o.Tick(), M: &forged,
		})
	})

	d.sim.Run(cfg.RunFor, 500_000_000)

	res.Committed = stats.committed
	res.Violations = d.checker.Violations()
	bundles, err := obs.ListBundles(dir)
	if err != nil {
		return err
	}
	res.Bundles = bundles
	return nil
}

// postmortemAnalyze certifies the dumped bundles: load, merge, verify
// causal order and the forged event's presence, and replay the traces
// through the offline bridge checker.
func postmortemAnalyze(dir string, res *PostmortemResult) error {
	var bundles []*obs.Bundle
	for _, d := range res.Bundles {
		b, err := obs.LoadBundle(d)
		if err != nil {
			return fmt.Errorf("postmortem: load %s: %w", d, err)
		}
		bundles = append(bundles, b)
	}
	if len(bundles) == 0 {
		return nil
	}

	timeline := obs.MergeTimeline(bundles...)
	res.TimelineLen = len(timeline)
	res.TimelineOrdered = true
	for i := 1; i < len(timeline); i++ {
		if timeline[i].LC < timeline[i-1].LC {
			res.TimelineOrdered = false
			break
		}
	}
	for _, e := range timeline {
		if e.Source == "trace" && e.Node == "r2" && e.LC > 0 &&
			e.Text == "runtime.deliver hdr=bc.deliver" {
			res.ForgedInTimeline = true
			break
		}
	}

	if err := bridge.CheckTraces(obs.Traces(bundles...), bridge.Options{}); err != nil {
		res.ReplayDetected = true
		res.ReplayErr = err.Error()
	}
	return nil
}

// postmortemCleanRun is one un-forged run at the same scale, returning
// its wall-clock duration.
func postmortemCleanRun(cfg PostmortemConfig, recorderOn bool) time.Duration {
	d, _, _, restore := postmortemRun(cfg, recorderOn, "")
	defer restore()
	start := time.Now()
	d.sim.Run(cfg.RunFor, 500_000_000)
	return time.Since(start)
}

// ReportPostmortem flattens the experiment for BENCH_postmortem.json.
func ReportPostmortem(res PostmortemResult, quick bool) *Report {
	r := NewReport("postmortem", quick)
	r.Add("postmortem.committed", float64(res.Committed), "count")
	r.Add("postmortem.violations", float64(len(res.Violations)), "count")
	r.Add("postmortem.bundles", float64(len(res.Bundles)), "count")
	r.Add("postmortem.nodes", float64(res.Nodes), "count")
	r.Add("postmortem.timeline.entries", float64(res.TimelineLen), "count")
	r.Add("postmortem.timeline.ordered", b2f(res.TimelineOrdered), "bool")
	r.Add("postmortem.timeline.forged_present", b2f(res.ForgedInTimeline), "bool")
	r.Add("postmortem.replay_detected", b2f(res.ReplayDetected), "bool")
	r.Add("postmortem.wall_on_ms", res.WallOnMS, "ms")
	r.Add("postmortem.wall_off_ms", res.WallOffMS, "ms")
	r.Add("postmortem.overhead_pct", res.OverheadPct, "percent")
	r.Add("postmortem.certified", b2f(res.Certified()), "bool")
	return r
}

// RenderPostmortem prints the human-readable summary.
func RenderPostmortem(w io.Writer, res PostmortemResult) {
	fmt.Fprintln(w, "Postmortem — flight recorder under a forged total-order violation")
	fmt.Fprintf(w, "  committed: %d   violations flagged: %d   bundles: %d/%d nodes\n",
		res.Committed, len(res.Violations), len(res.Bundles), res.Nodes)
	fmt.Fprintf(w, "  merged timeline: %d entries, causally ordered: %v, forged event present: %v\n",
		res.TimelineLen, res.TimelineOrdered, res.ForgedInTimeline)
	fmt.Fprintf(w, "  offline replay re-detected the violation: %v\n", res.ReplayDetected)
	if res.ReplayErr != "" {
		fmt.Fprintf(w, "    %s\n", res.ReplayErr)
	}
	fmt.Fprintf(w, "  recorder overhead: on %.0f ms, off %.0f ms (%+.1f%%)\n",
		res.WallOnMS, res.WallOffMS, res.OverheadPct)
	fmt.Fprintf(w, "  certified: %v\n", res.Certified())
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %v\n", v)
	}
	if res.Dir != "" {
		fmt.Fprintf(w, "  bundles under: %s\n", res.Dir)
	}
}
