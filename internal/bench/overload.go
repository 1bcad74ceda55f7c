package bench

import (
	"fmt"
	"io"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/flow"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

// The overload experiment certifies end-to-end overload control
// (DESIGN.md §14): a 5-node SMR deployment (3 broadcast service nodes,
// 2 replicas) is driven by an OPEN-loop generator fleet — submissions
// arrive on a schedule, not in response to completions, so offered
// load does not politely back off when the system slows down — at 1x,
// 4x, and 16x of a baseline rate, with a slow-disk nemesis degrading
// one replica mid-way through the 16x phase. Every request carries a
// deadline; the sequencer's bounded admission queue (FlowLimit) sheds
// the excess with explicit flow.Reject answers.
//
// The flow-aware online checker audits the run from the trace alone:
// flow/terminal-outcome (every submission ends in a result, a
// rejection, or a passed deadline), flow/queue-bound (no admission
// queue over its configured bound), and flow/goodput-floor (16x
// completion rate at least Floor of the 1x rate — overload degrades
// goodput, never collapses it). A flow.Watchdog over windowed shed
// rates must detect the sustained 16x episode and (when a flight dir
// is armed) dump postmortem bundles. Figures go to BENCH_overload.json.

// hdrOverloadTick is the generator's self-addressed submission timer.
// Submissions must leave a traced node step (not a bare simulator
// callback) so the checker observes them and opens flows.
const hdrOverloadTick = "bench.ovl.tick"

// OverloadConfig sizes the overload experiment.
type OverloadConfig struct {
	// Generators is the open-loop submitter fleet size; BaseRate is the
	// fleet's aggregate 1x submission rate (tx/s).
	Generators int
	BaseRate   float64
	// PhaseDur is the length of each load phase (1x, 4x, 16x).
	PhaseDur time.Duration
	// Deadline is stamped on every request; hops refuse expired work.
	Deadline time.Duration
	// FlowLimit bounds the sequencer's admission queue.
	FlowLimit int
	// MaxBatch / Pipeline configure the broadcast hot path.
	MaxBatch int
	Pipeline int
	// Rows is the bank table size.
	Rows int
	// IntakeCost is the modeled CPU cost of receiving one client
	// submission at a service node (header dispatch, dedup lookup,
	// admission check). Admission control is engineered to be cheap —
	// orders of magnitude under the consensus work it guards — which is
	// what makes shedding effective: refusing work must cost less than
	// doing it.
	IntakeCost time.Duration
	// The gray-failure nemesis: SlowNode's execution cost is multiplied
	// by SlowFactor from SlowAfter into the 16x phase until the phase
	// ends.
	SlowNode   msg.Loc
	SlowFactor float64
	SlowAfter  time.Duration
	// Floor is the goodput floor: 16x completion rate must be at least
	// Floor times the 1x rate.
	Floor float64
	// P99Bound caps the per-phase p99 latency of completed requests.
	P99Bound time.Duration
	// Watchdog tuning: shed-rate windows of WatchWindow; rejects per
	// window at or above WatchThreshold for WatchWindows consecutive
	// windows is a sustained episode.
	WatchWindow    time.Duration
	WatchThreshold int64
	WatchWindows   int
	// Drain bounds the post-load quiesce (the 16x backlog must fully
	// resolve — every admitted request to its outcome).
	Drain time.Duration
	// RingSize is the obs ring capacity; Seed drives the fault plan.
	RingSize int
	Seed     uint64
	// FlightDir, when non-empty, arms per-node flight recorders; the
	// watchdog dumps them on sustained overload.
	FlightDir string
}

// DefaultOverload is the paper-scale run.
func DefaultOverload() OverloadConfig {
	return OverloadConfig{
		Generators: 8, BaseRate: 300, PhaseDur: 2 * time.Second,
		Deadline:  250 * time.Millisecond,
		FlowLimit: 64, MaxBatch: 16, Pipeline: 4, Rows: 256,
		IntakeCost: 50 * time.Microsecond,
		SlowNode:   "r1", SlowFactor: 8, SlowAfter: 500 * time.Millisecond,
		Floor: 0.6, P99Bound: 400 * time.Millisecond,
		WatchWindow: 100 * time.Millisecond, WatchThreshold: 10, WatchWindows: 3,
		Drain: 8 * time.Second, RingSize: 1 << 16, Seed: 42,
	}
}

// QuickOverload is the CI-sized run.
func QuickOverload() OverloadConfig {
	cfg := DefaultOverload()
	cfg.Generators, cfg.BaseRate = 6, 250
	cfg.PhaseDur = 800 * time.Millisecond
	cfg.SlowAfter = 200 * time.Millisecond
	cfg.Drain = 5 * time.Second
	cfg.RingSize = 1 << 15
	return cfg
}

// OverloadPhase is one load phase's certified accounting: counts from
// the checker's trace-derived flow ledger, latencies from the bench's
// own submit/complete timestamps.
type OverloadPhase struct {
	Name      string
	Mult      int
	Submitted int64
	Completed int64
	Aborted   int64
	Shed      int64
	// GoodputPerSec is completions credited to the phase over its window.
	GoodputPerSec float64
	MeanMs        float64
	P99Ms         float64
}

// OverloadResult is the certified outcome of one overload run.
type OverloadResult struct {
	Phases []OverloadPhase
	// GoodputRatio is 16x goodput over 1x goodput; FloorWant is the
	// configured floor it must meet.
	GoodputRatio float64
	FloorWant    float64
	// P99BoundMs is the configured per-phase p99 ceiling.
	P99BoundMs float64
	// Cross-layer flow counter deltas over the run.
	Admitted int64
	Shed     int64
	Expired  int64
	Rejects  int64
	// WatchdogFired reports that the shed-rate watchdog detected the
	// sustained 16x episode.
	WatchdogFired bool
	// OpenFlows counts submissions with no observed terminal outcome
	// after the drain (passed-deadline flows excepted by the checker).
	OpenFlows int
	// Fingerprint hashes the injection log (the slow-disk schedule).
	Fingerprint uint64
	Events      int64
	Violations  []dist.Violation
}

// Certified reports whether the run meets the overload acceptance bar:
// the 1x phase completes essentially everything it submits (≥99%), the
// 16x phase genuinely sheds, goodput under 16x overload stays at or
// above the floor fraction of baseline, every phase's completed-request
// p99 stays under the bound, the watchdog caught the sustained episode,
// and the checker stayed clean (terminal outcomes, queue bounds, and
// the goodput floor are its properties).
func (r OverloadResult) Certified() bool {
	if len(r.Phases) != 3 {
		return false
	}
	base, peak := r.Phases[0], r.Phases[2]
	clean1x := base.Submitted > 0 && base.Completed*100 >= base.Submitted*99
	for _, p := range r.Phases {
		if p.Completed > 0 && p.P99Ms > r.P99BoundMs {
			return false
		}
	}
	return clean1x && peak.Shed > 0 &&
		r.GoodputRatio >= r.FloorWant &&
		r.WatchdogFired &&
		len(r.Violations) == 0
}

// overloadMults are the offered-load multipliers of the three phases.
var overloadMults = [3]int{1, 4, 16}

// overloadPhaseStats is the bench-side latency ledger of one phase.
type overloadPhaseStats struct {
	lat     des.LatencyRecorder
	aborted int64
}

// Overload runs the experiment.
func Overload(cfg OverloadConfig) OverloadResult {
	d := newDeployment()
	sim, clu := d.sim, d.clu
	// Intake is priced separately, and the nemesis's slow-disk window
	// degrades a node mid-run through the injector bound below.
	d.intake = cfg.IntakeCost
	for _, l := range []msg.Loc{"r1", "r2"} {
		d.hostReplica(l, core.NewSMRReplica(l, openDB("h2", bankSetup(cfg.Rows)), core.BankRegistry()))
	}
	// Three service nodes order for two replicas: b3 carries no local
	// subscriber, it only participates in consensus (the 5-node shape).
	bloc := []msg.Loc{"b1", "b2", "b3"}
	d.addBroadcast(broadcast.Config{
		Nodes:            bloc,
		LocalSubscribers: map[msg.Loc][]msg.Loc{"b1": {"r1"}, "b2": {"r2"}},
		MaxBatch:         cfg.MaxBatch,
		Pipeline:         cfg.Pipeline,
		FlowLimit:        cfg.FlowLimit,
		Classify:         core.FlowClass,
		FlowNow:          sim.Now,
	}, broadcast.Compiled)
	d.watch(cfg.RingSize, cfg.FlightDir, "overload", func(c *dist.Checker) { c.SetFlow(cfg.FlowLimit) })
	checker := d.checker

	// The slow-disk window opens SlowAfter into the 16x phase and heals
	// when the load stops.
	t16 := 2 * cfg.PhaseDur
	loadEnd := 3 * cfg.PhaseDur
	inj := d.bindFaults(fault.Plan{
		Seed: cfg.Seed,
		SlowDisks: []fault.SlowDisk{{
			At: fault.Duration(t16 + cfg.SlowAfter), Until: fault.Duration(loadEnd),
			Node: cfg.SlowNode, Factor: cfg.SlowFactor,
		}},
	})

	// Counter baselines (package counters are process-global).
	admitted0 := obs.C("flow.admitted").Value()
	shed0 := obs.C("flow.shed").Value()
	expired0 := obs.C("flow.deadline.dropped").Value()
	rejects0 := obs.C("flow.rejects.sent").Value()

	// The watchdog over windowed reject rates: sustained shedding dumps
	// the flight recorders, exactly like a checker violation would.
	rates := obs.NewRates(obs.Default, cfg.WatchWindow, 4096)
	wd := &flow.Watchdog{
		Rates: rates, Metric: "flow.rejects.sent",
		Threshold: cfg.WatchThreshold, Windows: cfg.WatchWindows,
		OnSustained: func(int) { d.dump("sustained-overload") },
	}
	d.every(cfg.WatchWindow, cfg.WatchWindow, func() bool {
		rates.Tick()
		wd.Check()
		return sim.Now() < loadEnd+cfg.Drain
	})

	// Phase marks drive the checker's ledger; the trailing "drain" mark
	// closes the 16x window at loadEnd so goodput rates use the load
	// window, while late completions still credit their submission phase.
	names := [3]string{"1x", "4x", "16x"}
	for i := range names {
		i := i
		sim.At(time.Duration(i)*cfg.PhaseDur, func() {
			checker.NoteFlowPhase(names[i], int64(sim.Now()))
		})
	}
	sim.At(loadEnd, func() { checker.NoteFlowPhase("drain", int64(sim.Now())) })

	// The open-loop generator fleet. Each generator ticks itself with a
	// self-addressed timer and emits one submission per tick from the
	// node step, so the trace (and therefore the checker) sees it. No
	// retries: the deployment must answer every submission, or the
	// terminal-outcome property flags it.
	type pending struct {
		at    time.Duration
		phase int
	}
	phStats := [3]*overloadPhaseStats{{}, {}, {}}
	phaseOf := func(now time.Duration) int {
		p := int(now / cfg.PhaseDur)
		if p > 2 {
			p = 2
		}
		return p
	}
	for g := 0; g < cfg.Generators; g++ {
		loc := msg.Loc(fmt.Sprintf("gen%d", g))
		work := MicroWorkload(cfg.Rows, int64(g)*104729+7)
		outstanding := make(map[int64]pending)
		seq := int64(0)
		home := g
		clu.AddNode(loc, 1, nil, func(env des.Envelope) []msg.Directive {
			switch b := env.M.Body.(type) {
			case core.TxResult:
				p, ok := outstanding[b.Seq]
				if !ok {
					return nil // duplicate answer from the second replica
				}
				delete(outstanding, b.Seq)
				st := phStats[p.phase]
				st.lat.Add(sim.Now() - p.at)
				if b.Aborted || b.Err != "" {
					st.aborted++
				}
				return nil
			case flow.Reject:
				delete(outstanding, b.Seq)
				return nil
			}
			if env.M.Hdr != hdrOverloadTick {
				return nil
			}
			now := sim.Now()
			if now >= loadEnd {
				return nil
			}
			ph := phaseOf(now)
			seq++
			typ, args := work()
			req := core.TxRequest{
				Client: loc, Seq: seq, Type: typ, Args: args,
				Deadline: int64(now + cfg.Deadline),
			}
			pay, err := core.EncodeTx(req)
			if err != nil {
				panic(err)
			}
			outstanding[seq] = pending{at: now, phase: ph}
			home++
			interval := time.Duration(float64(cfg.Generators) * float64(time.Second) /
				(cfg.BaseRate * float64(overloadMults[ph])))
			return []msg.Directive{
				msg.SendAfter(interval, loc, msg.M(hdrOverloadTick, nil)),
				msg.Send(bloc[home%len(bloc)], msg.M(broadcast.HdrBcast, broadcast.Bcast{
					From: loc, Seq: seq, Payload: pay, Deadline: req.Deadline,
				})),
			}
		})
		// Stagger the fleet so submissions don't arrive in lockstep.
		clu.SendAfter(time.Duration(g)*time.Millisecond, loc, loc, msg.M(hdrOverloadTick, nil))
	}

	sim.Run(0, 400_000_000)

	checker.FinishFlow(int64(sim.Now()))
	checker.CheckGoodputFloor("1x", "16x", cfg.Floor)

	res := OverloadResult{
		FloorWant:  cfg.Floor,
		P99BoundMs: float64(cfg.P99Bound) / float64(time.Millisecond),
		Admitted:   obs.C("flow.admitted").Value() - admitted0,
		Shed:       obs.C("flow.shed").Value() - shed0,
		Expired:    obs.C("flow.deadline.dropped").Value() - expired0,
		Rejects:    obs.C("flow.rejects.sent").Value() - rejects0,
	}
	res.WatchdogFired = wd.Fired()
	res.OpenFlows = checker.OpenFlows()
	res.Fingerprint = inj.Fingerprint()
	res.Events = checker.Status().Events
	res.Violations = checker.Violations()

	var rate [3]float64
	for i, p := range checker.FlowPhases() {
		if i > 2 {
			break // the drain phase carries no load of its own
		}
		st := phStats[i]
		ph := OverloadPhase{
			Name: p.Name, Mult: overloadMults[i],
			Submitted: p.Submitted, Completed: p.Completed,
			Aborted: st.aborted, Shed: p.Shed,
			MeanMs: float64(st.lat.Mean()) / float64(time.Millisecond),
			P99Ms:  float64(st.lat.Percentile(99)) / float64(time.Millisecond),
		}
		if p.To > p.From {
			rate[i] = float64(p.Completed) * float64(time.Second) / float64(p.To-p.From)
		}
		ph.GoodputPerSec = rate[i]
		res.Phases = append(res.Phases, ph)
	}
	if rate[0] > 0 {
		res.GoodputRatio = rate[2] / rate[0]
	}
	if !res.Certified() {
		d.dump("uncertified")
	}
	return res
}

// ReportOverload flattens the experiment for BENCH_overload.json.
func ReportOverload(res OverloadResult, quick bool) *Report {
	r := NewReport("overload", quick)
	for _, p := range res.Phases {
		r.Add("overload."+p.Name+".submitted", float64(p.Submitted), "count")
		r.Add("overload."+p.Name+".completed", float64(p.Completed), "count")
		r.Add("overload."+p.Name+".shed", float64(p.Shed), "count")
		r.Add("overload."+p.Name+".goodput", p.GoodputPerSec, "tx/s")
		r.Add("overload."+p.Name+".mean", p.MeanMs, "ms")
		r.Add("overload."+p.Name+".p99", p.P99Ms, "ms")
	}
	r.Add("overload.goodput_ratio", res.GoodputRatio, "x")
	r.Add("overload.admitted", float64(res.Admitted), "count")
	r.Add("overload.shed", float64(res.Shed), "count")
	r.Add("overload.deadline_dropped", float64(res.Expired), "count")
	r.Add("overload.rejects_sent", float64(res.Rejects), "count")
	r.Add("overload.watchdog_fired", b2f(res.WatchdogFired), "bool")
	r.Add("overload.open_flows", float64(res.OpenFlows), "count")
	r.Add("overload.checker.events", float64(res.Events), "count")
	r.Add("overload.checker.violations", float64(len(res.Violations)), "count")
	r.Add("overload.certified", b2f(res.Certified()), "bool")
	return r
}

// RenderOverload prints the human-readable summary.
func RenderOverload(w io.Writer, res OverloadResult) {
	fmt.Fprintln(w, "Overload — admission, deadlines, and certified graceful degradation (open loop, slow-disk nemesis at 16x)")
	for _, p := range res.Phases {
		fmt.Fprintf(w, "  %-4s submitted %6d, completed %6d (%d aborted), shed %6d   goodput %8.0f/s   mean %7.2fms  p99 %7.2fms\n",
			p.Name, p.Submitted, p.Completed, p.Aborted, p.Shed, p.GoodputPerSec, p.MeanMs, p.P99Ms)
	}
	fmt.Fprintf(w, "  goodput 16x/1x: %.2fx (floor: %.2fx)   p99 bound: %.0fms\n",
		res.GoodputRatio, res.FloorWant, res.P99BoundMs)
	fmt.Fprintf(w, "  flow: %d admitted, %d shed, %d deadline-dropped, %d rejects sent   watchdog fired: %v\n",
		res.Admitted, res.Shed, res.Expired, res.Rejects, res.WatchdogFired)
	fmt.Fprintf(w, "  open flows after drain: %d   nemesis fingerprint %#x\n", res.OpenFlows, res.Fingerprint)
	fmt.Fprintf(w, "  checker: %d events, %d violations   certified: %v\n",
		res.Events, len(res.Violations), res.Certified())
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %v\n", v)
	}
}
