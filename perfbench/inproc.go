package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"shadowdb"
	"shadowdb/internal/bench/tpcc"
	"shadowdb/internal/core"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

// sessions is the number of concurrent client sessions of every
// workload: one per core of the 2-core machine the benchmark targets.
const sessions = 2

// setupRepeats is how many times each run sets its deployment up; the
// reported setup_s is the median.
const setupRepeats = 7

// traceCap bounds the in-process trace ring of a traced run.
const traceCap = 1 << 16

// execTimeout is when a request counts as failed.
const execTimeout = 10 * time.Second

// warmup is how long the closed-loop sessions run before anything is
// measured.
const warmup = 2 * time.Second

// inproc is one in-process deployment opened through shadowdb.Open.
type inproc struct {
	cluster *shadowdb.Cluster
	obs     *obs.Obs // runtime metrics and the causal trace of the cluster
	sql     *sqlTimer
	clients []*shadowdb.Client
	closed  bool
}

// close shuts the deployment down; later calls do nothing.
func (d *inproc) close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, c := range d.clients {
		_ = c.Close()
	}
	_ = d.cluster.Close()
}

// openInproc opens a cluster and waits until its first commit succeeds;
// the elapsed time is one setup_s sample.
func openInproc(mode shadowdb.Mode, reg core.Registry, setup func(*shadowdb.DB) error, first op) (*inproc, time.Duration, error) {
	d := &inproc{obs: obs.New(traceCap), sql: &sqlTimer{}}
	start := time.Now()
	c, err := shadowdb.Open(shadowdb.Config{
		Replication: mode,
		Procedures:  d.sql.wrap(reg),
		Setup:       setup,
		Obs:         d.obs,
	})
	if err != nil {
		return nil, 0, err
	}
	d.cluster = c
	for i := 0; i < sessions; i++ {
		cl, err := c.Client()
		if err != nil {
			d.close()
			return nil, 0, err
		}
		d.clients = append(d.clients, cl)
	}
	res, err := d.clients[0].ExecTimeout(execTimeout, first.typ, first.args...)
	if err != nil || res.Aborted {
		d.close()
		return nil, 0, fmt.Errorf("first commit: aborted=%v err=%v", res.Aborted, err)
	}
	return d, time.Since(start), nil
}

// setups is how many times a run sets its deployment up: a traced run
// once, as it reports no setup_s.
func (o options) setups() int {
	if o.trace {
		return 1
	}
	return setupRepeats
}

// openRepeated sets the deployment up repeats times (each a fresh
// cluster, all but the last closed again) and returns the last one with
// the median setup time.
func openRepeated(repeats int, open func() (*inproc, time.Duration, error)) (*inproc, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		d, el, err := open()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, el.Seconds())
		if i == repeats-1 {
			note("setup_s samples: %.4v (median of %d)", times, len(times))
			return d, median(times), nil
		}
		d.close()
		runtime.GC()
	}
}

// session is one closed-loop client: it sends its next request as soon
// as the previous one finished.
type session struct {
	cl   *shadowdb.Client
	next func() op
	// onCommit sees every committed request (for the output check).
	onCommit func(op)

	mu      sync.Mutex
	samples []sample
	failed  int64
}

func (s *session) loop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		o := s.next()
		start := time.Now()
		res, err := s.cl.ExecTimeout(execTimeout, o.typ, o.args...)
		smp := sample{due: start, sent: start, done: time.Now(), read: o.read, ok: err == nil && !res.Aborted}
		if err == nil && !res.Aborted && s.onCommit != nil {
			s.onCommit(o)
		}
		s.mu.Lock()
		s.samples = append(s.samples, smp)
		if err != nil {
			s.failed++
		}
		s.mu.Unlock()
		if err != nil {
			// A failed request stays outstanding in the client, which
			// takes one at a time: the session cannot go on.
			fmt.Fprintln(os.Stderr, "request failed, session stops:", err)
			return
		}
	}
}

// snapshotSamples returns a copy of the samples so far.
func (s *session) snapshotSamples() []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sample(nil), s.samples...)
}

// meter captures every counter source of an in-process deployment at
// one instant: the process-wide registry (core, broadcast, store), the
// cluster's own (runtime), and the SQL timer.
type meter struct {
	at       time.Time
	c        counters
	sqlCalls float64
	sqlNS    float64
}

func (d *inproc) meter() meter {
	c := flatten(obs.Default.Snapshot())
	c.add(flatten(d.obs.Snapshot()))
	return meter{at: time.Now(), c: c, sqlCalls: float64(d.sql.calls.Load()), sqlNS: float64(d.sql.ns.Load())}
}

// inprocLayers fills the counter-derived per-layer metrics for the
// window a..b, in which commits transactions committed.
func inprocLayers(m metricSet, a, b meter, commits, attempted float64) {
	d := b.c.minus(a.c)
	calls := b.sqlCalls - a.sqlCalls
	ns := b.sqlNS - a.sqlNS
	m.put("sqldb.proc_us", ratio(ns, calls)/1e3)
	m.put("sqldb.procs_per_commit", ratio(calls, commits))
	m.put("sqldb.busy_share", ratio(ns, float64(b.at.Sub(a.at))))
	m.put("runtime.steps_per_commit", ratio(d["runtime.steps"], commits))
	m.put("runtime.step_us_per_commit", ratio(d["runtime.step_ns.sum"], commits)/1e3)
	m.put("broadcast.ops_per_slot", d.mean("broadcast.batch_size"))
	m.put("broadcast.proposals_per_commit", ratio(d["broadcast.proposals"], commits))
	m.put("core.apply_us", d.mean("core.smr.apply_ns")/1e3)
	m.put("core.pbr_commit_us", d.mean("core.pbr.commit_ns")/1e3)
	m.put("core.client_retries_per_op", ratio(d["core.client.retries"], attempted))
	m.put("store.appends_per_commit", ratio(d["store.wal.appends"], commits))
	m.put("store.fsyncs_per_commit", ratio(d["store.wal.fsyncs"], commits))
	note("window %.2fs: %.0f commits, %.0f procedure calls, %.0f runtime steps, %.0f broadcast proposals",
		b.at.Sub(a.at).Seconds(), commits, calls, d["runtime.steps"], d["broadcast.proposals"])
}

// phase is a measured interval, the samples that started and ended
// inside it, and the machine's CPU samples over it.
type phase struct {
	from, to time.Time
	samples  []sample
	cpu      []cpuSample
}

func collect(ss []*session, from, to time.Time) phase {
	p := phase{from: from, to: to}
	for _, s := range ss {
		for _, smp := range s.snapshotSamples() {
			if !smp.sent.Before(from) && !smp.done.After(to) {
				p.samples = append(p.samples, smp)
			}
		}
	}
	return p
}

func (p phase) commits() []float64 {
	return latencies(p.samples, func(s sample) bool { return !s.read })
}
func (p phase) reads() []float64 { return latencies(p.samples, func(s sample) bool { return s.read }) }

// e2eSet fills the end-to-end metrics. commit_tps, commit_p50_ms and
// commit_p99_ms are taken over the quiet intervals of the phase
// (phase.quietIntervals): the requests due in them, over their total
// length. The whole phase's numbers and each stretch's are printed
// alongside.
func e2eSet(p phase, setup, heap float64, attempted, failed int64) metricSet {
	all := p.commits()
	secs := p.to.Sub(p.from).Seconds()
	tail("commit over the whole phase", all)
	note("commit_tps over the whole phase: %.2f over %.2fs", float64(len(all))/secs, secs)
	quiet := p.quietIntervals()
	per := len(quiet) / strata
	var parts []string
	for k := 0; k < strata && per > 0; k++ {
		ivs := quiet[k*per : (k+1)*per]
		c := p.within(ivs).commits()
		var stolen float64
		for _, iv := range ivs {
			stolen += iv.stolen / float64(len(ivs))
		}
		parts = append(parts, fmt.Sprintf("%.0f/%.3f/%.3f/%.1f%%", float64(len(c))/span(ivs).Seconds(),
			quantile(c, 0.50), quantile(c, 0.99), 100*stolen))
	}
	note("quiet intervals per fifth of the phase (tps/p50 ms/p99 ms/stolen CPU): %s", strings.Join(parts, " "))
	commits, kept := p.within(quiet).commits(), span(quiet).Seconds()
	if len(quiet) == 0 { // no CPU samples (no /proc/stat): the whole phase
		commits, kept = all, secs
	}
	note("quiet intervals: %d of %d, %.2fs", len(quiet), len(p.cpu), kept)
	p50, p99 := tail("commit (quiet intervals)", commits)
	m := metricSet{}
	m.set("setup_s", setup, "s")
	m.set("commit_tps", ratio(float64(len(commits)), kept), "1/s")
	m.set("commit_p50_ms", p50, "ms")
	m.set("commit_p99_ms", p99, "ms")
	m.set("ok_ratio", 1-ratio(float64(failed), float64(attempted)), "ratio")
	m.set("heap_mb", heap, "MiB")
	note("commit_tps (quiet intervals): %.2f", m["commit_tps"].Value)
	note("attempted=%d failed=%d ok_ratio=%.6f heap_mb=%.2f", attempted, failed, m["ok_ratio"].Value, heap)
	return m
}

// runClosed starts every session's loop, lets it warm up, and returns a
// stop function that ends them and waits.
func runClosed(ss []*session) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			s.loop(stop)
		}(s)
	}
	time.Sleep(warmup)
	return func() {
		close(stop)
		wg.Wait()
	}
}

func totals(ss []*session) (attempted, failed int64) {
	for _, s := range ss {
		s.mu.Lock()
		attempted += int64(len(s.samples))
		failed += s.failed
		s.mu.Unlock()
	}
	return attempted, failed
}

// steadyPhase lets the running sessions work for secs seconds with
// tracing off and returns what they did.
func steadyPhase(ss []*session, secs float64) phase {
	w := watchCPU()
	start := time.Now()
	time.Sleep(time.Duration(secs * float64(time.Second)))
	p := collect(ss, start, time.Now())
	p.cpu = w.finish()
	return p
}

// tracedPhases runs the traced run's two halves: the first with tracing
// off (the baseline for trace.overhead_pct, and the window the counter
// metrics come from), the second with the cluster's trace ring on.
func tracedPhases(d *inproc, ss []*session, secs float64, m metricSet) (untraced phase, ma, mb meter, ok bool) {
	half := time.Duration(secs * float64(time.Second) / 2)
	ma = d.meter()
	time.Sleep(half)
	mb = d.meter()
	d.obs.EnableTracing(true)
	tb := time.Now()
	time.Sleep(half)
	d.obs.EnableTracing(false)
	te := time.Now()
	untraced = collect(ss, ma.at, mb.at)
	traced := collect(ss, tb, te)
	ok = traceBreakdown(dist.Spans(d.obs.Events()), m)
	u := quantile(untraced.commits(), 0.5)
	t := quantile(traced.commits(), 0.5)
	m.put("trace.overhead_pct", 100*(ratio(t, u)-1))
	note("trace overhead: commit p50 untraced=%.4f ms traced=%.4f ms", u, t)
	return untraced, ma, mb, ok
}

// ---------------------------------------------------------------- smr-bank

func runSMRBank(o options) (outcome, error) {
	reg := core.BankRegistry()
	setup := func(db *shadowdb.DB) error { return core.BankSetup(db, bankAccounts) }
	probe := op{typ: "deposit", args: []any{int64(0), int64(0)}}
	d, setupS, err := openRepeated(o.setups(), func() (*inproc, time.Duration, error) {
		return openInproc(shadowdb.SMR, reg, setup, probe)
	})
	if err != nil {
		return outcome{}, err
	}
	defer d.close()
	heap := liveHeapMB()
	note("config: SMR in-process, %d replicas (engines h2/hsqldb/derby), %d accounts, %d closed-loop sessions, 100%% deposit",
		3, bankAccounts, sessions)

	var ackMu sync.Mutex
	acked := int64(0)
	var ss []*session
	for i := 0; i < sessions; i++ {
		ss = append(ss, &session{cl: d.clients[i], next: newBankGen(o.seed, i, 0).next, onCommit: func(op op) {
			ackMu.Lock()
			acked += op.args[1].(int64)
			ackMu.Unlock()
		}})
	}
	out := outcome{layers: newLayerSet()}
	stop := runClosed(ss)
	var p phase
	if o.trace {
		var ma, mb meter
		var traceOK bool
		p, ma, mb, traceOK = tracedPhases(d, ss, o.seconds, out.layers)
		stop()
		inprocLayers(out.layers, ma, mb, float64(len(p.commits())), float64(len(p.samples)))
		out.correct = traceOK
	} else {
		p = steadyPhase(ss, o.seconds)
		stop()
		out.correct = true
	}
	out.attempted, out.failed = totals(ss)
	if err := codecProbe(newBankGen(o.seed, 0, 0).next, true, out.layers); err != nil {
		return outcome{}, err
	}
	ok := checkBank(d, bankAccounts*bankInitial+acked)
	out.correct = out.correct && ok
	out.layers.put("mem.growth_kb_per_op", memGrowth(ss, heap))
	out.e2e = e2eSet(p, setupS, heap, out.attempted, out.failed)
	if o.trace {
		// The traced run also measures the layers only a TCP deployment
		// exercises (network, WAL, fsync), once the in-process cluster
		// has stopped taking CPU.
		d.close()
		ok, attempted, failed, err := runTCPLayers(o, out.layers)
		if err != nil {
			return outcome{}, err
		}
		out.correct = out.correct && ok
		out.attempted += attempted
		out.failed += failed
	}
	return out, nil
}

// memGrowth is how much resident memory the deployment gained per
// completed request over the run, in KiB.
func memGrowth(ss []*session, before float64) float64 {
	var done float64
	for _, s := range ss {
		for _, smp := range s.snapshotSamples() {
			if smp.ok {
				done++
			}
		}
	}
	g := ratio((liveHeapMB()-before)*1024, done)
	note("memory: %.2f MiB live heap after set-up, %.3f KiB more per completed request", before, g)
	return g
}

// checkBank waits for every replica to agree and hold the expected
// balance total.
func checkBank(d *inproc, want int64) bool {
	deadline := time.Now().Add(10 * time.Second)
	for {
		sums, digests := make([]int64, 3), make([]string, 3)
		good := true
		for i := 0; i < 3; i++ {
			db, err := d.cluster.ReplicaDB(i)
			if err != nil {
				fmt.Fprintln(os.Stderr, "check:", err)
				return false
			}
			sums[i] = balanceSum(db)
			digests[i] = dbDigest(db)
			good = good && sums[i] == want && digests[i] == digests[0]
		}
		if good {
			note("check: 3 replicas identical, balance sum %d = initial + acknowledged deposits", want)
			return true
		}
		if time.Now().After(deadline) {
			note("check FAILED: balance sums %v, want %d; digests %v", sums, want, digests)
			return false
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func balanceSum(db *shadowdb.DB) int64 {
	var sum int64
	for _, t := range db.Snapshot() {
		if t.Schema.Name != "accounts" {
			continue
		}
		for _, r := range t.Rows {
			// Columns: id, owner, balance.
			switch v := r[2].(type) {
			case int64:
				sum += v
			case int:
				sum += int64(v)
			}
		}
	}
	return sum
}

// ------------------------------------------------------- pbr-tpcc-failover

func runTPCCFailover(o options) (outcome, error) {
	reg := tpcc.Registry(tpccScale)
	setup := tpcc.SetupFunc(tpccScale)
	probe := op{typ: "order_status", args: []any{int64(1), int64(1), int64(1)}}
	d, setupS, err := openRepeated(o.setups(), func() (*inproc, time.Duration, error) {
		return openInproc(shadowdb.PBR, reg, setup, probe)
	})
	if err != nil {
		return outcome{}, err
	}
	defer d.close()
	heap := liveHeapMB()
	note("config: PBR in-process (primary r1, backup r2, spare r3), TPC-C %+v, standard mix, %d closed-loop sessions; primary crash after the steady phase",
		tpccScale, sessions)

	var ss []*session
	for i := 0; i < sessions; i++ {
		ss = append(ss, &session{cl: d.clients[i], next: newTPCCGen(o.seed, i).next})
	}
	out := outcome{layers: newLayerSet(), correct: true}
	stop := runClosed(ss)
	var p phase
	if o.trace {
		var ma, mb meter
		p, ma, mb, out.correct = tracedPhases(d, ss, o.seconds, out.layers)
		inprocLayers(out.layers, ma, mb, float64(len(p.commits())), float64(len(p.samples)))
	} else {
		p = steadyPhase(ss, o.seconds)
	}
	mEnd := d.meter()

	// Crash the primary and wait for the first commit of a request sent
	// after the crash.
	crash := time.Now()
	if err := d.cluster.Crash(0); err != nil {
		stop()
		return outcome{}, err
	}
	failover, found := 0.0, false
	for deadline := crash.Add(30 * time.Second); !found && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		for _, s := range ss {
			for _, smp := range s.snapshotSamples() {
				if smp.ok && smp.sent.After(crash) {
					if f := smp.done.Sub(crash).Seconds(); !found || f < failover {
						failover, found = f, true
					}
				}
			}
		}
	}
	time.Sleep(time.Second) // let the new configuration serve for a while
	stop()
	mRec := d.meter()
	rec := mRec.c.minus(mEnd.c)
	out.layers.put("core.pbr_recovery_ms", rec.mean("core.pbr.recovery_ns")/1e6)
	if found {
		note("failover_s: %.4f s (crash to first commit of a request sent after it)", failover)
		out.layers.put("e2e.failover_s", failover)
	} else {
		note("failover FAILED: no commit within 30 s of the primary crash")
		out.correct = false
	}
	r50, r99 := tail("read (order_status, stock_level)", p.reads())
	out.layers.put("e2e.read_p50_ms", r50)
	out.layers.put("e2e.read_p99_ms", r99)

	out.attempted, out.failed = totals(ss)
	if err := codecProbe(newTPCCGen(o.seed, 0).next, false, out.layers); err != nil {
		return outcome{}, err
	}
	out.correct = checkSurvivors(d) && out.correct
	out.layers.put("mem.growth_kb_per_op", memGrowth(ss, heap))
	out.e2e = e2eSet(p, setupS, heap, out.attempted, out.failed)
	return out, nil
}

// checkSurvivors waits until the two surviving replicas (the promoted
// backup and the spare that received state transfer) hold identical
// data.
func checkSurvivors(d *inproc) bool {
	deadline := time.Now().Add(15 * time.Second)
	for {
		a, errA := d.cluster.ReplicaDB(1)
		b, errB := d.cluster.ReplicaDB(2)
		if errA != nil || errB != nil {
			note("check FAILED: %v %v", errA, errB)
			return false
		}
		da, db := dbDigest(a), dbDigest(b)
		if da == db && a.NumTables() > 0 {
			note("check: surviving replicas r2 and r3 identical (%d tables)", a.NumTables())
			return true
		}
		if time.Now().After(deadline) {
			note("check FAILED: surviving replicas differ: %s vs %s", da[:12], db[:12])
			return false
		}
		time.Sleep(100 * time.Millisecond)
	}
}
