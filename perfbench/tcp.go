package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/obs"
)

// The durable TCP deployment: 3 broadcast and 3 SMR replica processes
// of cmd/shadowdb on loopback, each with its own WAL data dir.
const (
	tcpRate    = 100.0 // offered requests per second, all sessions together
	tcpReadPct = 20    // share of lease-holder balance reads
	tcpFsync   = "batch"
	tcpRetry   = 500 * time.Millisecond
)

var (
	tcpBcast    = []string{"b1", "b2", "b3"}
	tcpReplicas = []string{"r1", "r2", "r3"}
	tcpEngines  = []string{"h2", "hsqldb", "derby"}
)

// scheduled is one open-loop request: when it is due, relative to the
// start of the measured phase, and what it is.
type scheduled struct {
	at time.Duration
	op op
}

// tcpSchedule is session s's share of the fixed-rate open-loop schedule
// over secs seconds: slots are 1/tcpRate apart and dealt round-robin to
// the sessions, and each slot's request is drawn from the session's
// seeded generator.
func tcpSchedule(seed int64, s int, secs float64) []scheduled {
	g := newBankGen(seed, s, tcpReadPct)
	var out []scheduled
	for k := s; float64(k)/tcpRate < secs; k += sessions {
		out = append(out, scheduled{at: time.Duration(float64(k) / tcpRate * float64(time.Second)), op: g.next()})
	}
	return out
}

// node is one cmd/shadowdb process.
type node struct {
	id, admin string
	cmd       *exec.Cmd
	exited    chan struct{}
}

// tcpSession is one harness-side client: its own TCP transport (the
// replicas dial back to its topology address) and a core.Client.
type tcpSession struct {
	tr  *network.TCP
	cli *core.Client
}

type tcpCluster struct {
	dir string
	// mu orders process starts against stop, which a signal can run
	// while the cluster is still booting.
	mu       sync.Mutex
	stopped  bool
	nodes    []*node
	sessions []*tcpSession
}

// launch starts one node process unless the cluster was stopped.
func (c *tcpCluster) launch(nd *node, bin string, args []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return fmt.Errorf("cluster stopped while booting")
	}
	return nd.start(bin, args, filepath.Join(c.dir, nd.id+".log"))
}

// bootTCP starts a fresh deployment on fresh ports and data dirs, then
// waits for the first commit, the first lease read and every node's
// admin endpoint; it returns the elapsed time from the first process
// launch.
func bootTCP(bin, root string) (*tcpCluster, time.Duration, error) {
	start := time.Now()
	c := &tcpCluster{dir: filepath.Join(root, "cluster")}
	onCleanup(c.stop)
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return c, 0, err
	}
	ids := append(append([]string{}, tcpBcast...), tcpReplicas...)
	ports, err := freePorts(2*len(ids) + sessions)
	if err != nil {
		return c, 0, err
	}
	topo := map[string]string{}
	for i, id := range ids {
		c.nodes = append(c.nodes, &node{id: id, admin: ports[len(ids)+i]})
		topo[id] = ports[i]
	}
	var cliIDs []string
	for s := 0; s < sessions; s++ {
		id := fmt.Sprintf("cli%d", s+1)
		cliIDs = append(cliIDs, id)
		topo[id] = ports[2*len(ids)+s]
	}
	tb, _ := json.Marshal(map[string]any{"epoch": 0, "nodes": topo})
	topoFile := filepath.Join(c.dir, "topology.json")
	if err := os.WriteFile(topoFile, tb, 0o644); err != nil {
		return c, 0, err
	}
	for i, nd := range c.nodes {
		args := []string{"-id", nd.id, "-topology", topoFile, "-admin", nd.admin,
			"-data-dir", filepath.Join(c.dir, nd.id), "-fsync", tcpFsync, "-log-level", "warn"}
		if strings.HasPrefix(nd.id, "b") {
			args = append(args, "-role", "broadcast")
		} else {
			args = append(args, "-role", "smr", "-lease", "-rows", strconv.Itoa(bankAccounts),
				"-engine", tcpEngines[i-len(tcpBcast)])
		}
		if err := c.launch(nd, bin, args); err != nil {
			return c, 0, err
		}
		// The broadcast service is up before any replica starts. Synod
		// sends each phase-1 and phase-2 message once and the TCP
		// transport drops what it cannot deliver, so when the first
		// proposal (a lease renewal or the first deposit) reached b1
		// before b2 and b3 listened, the leader waited forever for
		// promises that were never delivered and nothing committed.
		if i == len(tcpBcast)-1 {
			if err := waitAdmins(c.nodes[:len(tcpBcast)], 30*time.Second); err != nil {
				return c, 0, err
			}
		}
	}
	dir := map[msg.Loc]string{}
	for id, a := range topo {
		dir[msg.Loc(id)] = a
	}
	core.RegisterWireTypes()
	broadcast.RegisterWireTypes()
	var reps, bcs []msg.Loc
	for _, r := range tcpReplicas {
		reps = append(reps, msg.Loc(r))
	}
	for _, b := range tcpBcast {
		bcs = append(bcs, msg.Loc(b))
	}
	for _, id := range cliIDs {
		tr, err := network.NewTCP(msg.Loc(id), dir)
		if err != nil {
			return c, 0, err
		}
		c.mu.Lock()
		c.sessions = append(c.sessions, &tcpSession{tr: tr, cli: &core.Client{
			Slf: msg.Loc(id), Mode: core.ModeSMR, Replicas: reps, BcastNodes: bcs, Retry: tcpRetry,
		}})
		c.mu.Unlock()
	}
	if _, err := c.sessions[0].exec(op{typ: "deposit", args: []any{int64(0), int64(0)}}, 30*time.Second); err != nil {
		return c, 0, fmt.Errorf("first commit: %w%s", err, c.exited())
	}
	if _, err := c.sessions[0].read(op{typ: "balance", args: []any{int64(0)}}, core.ReadLease, "r1", 30*time.Second); err != nil {
		return c, 0, fmt.Errorf("first lease read: %w%s", err, c.exited())
	}
	if err := waitAdmins(c.nodes, 30*time.Second); err != nil {
		return c, 0, err
	}
	return c, time.Since(start), nil
}

// exited reports, for a boot failure's error message, which nodes are
// still running and the last lines of every node's log.
func (c *tcpCluster) exited() string {
	var b strings.Builder
	for _, nd := range c.nodes {
		state := "running"
		select {
		case <-nd.exited:
			state = "exited"
		default:
		}
		log, _ := os.ReadFile(filepath.Join(c.dir, nd.id+".log"))
		if len(log) > 800 {
			log = log[len(log)-800:]
		}
		fmt.Fprintf(&b, "\nnode %s (%s): %s", nd.id, state, log)
	}
	return b.String()
}

// waitAdmins waits until the admin endpoint of each of nodes answers
// /healthz.
func waitAdmins(nodes []*node, timeout time.Duration) error {
	cl := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for _, nd := range nodes {
		for {
			resp, err := cl.Get("http://" + nd.admin + "/healthz")
			if err == nil {
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("admin endpoint of %s not up after %v: %v", nd.id, timeout, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func (nd *node) start(bin string, args []string, logPath string) error {
	lf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	nd.cmd = exec.Command(bin, args...)
	nd.cmd.Stdout, nd.cmd.Stderr = lf, lf
	// Six node processes share the machine's two cores: one scheduler
	// thread each.
	nd.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// The node dies with the harness even if the harness is killed.
	nd.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := nd.cmd.Start(); err != nil {
		_ = lf.Close()
		return fmt.Errorf("start %s: %w", nd.id, err)
	}
	nd.exited = make(chan struct{})
	go func() {
		_ = nd.cmd.Wait()
		_ = lf.Close()
		close(nd.exited)
	}()
	return nil
}

// stop ends every node (SIGTERM, then SIGKILL after 3 s), waits for
// each to exit, closes the sessions and removes the data dirs. It is
// idempotent, and no node starts after it.
func (c *tcpCluster) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.stopped = true
	for _, s := range c.sessions {
		_ = s.tr.Close()
	}
	for _, nd := range c.nodes {
		if nd.exited != nil {
			_ = nd.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, nd := range c.nodes {
		if nd.exited == nil {
			continue
		}
		select {
		case <-nd.exited:
		case <-time.After(3 * time.Second):
			_ = nd.cmd.Process.Kill()
			<-nd.exited
		}
	}
	_ = os.RemoveAll(c.dir)
}

// nodesRSSMB sums a /proc status size field (VmHWM, VmRSS) over the
// nodes.
func (c *tcpCluster) nodesRSSMB(field string) float64 {
	var sum float64
	for _, nd := range c.nodes {
		sum += rssMB(strconv.Itoa(nd.cmd.Process.Pid), field)
	}
	return sum
}

// scrape reads every node's /metrics, flattened per role.
func (c *tcpCluster) scrape() (bcast, replica counters, err error) {
	bcast, replica = counters{}, counters{}
	cl := &http.Client{Timeout: 5 * time.Second}
	for _, nd := range c.nodes {
		resp, err := cl.Get("http://" + nd.admin + "/metrics")
		if err != nil {
			return nil, nil, err
		}
		var s obs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&s)
		_ = resp.Body.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("metrics of %s: %w", nd.id, err)
		}
		if strings.HasPrefix(nd.id, "b") {
			bcast.add(flatten(s))
		} else {
			replica.add(flatten(s))
		}
	}
	return bcast, replica, nil
}

// emit sends a client's directives, delayed ones (retry timers) later.
func (s *tcpSession) emit(outs []msg.Directive) {
	for _, o := range outs {
		env := msg.Envelope{From: s.cli.Slf, To: o.Dest, M: o.M, Deadline: msg.DeadlineOf(o.M)}
		if o.Delay > 0 {
			time.AfterFunc(o.Delay, func() { _ = s.tr.Send(env) })
			continue
		}
		_ = s.tr.Send(env)
	}
}

// exec runs one ordered transaction and waits for its result.
func (s *tcpSession) exec(o op, timeout time.Duration) (core.TxResult, error) {
	s.emit(s.cli.Submit(o.typ, o.args))
	deadline := time.After(timeout)
	for {
		select {
		case env, ok := <-s.tr.Receive():
			if !ok {
				return core.TxResult{}, fmt.Errorf("transport closed")
			}
			res, outs := s.cli.Handle(env.M)
			s.emit(outs)
			if res != nil {
				if res.Err != "" {
					return *res, fmt.Errorf("%s: %s", o.typ, res.Err)
				}
				return *res, nil
			}
		case <-deadline:
			return core.TxResult{}, fmt.Errorf("%s timed out after %v", o.typ, timeout)
		}
	}
}

// read runs one local read at target and returns the balance it served.
func (s *tcpSession) read(o op, mode core.ReadMode, target msg.Loc, timeout time.Duration) (int64, error) {
	s.emit(s.cli.SubmitRead(o.typ, o.args, mode, target))
	deadline := time.After(timeout)
	for {
		select {
		case env, ok := <-s.tr.Receive():
			if !ok {
				return 0, fmt.Errorf("transport closed")
			}
			_, outs := s.cli.Handle(env.M)
			s.emit(outs)
			if res := s.cli.TakeRead(); res != nil {
				defer core.ReleaseReadResult(res)
				if res.Err != "" {
					return 0, fmt.Errorf("read %s: %s", o.typ, res.Err)
				}
				if len(res.Vals) != 1 {
					return 0, fmt.Errorf("read %s: %d values", o.typ, len(res.Vals))
				}
				switch v := res.Vals[0].(type) {
				case int64:
					return v, nil
				case int:
					return int64(v), nil
				}
				return 0, fmt.Errorf("read %s: value %T", o.typ, res.Vals[0])
			}
		case <-deadline:
			return 0, fmt.Errorf("read %s at %s timed out after %v", o.typ, target, timeout)
		}
	}
}

// openLoop plays one session's schedule: each request is sent when due,
// or as soon as the session is free if it is already late, and timed
// from when it was due.
type openLoop struct {
	s      *tcpSession
	plan   []scheduled
	acked  map[int64]int64 // account -> sum of acknowledged deposits
	out    []sample
	failed int64
}

func (l *openLoop) run(t0 time.Time) {
	for k, r := range l.plan {
		due := t0.Add(r.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		var err error
		if r.op.read {
			_, err = l.s.read(r.op, core.ReadLease, "r1", execTimeout)
		} else {
			var res core.TxResult
			res, err = l.s.exec(r.op, execTimeout)
			if err == nil && !res.Aborted {
				l.acked[r.op.args[0].(int64)] += r.op.args[1].(int64)
			}
			if err == nil && res.Aborted {
				err = fmt.Errorf("deposit to account %v aborted", r.op.args[0])
			}
		}
		l.out = append(l.out, sample{due: due, sent: sent, done: time.Now(), read: r.op.read, ok: err == nil})
		if err != nil {
			l.failed++
			fmt.Fprintln(os.Stderr, "request failed:", err)
		}
		if l.s.cli.Busy() {
			// The request is still outstanding and a core.Client takes
			// one at a time: every later request of the session fails.
			l.failed += int64(len(l.plan) - k - 1)
			return
		}
	}
}

// ------------------------------------------------ TCP deployment layers

// runTCPLayers boots the durable TCP deployment once, plays the open
// loop for half the run's length with tracing off, and fills the
// per-layer metrics only this deployment exercises: TCP frames, the
// WAL and group fsync, per-role host steps, lease reads, and the
// deployment's own latencies (tcp.*). It checks the deployment's
// outputs and returns the verdict with its attempted and failed
// requests.
func runTCPLayers(o options, m metricSet) (ok bool, attempted, failed int64, err error) {
	if o.nodeBin == "" {
		return false, 0, 0, fmt.Errorf("the TCP deployment needs -node-bin")
	}
	c, setup, err := bootTCP(o.nodeBin, o.tmp)
	defer c.stop()
	if err != nil {
		return false, 0, 0, err
	}
	secs := o.seconds / 2
	note("TCP deployment: SMR over loopback TCP, %d broadcast + %d replica processes (engines %v), -data-dir WAL with -fsync %s, -lease; %d accounts; open loop at %.0f req/s over %d sessions for %gs, %d%% lease-holder balance reads; set up in %.4fs",
		len(tcpBcast), len(tcpReplicas), tcpEngines, tcpFsync, bankAccounts, tcpRate, sessions, secs, tcpReadPct, setup.Seconds())
	m.put("tcp.setup_s", setup.Seconds())

	rss0 := c.nodesRSSMB("VmRSS")
	loops := make([]*openLoop, sessions)
	for s := range loops {
		loops[s] = &openLoop{s: c.sessions[s], plan: tcpSchedule(o.seed, s, secs), acked: map[int64]int64{}}
	}
	b0, r0, err := c.scrape()
	if err != nil {
		return false, 0, 0, err
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, l := range loops {
		wg.Add(1)
		go func(l *openLoop) {
			defer wg.Done()
			l.run(t0)
		}(l)
	}
	wg.Wait()
	b1, r1, err := c.scrape()
	if err != nil {
		return false, 0, 0, err
	}

	p := phase{from: t0}
	acked := map[int64]int64{}
	var retries, rejected, readsDone int64
	for _, l := range loops {
		p.samples = append(p.samples, l.out...)
		attempted += int64(len(l.plan))
		failed += l.failed
		for k, v := range l.acked {
			acked[k] += v
		}
		retries += l.s.cli.Retries
		rejected += l.s.cli.ReadsRejected
		readsDone += l.s.cli.ReadsDone
	}
	tcpLayers(m, b1.minus(b0), r1.minus(r0), float64(len(p.commits())))
	growth := ratio((c.nodesRSSMB("VmRSS")-rss0)*1024, float64(len(latencies(p.samples, func(sample) bool { return true }))))
	note("TCP memory: %.2f MiB resident in the nodes after set-up, %.3f KiB more per completed request, %.2f MiB peak", rss0, growth, c.nodesRSSMB("VmHWM"))
	m.put("core.client_retries_per_op", ratio(float64(retries), float64(attempted)))
	m.put("core.lease_reject_ratio", ratio(float64(rejected), float64(rejected+readsDone)))
	var late []float64
	for _, s := range p.samples {
		late = append(late, float64(s.sent.Sub(s.due))/1e6)
	}
	sort.Float64s(late)
	m.put("gen.late_p99_ms", quantile(late, 0.99))
	note("generator lateness: p50=%.4f ms p99=%.4f ms n=%d", quantile(late, 0.5), quantile(late, 0.99), len(late))
	c50, c99 := tail("TCP commit (from due time)", p.commits())
	m.put("tcp.commit_p50_ms", c50)
	m.put("tcp.commit_p99_ms", c99)
	r50, r99 := tail("TCP read (lease-holder balance, from due time)", p.reads())
	m.put("tcp.read_p50_ms", r50)
	m.put("tcp.read_p99_ms", r99)
	note("TCP attempted=%d failed=%d", attempted, failed)

	rtt, err := rttProbe()
	if err != nil {
		return false, 0, 0, err
	}
	m.put("network.rtt_us", rtt)
	fs, err := fsyncProbe(o.tmp)
	if err != nil {
		return false, 0, 0, err
	}
	m.put("store.fsync_us", fs)
	return checkTCPBank(c, acked), attempted, failed, nil
}

// tcpLayers fills the node-counter per-layer metrics from per-role
// deltas over a window with the given number of commits.
func tcpLayers(m metricSet, b, r counters, commits float64) {
	all := counters{}
	all.add(b)
	all.add(r)
	m.put("runtime.steps_per_commit", ratio(all["runtime.steps"], commits))
	m.put("runtime.step_us_per_commit", ratio(all["runtime.step_ns.sum"], commits)/1e3)
	m.put("runtime.bcast_step_us_per_commit", ratio(b["runtime.step_ns.sum"], commits)/1e3)
	m.put("runtime.replica_step_us_per_commit", ratio(r["runtime.step_ns.sum"], commits)/1e3)
	m.put("broadcast.ops_per_slot", b.mean("broadcast.batch_size"))
	m.put("broadcast.proposals_per_commit", ratio(b["broadcast.proposals"], commits))
	m.put("core.apply_us", r.mean("core.smr.apply_ns")/1e3)
	m.put("network.frames_per_commit", ratio(all["net.frames_out"], commits))
	m.put("network.bytes_per_commit", ratio(all["net.bytes_out"], commits))
	m.put("store.appends_per_commit", ratio(all["store.wal.appends"], commits))
	m.put("store.fsyncs_per_commit", ratio(all["store.wal.fsyncs"], commits))
	note("window: %.0f commits, %.0f runtime steps, %.0f frames out, %.0f WAL appends, %.0f fsyncs",
		commits, all["runtime.steps"], all["net.frames_out"], all["store.wal.appends"], all["store.wal.fsyncs"])
}

// checkTCPBank reads every account the run deposited to at every
// replica (a lease read at the holder r1, follower reads at r2 and r3)
// and compares it with the initial balance plus the acknowledged
// deposits. Followers may trail briefly, so a mismatch is re-read until
// a deadline.
func checkTCPBank(c *tcpCluster, acked map[int64]int64) bool {
	accts := make([]int64, 0, len(acked))
	for a := range acked {
		accts = append(accts, a)
	}
	sort.Slice(accts, func(i, j int) bool { return accts[i] < accts[j] })
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	errs := make([]error, len(c.sessions))
	for si, s := range c.sessions {
		wg.Add(1)
		go func(si int, s *tcpSession) {
			defer wg.Done()
			for i := si; i < len(accts); i += len(c.sessions) {
				a := accts[i]
				want := bankInitial + acked[a]
				for _, rep := range tcpReplicas {
					mode := core.ReadFollower
					if rep == "r1" {
						mode = core.ReadLease
					}
					for {
						got, err := s.read(op{typ: "balance", args: []any{a}}, mode, msg.Loc(rep), 5*time.Second)
						if err == nil && got == want {
							break
						}
						if time.Now().After(deadline) {
							errs[si] = fmt.Errorf("account %d at %s: got %d (err %v), want %d", a, rep, got, err, want)
							return
						}
						time.Sleep(20 * time.Millisecond)
					}
				}
			}
		}(si, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			note("check FAILED: %v", err)
			return false
		}
	}
	note("check: %d deposited accounts read at r1 (lease) and r2, r3 (follower) all equal initial + acknowledged deposits", len(accts))
	return true
}
