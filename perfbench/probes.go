package main

import (
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"sqldb.proc_us", "us"},
	{"sqldb.procs_per_commit", "count"},
	{"sqldb.busy_share", "ratio"},
	{"codec.tx_us", "us"},
	{"codec.tx_allocs", "count"},
	{"codec.frame_us", "us"},
	{"codec.frame_allocs", "count"},
	{"runtime.steps_per_commit", "count"},
	{"runtime.step_us_per_commit", "us"},
	{"runtime.bcast_step_us_per_commit", "us"},
	{"runtime.replica_step_us_per_commit", "us"},
	{"broadcast.ops_per_slot", "count"},
	{"broadcast.proposals_per_commit", "count"},
	{"trace.broadcast_us", "us"},
	{"trace.consensus_us", "us"},
	{"trace.apply_us", "us"},
	{"trace.total_us", "us"},
	{"trace.complete_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"core.apply_us", "us"},
	{"core.pbr_commit_us", "us"},
	{"core.pbr_recovery_ms", "ms"},
	{"core.client_retries_per_op", "count"},
	{"core.lease_reject_ratio", "ratio"},
	{"network.frames_per_commit", "count"},
	{"network.bytes_per_commit", "B"},
	{"network.rtt_us", "us"},
	{"store.appends_per_commit", "count"},
	{"store.fsyncs_per_commit", "count"},
	{"store.fsync_us", "us"},
	{"gen.late_p99_ms", "ms"},
	{"mem.growth_kb_per_op", "KiB"},
	{"e2e.failover_s", "s"},
	{"e2e.read_p50_ms", "ms"},
	{"e2e.read_p99_ms", "ms"},
	{"tcp.setup_s", "s"},
	{"tcp.commit_p50_ms", "ms"},
	{"tcp.commit_p99_ms", "ms"},
	{"tcp.read_p50_ms", "ms"},
	{"tcp.read_p99_ms", "ms"},
}

// newLayerSet returns every per-layer metric at 0, to be filled in.
func newLayerSet() metricSet {
	m := metricSet{}
	for _, l := range perLayer {
		m.set(l.name, 0, l.unit)
	}
	return m
}

// put sets an already listed per-layer metric, keeping its unit.
func (m metricSet) put(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	cur.Value = v
	m[name] = cur
}

// counters flattens a registry snapshot: counters by name, histograms as
// name.sum and name.count. Only differences of two flattenings are ever
// used, so state left in a registry by earlier work cancels out.
type counters map[string]float64

func flatten(s obs.Snapshot) counters {
	c := counters{}
	for k, v := range s.Counters {
		c[k] = float64(v)
	}
	for k, h := range s.Histograms {
		c[k+".sum"] = float64(h.Sum)
		c[k+".count"] = float64(h.Count)
	}
	return c
}

// minus returns c - base per key.
func (c counters) minus(base counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// add sums another flattening into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// mean of a flattened histogram.
func (c counters) mean(h string) float64 { return ratio(c[h+".sum"], c[h+".count"]) }

// sqlTimer wraps every procedure of a registry with a wall-clock timer.
type sqlTimer struct{ calls, ns atomic.Int64 }

func (t *sqlTimer) wrap(reg core.Registry) core.Registry {
	out := make(core.Registry, len(reg))
	for name, p := range reg {
		out[name] = func(db *sqldb.DB, args []any) (core.ProcResult, error) {
			start := time.Now()
			res, err := p(db, args)
			t.ns.Add(int64(time.Since(start)))
			t.calls.Add(1)
			return res, err
		}
	}
	return out
}

// measureOp times fn over n calls in five rounds and returns the median
// microseconds and heap allocations per call.
func measureOp(n int, fn func(i int)) (us, allocs float64) {
	var uss, als []float64
	var m0, m1 runtime.MemStats
	for round := 0; round < 5; round++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		uss = append(uss, float64(el)/float64(n)/1e3)
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(uss), median(als)
}

// codecProbe times the payload codec (core.EncodeTx + core.DecodeTx) and
// the frame codec (msg.EncodeBatch + msg.DecodeFrame) on requests drawn
// from the workload's own generator. smr wraps each request the way an
// SMR client submits it (a broadcast.Bcast to a service node); otherwise
// it rides as a PBR TxRequest to the primary.
func codecProbe(next func() op, smr bool, m metricSet) error {
	core.RegisterWireTypes()
	broadcast.RegisterWireTypes()
	const n = 400
	reqs := make([]core.TxRequest, n)
	envs := make([][]msg.Envelope, n)
	for i := range reqs {
		o := next()
		reqs[i] = core.TxRequest{Client: "client1", Seq: int64(i + 1), Type: o.typ, Args: o.args}
		body := msg.M(core.HdrTx, reqs[i])
		to := msg.Loc("r1")
		if smr {
			payload, err := core.EncodeTx(reqs[i])
			if err != nil {
				return err
			}
			body = msg.M(broadcast.HdrBcast, broadcast.Bcast{From: "client1", Seq: int64(i + 1), Payload: payload})
			to = "b1"
		}
		envs[i] = []msg.Envelope{{From: "client1", To: to, M: body}}
	}
	var failed error
	us, al := measureOp(n, func(i int) {
		b, err := core.EncodeTx(reqs[i])
		if err == nil {
			_, err = core.DecodeTx(b)
		}
		if err != nil {
			failed = err
		}
	})
	m.put("codec.tx_us", us)
	m.put("codec.tx_allocs", al)
	us, al = measureOp(n, func(i int) {
		b, err := msg.EncodeBatch(envs[i])
		if err == nil {
			_, err = msg.DecodeFrame(b)
		}
		if err != nil {
			failed = err
		}
	})
	m.put("codec.frame_us", us)
	m.put("codec.frame_allocs", al)
	return failed
}

// rttProbe measures the loopback round trip between two network.TCP
// transports owned by the harness (median of 500 ping-pongs after a
// warm-up).
func rttProbe() (float64, error) {
	core.RegisterWireTypes()
	a, err := network.NewTCP("pa", map[msg.Loc]string{"pa": "127.0.0.1:0"})
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := network.NewTCP("pb", map[msg.Loc]string{"pb": "127.0.0.1:0"})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	a.SetPeer("pb", b.Addr())
	b.SetPeer("pa", a.Addr())
	go func() {
		for env := range b.Receive() {
			_ = b.Send(msg.Envelope{From: "pb", To: "pa", M: env.M})
		}
	}()
	var rtts []float64
	for i := 0; i < 550; i++ {
		start := time.Now()
		if err := a.Send(msg.Envelope{From: "pa", To: "pb", M: msg.M(core.HdrClientRetry, core.ClientRetryBody{Seq: int64(i)})}); err != nil {
			return 0, err
		}
		select {
		case <-a.Receive():
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("rtt probe: no echo")
		}
		if i >= 50 {
			rtts = append(rtts, float64(time.Since(start))/1e3)
		}
	}
	return median(rtts), nil
}

// fsyncProbe times store.Dir Append + Sync of a 256-byte record on the
// filesystem that holds the nodes' data dirs (median of 200).
func fsyncProbe(dir string) (float64, error) {
	d, err := store.NewDir(filepath.Join(dir, "fsync-probe"), store.SyncBatch)
	if err != nil {
		return 0, err
	}
	d.BatchEvery = 1 << 30 // only the explicit Sync flushes
	st, err := d.Open("probe")
	if err != nil {
		return 0, err
	}
	defer func() { _ = os.RemoveAll(filepath.Join(dir, "fsync-probe")) }()
	defer closeStable(st)
	rec := make([]byte, 256)
	var lat []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := st.Append(rec); err != nil {
			return 0, err
		}
		if err := st.Sync(); err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(start))/1e3)
	}
	return median(lat), nil
}

func closeStable(st store.Stable) {
	if c, ok := st.(interface{ Close() error }); ok {
		_ = c.Close()
	}
}

// traceTolerance is how much of a span's submit→reply time the three
// reported segments may leave unexplained. The remainder is the
// decide→deliver hop (the decision reaching the replicas), which
// dist.Breakdown does not report; it is about a third of the total in
// process and on TCP.
const traceTolerance = 0.5

// traceBreakdown fills the trace.* metrics from reconstructed spans and
// checks that broadcast + consensus + apply account for the total within
// traceTolerance (on means, which add exactly). It returns false when
// the check fails; with no complete span (PBR never orders its normal
// case through the broadcast service) there is nothing to check.
func traceBreakdown(spans []dist.Span, m metricSet) bool {
	var bc, cs, ap, tot, hop []float64
	for _, s := range spans {
		b := s.Breakdown()
		if !b.Complete {
			continue
		}
		hop = append(hop, float64(s.Deliver-s.Decide)/1e3)
		bc = append(bc, float64(b.Broadcast)/1e3)
		cs = append(cs, float64(b.Consensus)/1e3)
		ap = append(ap, float64(b.Apply)/1e3)
		tot = append(tot, float64(b.Total)/1e3)
	}
	m.put("trace.complete_ratio", ratio(float64(len(tot)), float64(len(spans))))
	note("trace: %d spans, %d complete", len(spans), len(tot))
	if len(tot) == 0 {
		return true
	}
	m.put("trace.broadcast_us", median(bc))
	m.put("trace.consensus_us", median(cs))
	m.put("trace.apply_us", median(ap))
	m.put("trace.total_us", median(tot))
	sum, total := mean(bc)+mean(cs)+mean(ap), mean(tot)
	share := ratio(sum, total)
	ok := share >= 1-traceTolerance && share <= 1+1e-9
	note("trace: segment means broadcast+consensus+apply=%.1f us of total=%.1f us (%.1f%%, tolerance %.0f%%; unreported decide->deliver %.1f us) ok=%v",
		sum, total, 100*share, 100*traceTolerance, mean(hop), ok)
	return ok
}

func mean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return ratio(s, float64(len(vs)))
}

// dbDigest hashes a database's full contents (table names and rows in
// primary-key order), so replicas of different engines compare equal
// exactly when they hold the same data.
func dbDigest(db *sqldb.DB) string {
	h := sha256.New()
	for _, d := range db.Snapshot() {
		fmt.Fprintf(h, "table %s %d\n", d.Schema.Name, len(d.Rows))
		for _, r := range d.Rows {
			fmt.Fprintf(h, "%v\n", r)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, l := range lns {
			_ = l.Close()
		}
	}()
	var out []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}
