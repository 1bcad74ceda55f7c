// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (Section IV). Experiments run on the
// discrete-event simulator: protocol and database code executes for real,
// while CPU service times, link latencies, lock waiting and crashes play
// out in virtual time. Broadcast-service costs are measured from the real
// term interpreter and native implementations, then scaled uniformly to
// the paper's Lisp-service operating point (see DESIGN.md,
// "Substitutions").
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// Workload produces the next transaction for a client.
type Workload func() (string, []any)

// MicroWorkload returns the bank micro-benchmark generator: deposits on
// uniformly random accounts (Section IV-B).
func MicroWorkload(rows int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	return func() (string, []any) {
		return "deposit", []any{int64(rng.Intn(rows)), int64(1)}
	}
}

// ZipfWorkload returns a hot-key bank workload: deposits on accounts
// drawn from a zipfian distribution (s=1.1), the shape that punishes a
// partitioning scheme unless hot keys actually spread across shards.
func ZipfWorkload(rows int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 16, uint64(rows-1))
	return func() (string, []any) {
		return "deposit", []any{int64(zipf.Uint64()), int64(1)}
	}
}

// bankSetup seeds the bank micro-benchmark table with rows accounts.
func bankSetup(rows int) func(*sqldb.DB) error {
	return func(db *sqldb.DB) error { return core.BankSetup(db, rows) }
}

// CurvePoint is one data point of a latency/throughput curve.
type CurvePoint struct {
	Clients    int
	Throughput float64 // committed transactions per second
	MeanLatMs  float64
	P99LatMs   float64
	Aborts     int64
}

// String renders the point as a table row.
func (p CurvePoint) String() string {
	return fmt.Sprintf("%8d %12.0f %12.3f %12.3f %8d",
		p.Clients, p.Throughput, p.MeanLatMs, p.P99LatMs, p.Aborts)
}

// loadStats aggregates what a client fleet observed.
type loadStats struct {
	lat       des.LatencyRecorder
	committed int64
	aborted   int64
	finished  int
	lastDone  time.Duration
	// timeline, when set, receives a mark per commit (Fig. 10a).
	timeline *des.Timeline
	// byType breaks completions down by transaction type.
	byType map[string]*typeStats
}

// typeStats is one transaction type's share of a fleet's completions.
type typeStats struct {
	done, committed, aborted int64
	lat                      des.LatencyRecorder
}

// complete accounts one finished operation of type typ.
func (s *loadStats) complete(typ string, ok bool, lat, at time.Duration) {
	if s.byType == nil {
		s.byType = make(map[string]*typeStats)
	}
	ts := s.byType[typ]
	if ts == nil {
		ts = &typeStats{}
		s.byType[typ] = ts
	}
	ts.done++
	ts.lat.Add(lat)
	s.lat.Add(lat)
	s.lastDone = at
	if !ok {
		s.aborted++
		ts.aborted++
		return
	}
	s.committed++
	ts.committed++
	if s.timeline != nil {
		s.timeline.Mark(at)
	}
}

// typ returns the breakdown for one transaction type (zero if none ran).
func (s *loadStats) typ(name string) *typeStats {
	if ts := s.byType[name]; ts != nil {
		return ts
	}
	return &typeStats{}
}

func (s *loadStats) point(clients int) CurvePoint {
	elapsed := s.lastDone
	if elapsed <= 0 {
		elapsed = time.Second
	}
	return CurvePoint{
		Clients:    clients,
		Throughput: des.Throughput(int(s.committed), elapsed),
		MeanLatMs:  float64(s.lat.Mean()) / float64(time.Millisecond),
		P99LatMs:   float64(s.lat.Percentile(99)) / float64(time.Millisecond),
		Aborts:     s.aborted,
	}
}

// progressAfter reports whether a commit timeline with bins of width bin
// shows a commit in any bin after the one holding at.
func progressAfter(series []float64, at, bin time.Duration) bool {
	for b := int(at/bin) + 1; b < len(series); b++ {
		if series[b] > 0 {
			return true
		}
	}
	return false
}

// session is one client's protocol: submit issues an operation, and
// handle reports whether an incoming message completes it and whether
// it succeeded, along with the protocol's own outputs.
type session interface {
	submit(typ string, args []any) []msg.Directive
	handle(m msg.Msg) (done, ok bool, outs []msg.Directive)
}

// clients attaches n closed-loop clients (client0, client1, ...), each
// running per operations from work(i) over the session open(i, loc)
// returns, and issuing the next as soon as one completes. A nil work
// submits empty operations (the broadcast clients' fixed payload).
func (d *deployment) clients(stats *loadStats, n, per int, work func(i int) Workload,
	open func(i int, loc msg.Loc) session) {
	sim := d.sim
	for i := 0; i < n; i++ {
		loc := msg.Loc(fmt.Sprintf("client%d", i))
		s := open(i, loc)
		var w Workload
		if work != nil {
			w = work(i)
		}
		remaining := per
		var started time.Duration
		var typ string
		submit := func() []msg.Directive {
			var args []any
			if w != nil {
				typ, args = w()
			}
			started = sim.Now()
			return s.submit(typ, args)
		}
		d.clu.AddNode(loc, 1, nil, func(env des.Envelope) []msg.Directive {
			done, ok, outs := s.handle(env.M)
			if !done {
				return outs
			}
			stats.complete(typ, ok, sim.Now()-started, sim.Now())
			remaining--
			if remaining <= 0 {
				stats.finished++
				return outs
			}
			return append(outs, submit()...)
		})
		sim.After(0, func() { d.sendAll(loc, submit()) })
	}
}

// runClients advances the simulation until all n clients completed
// their quota or maxSteps events ran; self-perpetuating timers like
// heartbeats would otherwise keep the event queue alive forever.
func (d *deployment) runClients(stats *loadStats, n int, maxSteps int64) {
	for stats.finished < n && !d.sim.Idle() && d.sim.Steps() < maxSteps {
		d.sim.Run(0, 100_000)
	}
}

// txSession speaks the ShadowDB client protocol. With a read mode set,
// "balance" operations are local reads against target; otherwise every
// operation is an ordered transaction.
type txSession struct {
	cli    *core.Client
	read   core.ReadMode
	target msg.Loc
}

// shadowSessions opens one ShadowDB client per session in mode against
// the given replicas and broadcast nodes.
func shadowSessions(mode core.ClientMode, replicas, bcast []msg.Loc, retry time.Duration) func(int, msg.Loc) session {
	return func(_ int, loc msg.Loc) session {
		return &txSession{cli: &core.Client{Slf: loc, Mode: mode, Replicas: replicas, BcastNodes: bcast, Retry: retry}}
	}
}

func (s *txSession) submit(typ string, args []any) []msg.Directive {
	if s.read != 0 && typ == "balance" {
		return s.cli.SubmitRead(typ, args, s.read, s.target)
	}
	return s.cli.Submit(typ, args)
}

func (s *txSession) handle(m msg.Msg) (bool, bool, []msg.Directive) {
	res, outs := s.cli.Handle(m)
	if res != nil {
		return true, !res.Aborted && res.Err == "", outs
	}
	if rr := s.cli.TakeRead(); rr != nil {
		core.ReleaseReadResult(rr)
		return true, true, outs
	}
	return false, false, outs
}

// directSession speaks plain request/response to a fixed server (the
// baseline systems).
type directSession struct {
	loc, server msg.Loc
	seq         int64
}

func (s *directSession) submit(typ string, args []any) []msg.Directive {
	s.seq++
	return []msg.Directive{msg.Send(s.server, msg.M(core.HdrTx, core.TxRequest{
		Client: s.loc, Seq: s.seq, Type: typ, Args: args,
	}))}
}

func (s *directSession) handle(m msg.Msg) (bool, bool, []msg.Directive) {
	res, ok := m.Body.(core.TxResult)
	if !ok {
		return false, false, nil
	}
	return true, !res.Aborted && res.Err == "", nil
}

// bcastSession broadcasts the paper's 140-byte message through its home
// service node and completes on the first delivery notification that
// carries it (later copies carry older seqs). Every session also
// tallies each delivered slot's batch size into slots.
type bcastSession struct {
	loc, home msg.Loc
	seq       int64
	slots     *slotTally
}

// slotTally counts decided slots and the client messages they carried
// (the DES is single-threaded, so sessions share one safely).
type slotTally struct {
	seen map[int]bool
	msgs int
}

func (s *bcastSession) submit(string, []any) []msg.Directive {
	s.seq++
	return []msg.Directive{msg.Send(s.home, msg.M(broadcast.HdrBcast, broadcast.Bcast{
		From: s.loc, Seq: s.seq, Payload: pad140(),
	}))}
}

func (s *bcastSession) handle(m msg.Msg) (bool, bool, []msg.Directive) {
	d, ok := m.Body.(broadcast.Deliver)
	if !ok {
		return false, false, nil
	}
	if !s.slots.seen[d.Slot] {
		s.slots.seen[d.Slot] = true
		s.slots.msgs += len(d.Msgs)
	}
	for _, b := range d.Msgs {
		if b.From == s.loc && b.Seq == s.seq {
			return true, true, nil
		}
	}
	return false, false, nil
}

// broadcastRun hosts a 3-node broadcast service in mode (tuned by the
// rest of cfg) with n subscribed clients, each broadcasting per
// messages through the service nodes round-robin, and runs them to
// completion. A nonzero ring attaches the online checker.
func broadcastRun(cfg broadcast.Config, mode broadcast.Mode, n, per, ring int) (*deployment, *loadStats, *slotTally) {
	d := newDeployment()
	cfg.Nodes = []msg.Loc{"b1", "b2", "b3"}
	for i := 0; i < n; i++ {
		cfg.Subscribers = append(cfg.Subscribers, msg.Loc(fmt.Sprintf("client%d", i)))
	}
	d.addBroadcast(cfg, mode)
	if ring > 0 {
		d.watch(ring, "", "")
	}
	stats, slots := &loadStats{}, &slotTally{seen: make(map[int]bool)}
	d.clients(stats, n, per, nil, func(i int, loc msg.Loc) session {
		return &bcastSession{loc: loc, home: cfg.Nodes[i%len(cfg.Nodes)], slots: slots}
	})
	d.runClients(stats, n, 50_000_000)
	return d, stats, slots
}

// lanLink is the evaluation cluster's network: a gigabit switch.
func lanLink(msg.Loc, msg.Loc) des.LinkSpec {
	return des.LinkSpec{Latency: 100 * time.Microsecond, Bandwidth: 125_000_000} // 1 Gb/s
}

// wireSize approximates serialized message sizes for bandwidth modeling.
func wireSize(m msg.Msg) int {
	switch body := m.Body.(type) {
	case core.SnapBatch:
		n := 64
		for _, row := range body.Rows {
			n += rowWire(row)
		}
		return n
	default:
		return 200
	}
}

func rowWire(row []any) int {
	n := 8
	for _, v := range row {
		switch x := v.(type) {
		case string:
			n += len(x)
		default:
			n += 8
		}
	}
	return n
}
