package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/consensus/twothird"
	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/gpm"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/shard"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// deployment is one simulated deployment on the evaluation LAN: the
// simulator and cluster, the nodes it hosts with their cost models, and
// — once watched — the run's Obs, online checker and flight recorders.
// Every experiment describes its deployment through it; per-experiment
// differences are plain arguments.
type deployment struct {
	sim *des.Sim
	clu *des.Cluster
	// nodes lists every hosted server node in hosting order; bloc/rloc
	// are the broadcast service nodes and replicas clients talk to.
	nodes []msg.Loc
	bloc  []msg.Loc
	rloc  []msg.Loc
	// pbr is the in-memory PBR system newShadow builds.
	pbr *core.PBRSystem
	// intake, when nonzero, is the service time of a client submission
	// at a broadcast node (the overload experiment's cheap admission
	// path); inj's slow-disk windows multiply every node's cost.
	intake time.Duration
	inj    *fault.Injector
	// Durable SMR replicas: the spec, each replica's current
	// incarnation and its attachments, and restart accounting.
	dur         durableSpec
	reps        map[msg.Loc]*core.SMRReplica
	dbs         map[msg.Loc]*sqldb.DB
	sts         map[msg.Loc]store.Stable
	kills       int
	restarts    int
	unrecovered int
	replayed    int64
	// Observation: the run's Obs and checker, the flight recorders and
	// the func that dumps them all.
	o       *obs.Obs
	checker *dist.Checker
	recs    []*obs.Recorder
	dump    func(reason string)
}

// newDeployment creates an empty deployment on a fresh simulator.
func newDeployment() *deployment {
	d := &deployment{sim: &des.Sim{}, dump: func(string) {}}
	d.clu = des.NewCluster(d.sim)
	d.clu.Link = lanLink
	d.clu.SizeOf = wireSize
	return d
}

// host adds a node running p whose every step costs cost(m), scaled by
// any active slow-disk window on loc. Hosting a loc again rebinds the
// node to p (a restarted incarnation).
func (d *deployment) host(loc msg.Loc, p gpm.Process, cost func(m msg.Msg) time.Duration) {
	h := func(env des.Envelope) ([]msg.Directive, time.Duration) {
		next, outs := p.Step(env.M)
		p = next
		c := cost(env.M)
		if d.inj != nil {
			if f := d.inj.SlowFactor(loc); f > 1 {
				c = time.Duration(float64(c) * f)
			}
		}
		return outs, c
	}
	if n := d.clu.Node(loc); n != nil {
		n.RebindCosted(h)
		return
	}
	d.clu.AddCostedNode(loc, 1, h)
	d.nodes = append(d.nodes, loc)
}

// costedReplica is a replica that reports the engine-model cost of its
// last step.
type costedReplica interface {
	gpm.Process
	LastCost() time.Duration
}

// hostReplica hosts r on one core: its engine cost plus the fixed
// replica-layer overhead per message.
func (d *deployment) hostReplica(loc msg.Loc, r costedReplica) {
	d.host(loc, r, func(msg.Msg) time.Duration { return r.LastCost() + replicaOverhead })
}

// addBroadcast hosts cfg's service nodes with the calibrated cost of the
// chosen execution mode. The protocol behavior is the native (bisimilar)
// implementation; the service time is the measured cost of the
// requested mode plus a per-contained-message payload cost.
func (d *deployment) addBroadcast(cfg broadcast.Config, mode broadcast.Mode) {
	gen := broadcast.Spec(cfg).Generator()
	per := Calibrate().PerMsg[mode]
	for _, b := range cfg.Nodes {
		d.host(b, gen(b), func(m msg.Msg) time.Duration {
			if d.intake > 0 && m.Hdr == broadcast.HdrBcast {
				// Intake (dedup + deadline + admission) is the engineered
				// cheap path: shedding a request must cost far less than
				// ordering it, or admission control amplifies the
				// overload it exists to absorb.
				return d.intake
			}
			return bcastCost(per, m)
		})
	}
}

// openDB opens an in-memory database on engine, seeded by setup when
// non-nil.
func openDB(engine string, setup func(*sqldb.DB) error) *sqldb.DB {
	db, err := sqldb.Open(engine + ":mem:")
	if err != nil {
		panic(err)
	}
	if setup != nil {
		if err := setup(db); err != nil {
			panic(fmt.Sprintf("bench: setup: %v", err))
		}
	}
	return db
}

// shadowSpec describes the paper's in-memory ShadowDB deployments: one
// replica per engine (r1, r2, ...) and a 3-node broadcast service.
type shadowSpec struct {
	// mode selects PBR (interpreted broadcast service, as in the paper)
	// or SMR (compiled service ordering every transaction).
	mode core.ClientMode
	// engines lists one engine per replica; nil means three H2 replicas.
	engines []string
	reg     core.Registry
	setup   func(*sqldb.DB) error
	// members is PBR's initial group size (the rest are empty spares);
	// timing its failure-detector and client-retry periods.
	members int
	timing  core.Timing
	// batch/batchDelay/pipeline tune the broadcast hot path (DESIGN.md
	// §8); zero values are the eager stop-and-wait path.
	batch      int
	batchDelay time.Duration
	pipeline   int
}

// newShadow builds an in-memory ShadowDB deployment.
func newShadow(s shadowSpec) *deployment {
	d := newDeployment()
	d.bloc = []msg.Loc{"b1", "b2", "b3"}
	if s.engines == nil {
		s.engines = []string{"h2", "h2", "h2"}
	}
	for i := range s.engines {
		d.rloc = append(d.rloc, msg.Loc(fmt.Sprintf("r%d", i+1)))
	}
	mkDB := func(slf msg.Loc) *sqldb.DB {
		i := slices.Index(d.rloc, slf)
		if s.mode == core.ModePBR && i >= s.members {
			return openDB(s.engines[i], nil)
		}
		return openDB(s.engines[i], s.setup)
	}
	var bcfg broadcast.Config
	mode := broadcast.Compiled
	if s.mode == core.ModePBR {
		d.pbr = core.NewPBRSystem(core.PBRDeployment{
			Pool: d.rloc, InitialMembers: s.members, BcastNodes: d.bloc, Timing: s.timing,
		}, s.reg, mkDB)
		for _, l := range d.rloc {
			d.hostReplica(l, d.pbr.Replicas[l])
		}
		bcfg, mode = d.pbr.Bcast, broadcast.Interpreted
	} else {
		smr := core.NewSMRSystem(d.bloc, d.rloc, s.reg, mkDB)
		for _, l := range d.rloc {
			d.hostReplica(l, smr.Replicas[l])
		}
		bcfg = smr.Bcast
	}
	bcfg.MaxBatch, bcfg.MaxDelay, bcfg.Pipeline = s.batch, s.batchDelay, s.pipeline
	d.addBroadcast(bcfg, mode)
	if d.pbr != nil {
		// Failure detectors.
		for _, dd := range d.pbr.StartDirectives() {
			d.clu.SendAfter(dd.Delay, dd.Dest, dd.Dest, dd.M)
		}
	}
	return d
}

// durableSpec describes durable SMR replicas over the bank, each
// journaling to root/<loc>/smr so the process nemesis can kill one and
// rebuild it from its data directory.
type durableSpec struct {
	root  string
	fsync store.SyncPolicy
	rows  int
	// peers are the replicas' static catch-up peers; nil means the
	// peers of the current epoch.
	peers []msg.Loc
	// joiners are the nodes that enter mid-run: joining replicas start
	// empty and inactive, awaiting a bootstrap snapshot, and every
	// joiner is marked in its flight bundles.
	joiners map[msg.Loc]bool
	// view returns the epoch view an incarnation attaches to: one
	// shared view, or a fresh one per replica so each folds its own
	// delivery stream. Nil attaches none.
	view func() *member.View
	// lease, when its Dur is set, enables lease reads (over the bank's
	// fast-path apply) on the virtual clock.
	lease core.LeaseConfig
	// groupEvery/groupDelay, when groupEvery > 1, enable group commit.
	groupEvery int
	groupDelay time.Duration
}

// newDurable hosts durable replicas on rloc; the caller adds the
// broadcast service.
func newDurable(spec durableSpec, bloc, rloc []msg.Loc) *deployment {
	d := newDeployment()
	d.dur, d.bloc, d.rloc = spec, bloc, rloc
	d.reps = make(map[msg.Loc]*core.SMRReplica)
	d.dbs = make(map[msg.Loc]*sqldb.DB)
	d.sts = make(map[msg.Loc]store.Stable)
	for _, l := range rloc {
		d.hostReplica(l, d.incarnate(l, !spec.joiners[l]))
	}
	return d
}

// openStore opens the named store in loc's data directory.
func (d *deployment) openStore(loc msg.Loc, name string) store.Stable {
	prov, err := store.NewDir(filepath.Join(d.dur.root, string(loc)), d.dur.fsync)
	if err != nil {
		panic(fmt.Sprintf("bench: store: %v", err))
	}
	st, err := prov.Open(name)
	if err != nil {
		panic(fmt.Sprintf("bench: store: %v", err))
	}
	return st
}

// incarnate opens loc's store and a fresh database and constructs a
// durable replica over them. A first boot of a charter replica
// (populate) seeds the bank, so its baseline snapshot captures the
// initial rows; any other incarnation recovers whatever its store holds.
func (d *deployment) incarnate(loc msg.Loc, populate bool) *core.SMRReplica {
	st := d.openStore(loc, "smr")
	var setup func(*sqldb.DB) error
	if populate {
		setup = bankSetup(d.dur.rows)
	}
	db := openDB("h2", setup)
	newRep := core.NewDurableSMRReplica
	if d.dur.joiners[loc] {
		newRep = core.NewJoiningDurableSMRReplica
	}
	rep, err := newRep(loc, db, core.BankRegistry(), st, d.dur.peers)
	if err != nil {
		panic(fmt.Sprintf("bench: replica %s: %v", loc, err))
	}
	if d.dur.view != nil {
		rep.SetView(d.dur.view())
	}
	if lc := d.dur.lease; lc.Dur > 0 {
		lc.Now = d.sim.Now
		rep.Executor().Fast = core.BankFastRegistry()
		rep.EnableLease(lc, core.BankReadRegistry())
	}
	if d.dur.groupEvery > 1 {
		rep.SetGroupCommit(d.dur.groupEvery, d.dur.groupDelay)
	}
	d.reps[loc], d.dbs[loc], d.sts[loc] = rep, db, st
	return rep
}

// procHooks let an experiment observe the process nemesis: killed runs
// before the victim's store closes, restarted right after the rebuild,
// and rejoined in the tick that sends the catch-up request.
type procHooks struct {
	killed    func(loc msg.Loc)
	restarted func(loc msg.Loc, rep *core.SMRReplica)
	rejoined  func()
}

// bindProcess binds plan to the durable replicas. A kill closes the
// victim's store; a restart rebuilds it from its data directory,
// rebinds the node, excuses the downtime with the checker, and — a tick
// later, once the node's crash flag has cleared — asks the current
// peers for the downtime delta and re-arms its lease timer.
func (d *deployment) bindProcess(plan fault.Plan, h procHooks) *fault.Injector {
	inj := fault.BindProcess(d.clu, plan, fault.ProcessHooks{
		Kill: func(loc msg.Loc) {
			d.kills++
			if h.killed != nil {
				h.killed(loc)
			}
			// A close error changes nothing: the restart recovers
			// whatever the store holds.
			_ = d.sts[loc].Close()
		},
		DataDir: func(loc msg.Loc) string { return filepath.Join(d.dur.root, string(loc)) },
		Restart: func(loc msg.Loc) {
			d.restarts++
			before := obs.C("store.wal.replays").Value()
			rep := d.incarnate(loc, false)
			d.replayed += obs.C("store.wal.replays").Value() - before
			if !rep.Recovered() {
				d.unrecovered++
			}
			d.hostReplica(loc, rep)
			d.checker.NoteRestart(loc)
			if h.restarted != nil {
				h.restarted(loc, rep)
			}
			d.sim.After(0, func() {
				d.sendAll(loc, append(rep.RecoveryDirectives(), rep.LeaseDirectives()...))
				if h.rejoined != nil {
					h.rejoined()
				}
			})
		},
	})
	inj.SetObs(d.o)
	return inj
}

// bindFaults binds plan's message faults, crashes and slow-disk windows
// to the cluster.
func (d *deployment) bindFaults(plan fault.Plan) *fault.Injector {
	d.inj = fault.BindCluster(d.clu, plan)
	d.inj.SetObs(d.o)
	return d.inj
}

// startLeases injects every durable replica's first renewal tick.
func (d *deployment) startLeases() {
	for _, l := range d.rloc {
		d.sendAll(l, d.reps[l].LeaseDirectives())
	}
}

// sendAll sends a node's directives from outside a step.
func (d *deployment) sendAll(from msg.Loc, ds []msg.Directive) {
	for _, dd := range ds {
		d.clu.SendAfter(dd.Delay, from, dd.Dest, dd.M)
	}
}

// propose schedules an ordered membership command at virtual time at:
// an admin node broadcasts it through b1, and every node folds it into
// its epoch schedule at the decided slot. A joining replica is
// announced to the checker, since it enters the slot order mid-stream.
func (d *deployment) propose(at time.Duration, seq int64, cmd member.Command) {
	const admin = msg.Loc("admin")
	if d.clu.Node(admin) == nil {
		d.clu.AddNode(admin, 1, nil, func(des.Envelope) []msg.Directive { return nil })
	}
	d.sim.After(at, func() {
		if cmd.Op == member.AddReplica {
			d.checker.NoteJoin(cmd.Node)
		}
		d.clu.SendAfter(0, admin, "b1", msg.M(broadcast.HdrBcast,
			broadcast.Bcast{From: admin, Seq: seq, Payload: member.EncodeCommand(cmd)}))
	})
}

// every runs fn start from now and then every period for as long as it
// returns true.
func (d *deployment) every(start, period time.Duration, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			d.sim.After(period, tick)
		}
	}
	d.sim.After(start, tick)
}

// watch attaches a dedicated traced Obs on the virtual clock and an
// online checker, configured by opts before it subscribes to the event
// stream. A non-empty flightDir also attaches a flight recorder to every
// hosted node under flightDir/<node>/flight, all fed from the run's Obs
// and dumped the moment the checker flags a violation; d.dump dumps
// them with a given reason (call it when a run ends uncertified, so
// failure evidence survives even when no checker property fired).
// Joiners are marked in their bundle metadata, so `flight merge`
// baselines their delivery frontier instead of flagging the missing
// pre-join slots.
//
// Recorder failures are reported on stderr, never escalated: flight
// recording is evidence collection, and a broken disk must not turn a
// measurable experiment into an error.
func (d *deployment) watch(ring int, flightDir, experiment string, opts ...func(*dist.Checker)) {
	d.o = obs.New(ring)
	d.clu.Observe(d.o)
	d.o.EnableTracing(true)
	d.checker = dist.NewChecker()
	for _, opt := range opts {
		opt(d.checker)
	}
	d.checker.Watch(d.o)
	if flightDir == "" {
		return
	}
	registerWireTypes()
	for _, n := range d.nodes {
		rec, err := obs.NewRecorder(d.o, filepath.Join(flightDir, string(n), "flight"), n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flight: %s: %v\n", n, err)
			continue
		}
		rec.SetCheckerStatus(func() any { return d.checker.Status() })
		cfg := map[string]string{"experiment": experiment}
		if d.dur.joiners[n] {
			cfg["joiner"] = "true"
		}
		rec.SetConfig(cfg)
		d.recs = append(d.recs, rec)
	}
	d.dump = func(reason string) {
		for _, rec := range d.recs {
			if _, err := rec.TryDump(reason); err != nil {
				fmt.Fprintf(os.Stderr, "flight: dump %s: %v\n", rec.Node(), err)
			}
		}
	}
	d.checker.OnViolation(func(v dist.Violation) { d.dump("violation-" + v.Property) })
}

// registerWireTypes registers every protocol body type with the gob
// wire codec (idempotent). Bundle dumps serialize trace events through
// the codec, so any experiment that arms flight recorders needs the
// full set.
func registerWireTypes() {
	core.RegisterWireTypes()
	broadcast.RegisterWireTypes()
	shard.RegisterWireTypes()
	synod.RegisterWireTypes()
	twothird.RegisterWireTypes()
}

// flightSubdir scopes a flight dir to one phase of a multi-phase
// experiment, preserving "" as the disarmed state.
func flightSubdir(dir, phase string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, phase)
}

// charter is epoch 0 of the dynamic-membership deployments: three
// broadcast service nodes and three replicas, r1 the natural lease
// holder.
func charter() member.Config {
	return member.Config{
		Bcast:    []msg.Loc{"b1", "b2", "b3"},
		Replicas: []msg.Loc{"r1", "r2", "r3"},
	}
}

// tempRoot returns dir, or a fresh temporary directory and the func
// that removes it.
func tempRoot(dir string) (string, func()) {
	if dir != "" {
		return dir, func() {}
	}
	tmp, err := os.MkdirTemp("", "shadowdb-bench-")
	if err != nil {
		panic(err)
	}
	return tmp, func() { os.RemoveAll(tmp) }
}
