// Package broadcast implements the paper's total order broadcast service
// (Section II-D): "The total order broadcast service guarantees that the
// participating processes deliver the same messages and in the same order.
// The total order broadcast service builds upon consensus protocols, and
// is able to switch between protocols for different messages."
//
// Every service node runs, in parallel composition, the role classes of
// one or more consensus modules (TwoThird and/or Paxos-Synod) plus a
// sequencer class that batches client messages into consensus proposals
// ("All versions of the broadcast service implement batching, that is,
// multiple messages can be bundled in one Paxos proposal") and delivers
// decided batches gap-free and in slot order to the subscribers.
//
// Two throughput knobs shape the hot path (DESIGN.md §8). Adaptive
// batching: the sequencer cuts a batch when it reaches Config.MaxBatch
// messages, or — when Config.MaxDelay is set — when the oldest pending
// message has waited that long (a flush timer armed per partial batch).
// Pipelining: up to Config.Pipeline consensus instances run concurrently
// instead of stop-and-wait; decided slots are still delivered gap-free
// and in slot order, so neither knob is visible in the delivered
// sequence — only in its rate.
//
// The whole service is an LoE specification, so it can run natively
// ("compiled", the analogue of the paper's Lisp translation), as an
// interpreted term program, or as an optimized term program — the three
// curves of Fig. 8.
package broadcast

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"time"

	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/consensus/twothird"
	"shadowdb/internal/flow"
	"shadowdb/internal/gpm"
	"shadowdb/internal/interp"
	"shadowdb/internal/loe"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/store"
	"shadowdb/internal/wire"
)

// Message headers of the service.
const (
	// HdrBcast is a client's broadcast request.
	HdrBcast = "bc.bcast"
	// HdrDeliver is the total-order delivery notification.
	HdrDeliver = "bc.deliver"
	// HdrFlush is the sequencer's self-addressed batch-cut timer: a
	// partial batch older than Config.MaxDelay is proposed when its
	// Flush arrives.
	HdrFlush = "bc.flush"
)

// Bcast is a client message to broadcast. From+Seq identify the message
// for deduplication.
type Bcast struct {
	From    msg.Loc
	Seq     int64
	Payload []byte
	// Deadline is the request's absolute deadline (nanoseconds on the
	// deployment clock, 0 = none). Service nodes with a flow clock
	// refuse expired messages on arrival and sweep expired pending
	// messages before proposing them — doomed work never reaches
	// consensus. Once proposed and decided, deadlines are ignored: the
	// order is the order, and every replica applies the same prefix.
	Deadline int64
}

func init() {
	// Envelope deadline stamping: a send whose body is a Bcast carries
	// the request's deadline, so wire transports can refuse expired
	// frames without decoding payloads.
	msg.RegisterDeadline(func(m msg.Msg) (int64, bool) {
		if b, ok := m.Body.(Bcast); ok {
			return b.Deadline, true
		}
		return 0, false
	})
}

// key identifies a Bcast for deduplication. This runs once per message
// per service node (dedup, batch reconciliation), so it is plain
// concatenation rather than fmt.Sprintf; see BenchmarkBcastKey.
func (b Bcast) key() string { return string(b.From) + "/" + strconv.FormatInt(b.Seq, 10) }

// Flush is the body of a batch-cut timer. Gen guards against stale
// timers: only the generation armed for the currently pending partial
// batch cuts it.
type Flush struct {
	Gen int64
}

// Deliver carries one decided batch, tagged with its slot. Subscribers
// receive Deliver messages in contiguous slot order.
type Deliver struct {
	Slot int
	Msgs []Bcast
}

// RegisterWireTypes registers the service's bodies with the wire codec.
func RegisterWireTypes() {
	msg.RegisterBody(Bcast{})
	msg.RegisterBody(Deliver{})
	msg.RegisterBody(Flush{})
	twothird.RegisterWireTypes()
	synod.RegisterWireTypes()
	// Rejects answer refused Bcasts, so they travel wherever Bcasts do.
	flow.RegisterWireTypes()
}

// Mode selects the execution mode of the service — the three curves of
// Fig. 8 in the paper.
type Mode int

// The execution modes.
const (
	// Interpreted runs the generated term program in the λ-calculus
	// interpreter (the paper's SML/OCaml Nuprl interpreters).
	Interpreted Mode = iota + 1
	// InterpretedOpt runs the optimized term program in the interpreter.
	InterpretedOpt
	// Compiled runs the class natively (the paper's Lisp translation).
	Compiled
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Interpreted:
		return "Interpreted"
	case InterpretedOpt:
		return "Inter.-Opt."
	case Compiled:
		return "Compiled"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Module abstracts a consensus protocol the service can sequence with.
type Module interface {
	// Name identifies the module ("paxos", "twothird").
	Name() string
	// Class returns the per-node role class for a group of co-located
	// consensus nodes whose decisions are announced to learners.
	Class(nodes, learners []msg.Loc) loe.Class
	// Propose returns the directives a sequencer at slf emits to propose
	// val for the given instance.
	Propose(slf msg.Loc, nodes []msg.Loc, inst int, val string) []msg.Directive
	// Decide recognizes a decide message body and extracts its instance
	// and value.
	Decide(hdr string, body any) (inst int, val string, ok bool)
}

// ---------------------------------------------------------- paxos module --

type paxosModule struct {
	// window bounds how many instances the Synod leader drives
	// concurrently; 0 means unbounded (the sequencer's own Pipeline
	// setting is the effective bound then).
	window int
	// stable, when set, gives each acceptor durable storage (see
	// synod.Config.Stable): a promise or accepted value is journaled
	// before the reply leaves the node.
	stable func(msg.Loc) store.Stable
	// view, when set, resolves acceptor sets per instance and the
	// decide fan-out per decision from the membership epoch schedule.
	view *member.View
}

// Paxos returns the Synod-backed consensus module.
func Paxos() Module { return paxosModule{} }

// PaxosPipelined returns a Synod module whose leaders command up to
// window instances concurrently (see synod.Config.Window).
func PaxosPipelined(window int) Module { return paxosModule{window: window} }

// PaxosDurable is PaxosPipelined with WAL-backed acceptors: stable maps
// each acceptor to its journal, and the acceptor persists every promise
// and accepted value write-ahead of the reply, so a crash-restart never
// forgets a promise.
func PaxosDurable(window int, stable func(msg.Loc) store.Stable) Module {
	return paxosModule{window: window, stable: stable}
}

// PaxosDynamic is PaxosDurable under dynamic membership: the view
// resolves the acceptor set per instance (a commander captures exactly
// the epoch that governs its instance) and the Decide fan-out per
// decision, so configuration epochs switch Synod quorums atomically at
// their activation slot. stable may be nil for volatile acceptors.
func PaxosDynamic(window int, stable func(msg.Loc) store.Stable, view *member.View) Module {
	return paxosModule{window: window, stable: stable, view: view}
}

func (paxosModule) Name() string { return "paxos" }

func (p paxosModule) Class(nodes, learners []msg.Loc) loe.Class {
	cfg := synod.Config{Leaders: nodes, Acceptors: nodes, Learners: learners,
		Window: p.window, Stable: p.stable}
	if p.view != nil {
		cfg.AcceptorsFor = p.view.AcceptorsFor
		cfg.LearnersFor = p.view.Learners
	}
	return loe.Parallel(synod.AcceptorClass(cfg), synod.LeaderClass(cfg))
}

func (paxosModule) Propose(slf msg.Loc, nodes []msg.Loc, inst int, val string) []msg.Directive {
	// Proposing to the local leader keeps one ballot active in the common
	// case; dueling proposers are resolved by preemption and backoff.
	return []msg.Directive{msg.Send(slf, msg.M(synod.HdrPropose, synod.Propose{Inst: inst, Val: val}))}
}

func (paxosModule) Decide(hdr string, body any) (int, string, bool) {
	if hdr != synod.HdrDecide {
		return 0, "", false
	}
	d, ok := body.(synod.Decide)
	if !ok {
		return 0, "", false
	}
	return d.Inst, d.Val, true
}

// ------------------------------------------------------- twothird module --

type twothirdModule struct{}

// TwoThird returns the TwoThird-Consensus-backed module.
func TwoThird() Module { return twothirdModule{} }

func (twothirdModule) Name() string { return "twothird" }

func (twothirdModule) Class(nodes, learners []msg.Loc) loe.Class {
	cfg := twothird.Config{Nodes: nodes, Learners: learners}
	return twothird.Class(cfg)
}

func (twothirdModule) Propose(slf msg.Loc, nodes []msg.Loc, inst int, val string) []msg.Directive {
	return []msg.Directive{msg.Send(slf, msg.M(twothird.HdrPropose, twothird.Propose{Inst: inst, Val: val}))}
}

func (twothirdModule) Decide(hdr string, body any) (int, string, bool) {
	if hdr != twothird.HdrDecide {
		return 0, "", false
	}
	d, ok := body.(twothird.Decide)
	if !ok {
		return 0, "", false
	}
	return d.Inst, d.Val, true
}

// -------------------------------------------------------------- service --

// Config parameterizes a broadcast service deployment.
type Config struct {
	// Nodes are the service (and consensus) locations; Paxos needs three
	// to tolerate one failure.
	Nodes []msg.Loc
	// Subscribers receive a Deliver notification from EVERY service node;
	// such subscribers must deduplicate by slot (ShadowDB replicas do).
	Subscribers []msg.Loc
	// LocalSubscribers maps a service node to subscribers only that node
	// notifies — the deployment of the paper, where each database replica
	// is co-located with one broadcast process.
	LocalSubscribers map[msg.Loc][]msg.Loc
	// Modules are the available consensus modules; the first is the
	// default. Nil means Paxos only.
	Modules []Module
	// PickModule selects which module decides a slot (index into
	// Modules). Nil means always module 0. This is the paper's
	// per-message protocol switching.
	PickModule func(slot int) int
	// MaxBatch bounds how many client messages one proposal bundles; 0
	// means unbounded.
	MaxBatch int
	// MaxDelay bounds how long a partial batch may wait before being
	// proposed anyway: with MaxDelay set, the sequencer cuts a batch
	// only when it is full (MaxBatch) or when the flush timer armed for
	// its oldest message fires. Zero means propose eagerly whenever the
	// pipeline has room (latency-optimal, batch sizes follow arrival
	// bursts).
	MaxDelay time.Duration
	// Pipeline is the number of consensus instances the sequencer keeps
	// in flight concurrently. 0 or 1 means stop-and-wait (one
	// outstanding proposal, the pre-pipelining behavior). Decided slots
	// are always delivered gap-free in slot order regardless of how many
	// instances race.
	Pipeline int
	// Sequencer designates the node that proposes batches; the other
	// nodes forward client messages to it, keeping a single stable
	// proposer in the common case. Empty means Nodes[0].
	Sequencer msg.Loc
	// Stable, when set, gives each service node a decided-slot journal:
	// every decision is journaled before its Deliver notifications are
	// emitted, and a re-instantiated node restores the journal and
	// resumes delivery contiguously after the journaled prefix instead
	// of re-deciding or re-proposing old slots. Nil keeps the sequencer
	// volatile (the pre-durability behaviour).
	Stable func(msg.Loc) store.Stable
	// FlowLimit, when positive, bounds the sequencer's intake: each
	// service node builds a flow.Queue of this capacity over everything
	// it has admitted but not yet seen decided (pending + in-flight
	// proposals), with nested class thresholds so reads shed first and
	// control traffic last. An arrival that does not fit is answered
	// with an explicit flow.Reject to its origin — never silently
	// dropped — and is deliberately NOT remembered in the dedup set, so
	// a budget-paid retry can be admitted once load drains. 0 disables
	// admission control (the historical unbounded intake).
	FlowLimit int
	// Classify maps an ordered payload to its shed class. The service
	// is payload-agnostic, so the layer that owns the payload format
	// supplies this (core.FlowClass, shard.FlowClass). Nil classifies
	// everything ClassWrite.
	Classify flow.Classifier
	// FlowNow is the deployment clock (virtual in simulation, wall
	// live) for deadline enforcement: with it set, expired arrivals are
	// refused on sight and expired pending messages are swept — with a
	// flow.Reject each — before every proposal. Nil disables deadline
	// enforcement at this layer.
	FlowNow func() time.Duration
	// View, when set, turns on dynamic membership: delivery fan-out is
	// resolved per slot from the epoch schedule (replacing Subscribers
	// and LocalSubscribers — every service node notifies every replica
	// of the slot's epoch, and replicas deduplicate by slot), member
	// commands found in delivered batches are folded into the schedule
	// at their slot, and a joining service node baselines its delivery
	// frontier at its own join slot instead of slot 0. Pair with the
	// PaxosDynamic module so Synod quorums follow the same schedule.
	View *member.View
}

// window is the effective pipeline width.
func (c Config) window() int {
	if c.Pipeline > 1 {
		return c.Pipeline
	}
	return 1
}

func (c Config) sequencer() msg.Loc {
	if c.Sequencer != "" {
		return c.Sequencer
	}
	if len(c.Nodes) > 0 {
		return c.Nodes[0]
	}
	return ""
}

func (c Config) modules() []Module {
	if len(c.Modules) == 0 {
		// The default module inherits the sequencer's pipeline width so
		// the Synod leader can command that many instances concurrently.
		return []Module{PaxosPipelined(c.Pipeline)}
	}
	return c.Modules
}

func (c Config) pick(slot int) int {
	if c.PickModule == nil {
		return 0
	}
	i := c.PickModule(slot)
	if i < 0 || i >= len(c.modules()) {
		return 0
	}
	return i
}

// seqState is the sequencer state of one service node.
type seqState struct {
	pending  []Bcast
	seen     map[string]bool
	decided  map[int][]Bcast
	inflight map[int][]Bcast // slot -> proposed batch awaiting its decision
	next     int             // next slot to deliver
	propSlot int             // highest slot this node ever proposed
	flushGen int64           // generation of the armed flush timer; 0 = none armed
	gen      int64           // flush generation counter
	propAt   map[int]int64   // slot -> propose timestamp (observability only)

	// q is the admission queue over everything admitted but not yet
	// decided (FlowLimit > 0 only); queued tracks which dedup keys hold
	// a queue slot so decide-time release is exact.
	q      *flow.Queue
	queued map[string]flow.Class

	// st journals decided slots write-ahead of their Deliver fan-out
	// when durability is configured; sinceSnap counts records since the
	// last journal compaction.
	st        store.Stable
	sinceSnap int
}

// classOf resolves a message's shed class through the configured
// classifier.
func classOf(cfg Config, b Bcast) flow.Class {
	if cfg.Classify != nil {
		return cfg.Classify(b.Payload)
	}
	return flow.ClassWrite
}

// reject answers a refused message with an explicit flow.Reject to its
// origin: shedding is always client-visible.
func reject(slf msg.Loc, b Bcast, class flow.Class, reason string, depth, qcap int) msg.Directive {
	flow.MarkReject()
	mRejects.Inc()
	return msg.Send(b.From, msg.M(flow.HdrReject, flow.Reject{
		From: slf, Seq: b.Seq, Class: class, Reason: reason, Depth: depth, Cap: qcap,
	}))
}

// sequencerClass builds the batching/ordering class of one service node.
func sequencerClass(cfg Config) loe.Class {
	mods := cfg.modules()
	bases := []loe.Class{loe.Base(HdrBcast), loe.Base(HdrFlush)}
	// The sequencer listens for every module's decide header.
	seenHdr := map[string]bool{}
	for _, m := range mods {
		for _, hdr := range decideHeaders(m) {
			if !seenHdr[hdr] {
				seenHdr[hdr] = true
				bases = append(bases, loe.Base(hdr))
			}
		}
	}
	in := loe.Parallel(bases...)
	init := func(slf msg.Loc) any {
		s := &seqState{
			seen:     make(map[string]bool),
			decided:  make(map[int][]Bcast),
			inflight: make(map[int][]Bcast),
			propSlot: -1,
		}
		if cfg.FlowLimit > 0 {
			// Per-node queue: only the sequencer node's ever fills (the
			// others forward), but each node owns its own accounting so
			// re-instantiation and failover start clean.
			s.q = flow.NewQueue(cfg.FlowLimit)
			s.queued = make(map[string]flow.Class)
		}
		if cfg.Stable != nil {
			if st := cfg.Stable(slf); st != nil {
				s.restore(st)
			}
		}
		return s
	}
	step := func(slf msg.Loc, input, state any) (any, []msg.Directive) {
		s := state.(*seqState)
		switch b := input.(type) {
		case Bcast:
			return s, s.onBcast(cfg, slf, b)
		case Flush:
			return s, s.onFlush(cfg, slf, b)
		}
		// Neither a Bcast nor a Flush: try every module's decide
		// recognizer. The input arrived through a decide base class.
		for _, m := range mods {
			for _, hdr := range decideHeaders(m) {
				if inst, val, ok := m.Decide(hdr, input); ok {
					return s, s.onDecide(cfg, slf, inst, val)
				}
			}
		}
		return s, nil
	}
	return loe.Handler("Sequencer", init, step, in)
}

// decideHeaders lists the headers a module's Decide recognizer accepts.
func decideHeaders(m Module) []string {
	switch m.Name() {
	case "paxos":
		return []string{synod.HdrDecide}
	case "twothird":
		return []string{twothird.HdrDecide}
	default:
		return nil
	}
}

func (s *seqState) onBcast(cfg Config, slf msg.Loc, b Bcast) []msg.Directive {
	if s.seen[b.key()] {
		return nil
	}
	if cfg.FlowNow != nil && flow.Expired(b.Deadline, int64(cfg.FlowNow())) {
		// Expired on arrival (at forwarders too: no point burning a
		// forward hop). A retry of an expired request is just as
		// expired, so the key IS remembered.
		s.seen[b.key()] = true
		flow.MarkExpired()
		return []msg.Directive{reject(slf, b, classOf(cfg, b), flow.ReasonDeadline, 0, 0)}
	}
	if seq := cfg.sequencer(); seq != slf {
		// Non-sequencer nodes forward to the stable proposer; dueling
		// proposers would otherwise preempt each other's ballots.
		s.seen[b.key()] = true
		markBcast(true)
		return []msg.Directive{msg.Send(seq, msg.M(HdrBcast, b))}
	}
	if s.q != nil {
		class := classOf(cfg, b)
		if err := s.q.Admit(class); err != nil {
			// Shed. The key is NOT marked seen: the client may spend
			// retry budget to try again once the queue drains, and the
			// dedup set must not swallow that retry.
			return []msg.Directive{reject(slf, b, class, flow.ReasonOverload, s.q.Len(), s.q.Cap())}
		}
		s.queued[b.key()] = class
	}
	s.seen[b.key()] = true
	markBcast(false)
	s.pending = append(s.pending, b)
	return s.cut(cfg, slf, false)
}

// onFlush handles the batch-cut timer: a stale generation (the partial
// batch it was armed for has since been proposed) is ignored; the live
// one forces the pending partial batch out.
func (s *seqState) onFlush(cfg Config, slf msg.Loc, f Flush) []msg.Directive {
	if f.Gen != s.flushGen || s.flushGen == 0 {
		return nil
	}
	s.flushGen = 0
	return s.cut(cfg, slf, true)
}

func (s *seqState) onDecide(cfg Config, slf msg.Loc, inst int, val string) []msg.Directive {
	// A joining service node must not wait forever for slots ordered
	// before it existed: until it has delivered or proposed anything,
	// it re-checks the epoch schedule and baselines its contiguous
	// frontier at its own join slot (earlier slots belong to epochs it
	// was never a learner of; the replicas got them from the members
	// of those epochs).
	if cfg.View != nil && s.next == 0 && s.propSlot < 0 {
		if base := cfg.View.BaselineOf(slf); base > 0 {
			s.next = base
			for k := range s.decided {
				if k < base {
					delete(s.decided, k)
				}
			}
		}
	}
	if _, dup := s.decided[inst]; dup || inst < s.next {
		return nil // duplicate decision announcement
	}
	batch, err := DecodeBatch(val)
	if err != nil {
		// A corrupt batch cannot happen with honest proposers; deliver
		// the empty batch to keep slots contiguous.
		batch = nil
	}
	s.decided[inst] = batch
	// Write-ahead of the Deliver fan-out below: a crash after the
	// journal append but before delivery resumes past this slot on
	// restart (subscribers recover the gap through their own catch-up).
	s.journal(inst, val)
	mDecides.Inc()
	inBatch := make(map[string]bool, len(batch))
	for _, b := range batch {
		inBatch[b.key()] = true
		// Decided is the terminal outcome admission waits for: free the
		// queue slot of every message of ours this decision resolves.
		if _, ok := s.queued[b.key()]; ok {
			delete(s.queued, b.key())
			s.q.Release()
		}
	}
	// Reconcile the pipeline: the slot's in-flight batch is normally the
	// decided one (single stable sequencer), but a competing proposer may
	// have won the instance — any of our messages not in the decided
	// batch go back to the head of the queue for re-proposal.
	if mine, ok := s.inflight[inst]; ok {
		delete(s.inflight, inst)
		var lost []Bcast
		for _, b := range mine {
			if !inBatch[b.key()] {
				lost = append(lost, b)
			}
		}
		if len(lost) > 0 {
			s.pending = append(lost, s.pending...)
		}
	}
	// Drop messages decided by anyone from our pending set.
	if len(inBatch) > 0 {
		kept := s.pending[:0]
		for _, p := range s.pending {
			if !inBatch[p.key()] {
				kept = append(kept, p)
			}
		}
		s.pending = kept
	}
	// Deliver contiguous decided slots.
	var outs []msg.Directive
	for {
		b, ok := s.decided[s.next]
		if !ok {
			break
		}
		delete(s.decided, s.next)
		s.markDelivered(slf, s.next, len(b))
		// Fold membership commands into the epoch schedule at the slot
		// that ordered them, before resolving this slot's fan-out (the
		// commands only govern later slots; Apply is idempotent, so
		// co-located components racing on the shared view are safe).
		if cfg.View != nil {
			for _, m := range b {
				if cmd, ok := member.DecodeCommand(m.Payload); ok {
					cfg.View.Apply(cmd, s.next)
				}
			}
		}
		d := Deliver{Slot: s.next, Msgs: b}
		subs := cfg.Subscribers
		locals := cfg.LocalSubscribers[slf]
		if cfg.View != nil {
			// Dynamic membership: the slot's epoch names the replicas.
			// Full fan-out from every service node — replicas dedupe by
			// slot — so a replica is never stranded behind a crashed
			// service node it happened to be paired with.
			subs = cfg.View.At(s.next).Replicas
			locals = nil
		}
		for _, sub := range subs {
			outs = append(outs, msg.Send(sub, msg.M(HdrDeliver, d)))
		}
		for _, sub := range locals {
			outs = append(outs, msg.Send(sub, msg.M(HdrDeliver, d)))
		}
		s.next++
	}
	// Covering fsync for the write-ahead contract: the journal appends
	// above (this decision, and any earlier out-of-order ones now being
	// delivered) must be stable before the Deliver fan-out leaves the
	// node. One Sync covers the whole contiguous run — under the batch
	// policy a full pipeline window of decisions costs one fsync here
	// instead of one per slot (no-op under SyncAlways, where Append
	// already synced; no-op under SyncNever by policy).
	if s.st != nil && len(outs) > 0 {
		if err := s.st.Sync(); err != nil {
			panic(fmt.Sprintf("broadcast: sequencer sync: %v", err))
		}
	}
	return append(outs, s.cut(cfg, slf, false)...)
}

// cut applies the adaptive cut policy: propose as many batches as the
// pipeline window allows. A batch is cut when it is full (MaxBatch), when
// the policy is eager (MaxDelay == 0), or when the flush timer forced it
// (flush). A partial batch left waiting arms the flush timer for its
// oldest message, so no message waits longer than MaxDelay to be
// proposed once the window has room.
func (s *seqState) cut(cfg Config, slf msg.Loc, flush bool) []msg.Directive {
	outs := s.sweepExpired(cfg, slf)
	for len(s.pending) > 0 && len(s.inflight) < cfg.window() {
		full := cfg.MaxBatch > 0 && len(s.pending) >= cfg.MaxBatch
		if cfg.MaxDelay > 0 && !full && !flush {
			break
		}
		outs = append(outs, s.propose(cfg, slf)...)
	}
	if len(s.pending) > 0 && len(s.inflight) < cfg.window() &&
		cfg.MaxDelay > 0 && s.flushGen == 0 {
		s.gen++
		s.flushGen = s.gen
		outs = append(outs, msg.SendAfter(cfg.MaxDelay, slf, msg.M(HdrFlush, Flush{Gen: s.gen})))
	}
	return outs
}

// sweepExpired drops pending messages whose deadline has passed before
// they consume a consensus slot, answering each with a deadline
// Reject. It runs at the head of every cut, so a message is checked
// one last time right before it would be proposed; once in flight it
// is past the point of no return (the decided order must be applied by
// every replica regardless of deadlines).
func (s *seqState) sweepExpired(cfg Config, slf msg.Loc) []msg.Directive {
	if cfg.FlowNow == nil || len(s.pending) == 0 {
		return nil
	}
	now := int64(cfg.FlowNow())
	var outs []msg.Directive
	kept := s.pending[:0]
	for _, p := range s.pending {
		if !flow.Expired(p.Deadline, now) {
			kept = append(kept, p)
			continue
		}
		flow.MarkExpired()
		depth, qcap := 0, 0
		class := classOf(cfg, p)
		if c, ok := s.queued[p.key()]; ok {
			class = c
			delete(s.queued, p.key())
			s.q.Release()
			depth, qcap = s.q.Len(), s.q.Cap()
		}
		outs = append(outs, reject(slf, p, class, flow.ReasonDeadline, depth, qcap))
	}
	s.pending = kept
	return outs
}

// propose cuts one batch off the head of the pending queue and proposes
// it for the next free slot.
func (s *seqState) propose(cfg Config, slf msg.Loc) []msg.Directive {
	n := len(s.pending)
	if cfg.MaxBatch > 0 && n > cfg.MaxBatch {
		n = cfg.MaxBatch
	}
	// Copy: the pending queue's backing array is filtered in place on
	// decide, which would otherwise scribble over the in-flight batch.
	batch := append([]Bcast(nil), s.pending[:n]...)
	s.pending = s.pending[n:]
	slot := s.nextFreeSlot()
	s.inflight[slot] = batch
	s.propSlot = slot
	s.markProposed(slf, slot, len(batch))
	mod := cfg.modules()[cfg.pick(slot)]
	return mod.Propose(slf, cfg.Nodes, slot, EncodeBatch(batch))
}

// nextFreeSlot picks the lowest slot that is neither decided nor
// occupied by an in-flight proposal, never below any slot this node ever
// proposed (re-proposing a slot we may still win would duel ourselves).
func (s *seqState) nextFreeSlot() int {
	slot := s.next
	if s.propSlot >= slot {
		slot = s.propSlot + 1
	}
	for {
		_, done := s.decided[slot]
		_, busy := s.inflight[slot]
		if !done && !busy {
			return slot
		}
		slot++
	}
}

// ------------------------------------------------------------- encoding --

// EncodeBatch serializes a batch for use as a consensus value: the wire
// format byte, the message count, then each message's From, Seq,
// Payload and Deadline (see package wire). The bytes depend on the
// batch alone, so every proposer encodes a batch identically.
func EncodeBatch(batch []Bcast) string {
	n := 1 + binary.MaxVarintLen64
	for _, m := range batch {
		n += len(m.From) + len(m.Payload) + 3*binary.MaxVarintLen64
	}
	b := wire.Begin(make([]byte, 0, n), "")
	b = wire.AppendUint(b, uint64(len(batch)))
	for _, m := range batch {
		b = wire.AppendString(b, string(m.From))
		b = wire.AppendInt(b, m.Seq)
		b = wire.AppendBytes(b, m.Payload)
		b = wire.AppendInt(b, m.Deadline)
	}
	return string(b)
}

// minBcastBytes is the smallest encoding of one batch message: one
// byte each for From's length, Seq, Payload's length and Deadline.
const minBcastBytes = 4

// DecodeBatch reverses EncodeBatch. Malformed input returns an error,
// never a crash: consensus values cross the wire and the WAL, so this
// path must be total. A batch written by an older release fails with
// an error matching wire.ErrFormat.
func DecodeBatch(val string) ([]Bcast, error) {
	r := wire.NewReader(val, "")
	var batch []Bcast
	if n := r.Count(minBcastBytes); n > 0 {
		batch = make([]Bcast, n)
	}
	for i := range batch {
		batch[i] = Bcast{From: msg.Loc(r.String()), Seq: r.Int(), Payload: r.Bytes(), Deadline: r.Int()}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("broadcast: decode batch: %w", err)
	}
	return batch, nil
}

// BatchLen returns the number of client messages in an encoded batch,
// the unit the simulator's cost model charges consensus messages by. It
// reads the batch header only.
func BatchLen(val string) (int, error) {
	r := wire.NewReader(val, "")
	n := r.Count(minBcastBytes)
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("broadcast: batch length: %w", err)
	}
	return n, nil
}

// ----------------------------------------------------------------- spec --

// Spec builds the full service specification: every node runs the
// consensus role classes of all configured modules in parallel with the
// sequencer.
func Spec(cfg Config) loe.Spec {
	classes := []loe.Class{sequencerClass(cfg)}
	for _, m := range cfg.modules() {
		classes = append(classes, m.Class(cfg.Nodes, cfg.Nodes))
	}
	return loe.Spec{
		Name:   "Broadcast Service",
		Main:   loe.Parallel(classes...),
		Locs:   append([]msg.Loc(nil), cfg.Nodes...),
		Params: 4,
	}
}

// Generator compiles the service for the chosen execution mode. For the
// interpreted modes the shared evaluator is returned so callers can read
// its step counter; it is nil in compiled mode.
func Generator(cfg Config, mode Mode) (gpm.Generator, *interp.Evaluator, error) {
	spec := Spec(cfg)
	switch mode {
	case Compiled:
		return spec.Generator(), nil, nil
	case Interpreted:
		ev := &interp.Evaluator{}
		gen, err := interp.Generator(interp.CompileSpec(spec), spec.Locs, ev)
		if err != nil {
			return nil, nil, fmt.Errorf("compile service to terms: %w", err)
		}
		return gen, ev, nil
	case InterpretedOpt:
		ev := &interp.Evaluator{}
		gen, err := interp.Generator(interp.OptimizeSpec(spec), spec.Locs, ev)
		if err != nil {
			return nil, nil, fmt.Errorf("optimize service terms: %w", err)
		}
		return gen, ev, nil
	default:
		return nil, nil, fmt.Errorf("broadcast: unknown mode %v", mode)
	}
}

// DeliveriesTo extracts the Deliver bodies sent to one subscriber from a
// trace, in emission order.
func DeliveriesTo(trace []gpm.TraceEntry, sub msg.Loc) []Deliver {
	var out []Deliver
	for _, e := range trace {
		for _, o := range e.Outs {
			if o.Dest == sub && o.M.Hdr == HdrDeliver {
				out = append(out, o.M.Body.(Deliver))
			}
		}
	}
	return out
}

// CheckTotalOrder validates that every subscriber saw the same contiguous
// slot sequence with identical batches — the service's defining property.
// Subscribers notified by several nodes see duplicate slots; duplicates
// must carry identical batches, and deduplicated slots must be contiguous
// and monotone.
func CheckTotalOrder(trace []gpm.TraceEntry, subs []msg.Loc) error {
	ref := make(map[int][]Bcast)
	for i, sub := range subs {
		bySlot := make(map[int][]Bcast)
		high := -1
		for _, d := range DeliveriesTo(trace, sub) {
			if prev, dup := bySlot[d.Slot]; dup {
				if !sameBatch(prev, d.Msgs) {
					return fmt.Errorf("broadcast: subscriber %s got two batches for slot %d", sub, d.Slot)
				}
				continue
			}
			bySlot[d.Slot] = d.Msgs
			if d.Slot > high {
				high = d.Slot
			}
		}
		for k := 0; k <= high; k++ {
			if _, ok := bySlot[k]; !ok {
				return fmt.Errorf("broadcast: subscriber %s has a gap at slot %d", sub, k)
			}
		}
		if i == 0 {
			ref = bySlot
			continue
		}
		for k, b := range bySlot {
			if rb, ok := ref[k]; ok && !sameBatch(rb, b) {
				return fmt.Errorf("broadcast: subscribers %s and %s disagree at slot %d", subs[0], sub, k)
			}
		}
	}
	return nil
}

func sameBatch(a, b []Bcast) bool {
	if len(a) != len(b) {
		return false
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i], kb[i] = a[i].key(), b[i].key()
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
