// Package core implements ShadowDB, the paper's replicated database
// (Section III). Two replication protocols are provided over the same
// transaction substrate:
//
//   - PBR (pbr.go): primary-backup replication with a hand-written normal
//     case and recovery driven by the verified total order broadcast
//     service — new configurations are agreed through the broadcast, the
//     new primary is the surviving replica with the highest executed
//     sequence number, and lagging or fresh replicas are brought up to
//     date with cached transactions or a full state transfer.
//
//   - SMR (smr.go): state machine replication where every transaction is
//     ordered by the broadcast service and executed by every replica; the
//     client takes the first answer, so replica crashes are transparent.
//
// Transactions are typed procedures with parameters ("Submitting a
// transaction T involves sending T's type and its parameters to a
// server"), executed deterministically and sequentially against the
// sqldb substrate. Exactly-once execution under client retry is ensured
// by per-client sequence numbers, "recording the sequence number of the
// last transaction submitted by each client" as in the paper.
package core

import (
	"fmt"
	"sync"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// Message headers of ShadowDB.
const (
	// HdrTx is a client transaction request (to the PBR primary, or
	// wrapped in a broadcast for SMR).
	HdrTx = "sdb.tx"
	// HdrTxResult is the server's answer to the client.
	HdrTxResult = "sdb.txresult"
	// HdrRedirect tells a client which replica is the primary.
	HdrRedirect = "sdb.redirect"
	// HdrRepl is the primary->backup transaction forward.
	HdrRepl = "sdb.repl"
	// HdrReplAck is the backup's acknowledgment.
	HdrReplAck = "sdb.replack"
	// HdrHeartbeat is the mutual liveness probe.
	HdrHeartbeat = "sdb.hb"
	// HdrHBTick is the local failure-detector timer.
	HdrHBTick = "sdb.hbtick"
	// HdrElect carries (config seq, executed seq) during primary election.
	HdrElect = "sdb.elect"
	// HdrCatchup carries missing transactions to a lagging backup.
	HdrCatchup = "sdb.catchup"
	// HdrCatchupReq is a backup's explicit request for missing
	// transactions (a replication gap that retransmission-free forwarding
	// would otherwise never repair).
	HdrCatchupReq = "sdb.catchupreq"
	// HdrSnapBegin / HdrSnapBatch / HdrSnapEnd carry a state transfer.
	HdrSnapBegin = "sdb.snapbegin"
	HdrSnapBatch = "sdb.snapbatch"
	HdrSnapEnd   = "sdb.snapend"
	// HdrRecovered is the backup's "I am up to date" signal.
	HdrRecovered = "sdb.recovered"
	// HdrSMRCatchupReq / HdrSMRCatchup carry the SMR delta protocol: a
	// restarted replica that recovered from its local snapshot + journal
	// asks a peer for the slots ordered during its downtime, and the peer
	// answers with the decided batches (or falls back to a full state
	// transfer when its own journal no longer reaches back that far).
	HdrSMRCatchupReq = "sdb.smr.catchupreq"
	HdrSMRCatchup    = "sdb.smr.catchup"
	// HdrRead is a client read served locally by a replica (lease or
	// follower mode), skipping the consensus round; HdrReadResult is the
	// answer. HdrLeaseTick is the lease holder's local renewal timer.
	HdrRead       = "sdb.read"
	HdrReadResult = "sdb.readresult"
	HdrLeaseTick  = "sdb.leasetick"
	// HdrSyncTick is the durable replica's group-commit timer: parked
	// client acks are released once the covering fsync runs.
	HdrSyncTick = "sdb.synctick"
)

// TxRequest is a typed transaction invocation.
type TxRequest struct {
	// Client is where the answer goes; Seq is the client's sequence
	// number for exactly-once execution.
	Client msg.Loc
	Seq    int64
	// Type names a registered procedure; Args are its parameters.
	Type string
	Args []any
	// Deadline is the request's absolute deadline (nanoseconds on the
	// deployment clock, 0 = none), stamped by the client. Non-replicated
	// hops (router, sequencer intake) drop the request with an explicit
	// flow.Reject once it expires; replicated hops apply regardless (the
	// order is the order) but suppress the client ack.
	Deadline int64
}

// Key identifies the request for deduplication.
func (r TxRequest) Key() string { return fmt.Sprintf("%s/%d", r.Client, r.Seq) }

// TxResult is the transaction outcome returned to the client.
type TxResult struct {
	Client msg.Loc
	Seq    int64
	// Aborted reports a deterministic transaction abort (not a failure).
	Aborted bool
	// Err carries an execution error message ("" when none).
	Err string
	// Cols/Rows carry the result set of the procedure, if any.
	Cols []string
	Rows [][]sqldb.Value
}

// ReadMode selects the consistency mode of a local read.
type ReadMode int

// The read modes.
const (
	// ReadLease is a linearizable read served by the lease holder without
	// a consensus round: validity of the lease guarantees no other
	// replica could have acknowledged a newer write.
	ReadLease ReadMode = iota + 1
	// ReadFollower is a bounded-staleness read served by any replica: the
	// serving replica proves (via the last applied lease renewal, which
	// doubles as an ordered clock beacon) that its state is at most
	// MaxStale behind the acknowledged frontier.
	ReadFollower
)

func (m ReadMode) String() string {
	switch m {
	case ReadLease:
		return "lease"
	case ReadFollower:
		return "follower"
	}
	return fmt.Sprintf("ReadMode(%d)", int(m))
}

// ReadRequest is a typed read-only invocation sent directly to one
// replica (no broadcast). Type names a registered read procedure.
type ReadRequest struct {
	Client msg.Loc
	Seq    int64
	Type   string
	Args   []any
	Mode   ReadMode
}

// ReadResult is the answer to a ReadRequest. It travels as a pointer
// body (see AcquireReadResult) so the steady-state serve loop boxes no
// values; Vals is the flat single-row result of a fast read procedure,
// reusing its backing array across serves.
type ReadResult struct {
	Client msg.Loc
	Seq    int64
	Mode   ReadMode
	// Slot is the replica's applied-slot frontier when the read was
	// served — the evidence the staleness checker audits.
	Slot int
	// Issue is the issue timestamp (virtual ns) of the lease renewal
	// covering this serve.
	Issue int64
	// Rejected reports that the replica declined to serve in the
	// requested mode (no valid lease / staleness bound exceeded). The
	// client retries or falls back to a consensus-path read.
	Rejected bool
	Err      string
	Cols     []string
	Vals     []sqldb.Value
}

var readResultPool = sync.Pool{New: func() any { return new(ReadResult) }}

// AcquireReadResult returns a cleared ReadResult from the pool. The
// serve path fills it and sends it as a pointer body; the consumer
// calls ReleaseReadResult once done. In the single-threaded simulation
// this makes the serve loop allocation-free after warm-up.
func AcquireReadResult() *ReadResult {
	r := readResultPool.Get().(*ReadResult)
	r.Client, r.Seq, r.Mode, r.Slot, r.Issue = "", 0, 0, 0, 0
	r.Rejected, r.Err, r.Cols = false, "", nil
	r.Vals = r.Vals[:0]
	return r
}

// ReleaseReadResult returns a consumed result to the pool.
func ReleaseReadResult(r *ReadResult) {
	if r != nil {
		readResultPool.Put(r)
	}
}

// LeaseTick is the lease renewal timer body.
type LeaseTick struct{}

// SyncTick is the group-commit timer body.
type SyncTick struct{}

// Redirect points a client at the current primary.
type Redirect struct {
	Primary msg.Loc
	CfgSeq  int
}

// Repl is the primary->backup forward of one ordered transaction.
type Repl struct {
	CfgSeq int
	Order  int64 // global execution order number
	Req    TxRequest
}

// ReplAck acknowledges execution of an ordered transaction.
type ReplAck struct {
	CfgSeq int
	Order  int64
	From   msg.Loc
}

// Heartbeat is the liveness probe. It doubles as configuration gossip:
// Members carries the sender's view of the current configuration
// (primary first once elected) so replicas that missed a
// reconfiguration — restarted, or on the wrong side of a partition —
// can adopt it, and Stopped exposes the sender's recovery state so
// peers can re-send signals lost on a faulty link.
type Heartbeat struct {
	From    msg.Loc
	CfgSeq  int
	Members []msg.Loc
	Stopped bool
	// Elected reports that Members is the authoritative order (primary
	// first): the sender is not mid-election. A member whose election
	// tally never closed — its votes crossed a partition — adopts the
	// order from the first elected peer it hears.
	Elected bool
}

// HBTick is the local failure-detector timer body.
type HBTick struct{}

// NewConfig is the recovery proposal, agreed through the total order
// broadcast service. It is tagged with the sequence number of the
// configuration it replaces; only the first proposal per configuration
// wins (Section III-A, step 3).
type NewConfig struct {
	OldSeq   int
	Members  []msg.Loc // surviving replicas + replacement spares
	Proposer msg.Loc
}

// Elect carries a member's executed sequence number for the new
// configuration's primary election.
type Elect struct {
	CfgSeq   int
	From     msg.Loc
	Executed int64
	// HasData reports whether the sender holds a full copy of the
	// database (fresh spares do not).
	HasData bool
}

// Catchup carries transactions a lagging backup is missing.
type Catchup struct {
	CfgSeq int
	From   int64 // order number of the first entry
	Txs    []Repl
}

// CatchupReq asks the primary for every transaction after Since. Backups
// send it when a forward gap persists (lost Repl) and when configuration
// gossip reveals they are behind an adopted configuration. While a state
// transfer to the requester is already in flight the primary ignores
// repeats; Resync overrides that and forces a fresh transfer — the
// backup sets it after asking several times without seeing any transfer
// traffic, which means the in-flight one was lost to the network.
type CatchupReq struct {
	CfgSeq int
	From   msg.Loc
	Since  int64
	Resync bool
}

// SnapBegin opens a state transfer. Xfer identifies the transfer: the
// sender numbers transfers monotonically, so a receiver can discard
// batches of a superseded transfer and ignore duplicate or stale begins
// instead of restarting assembly from scratch.
type SnapBegin struct {
	CfgSeq  int
	Xfer    int64
	Schemas []sqldb.CreateTable
	// Order is the execution order number the snapshot reflects.
	Order int64
}

// SnapBatch carries one batch of rows.
type SnapBatch struct {
	CfgSeq int
	Xfer   int64
	Table  string
	Rows   [][]sqldb.Value
	// N is the batch index, Last marks the final batch of the table.
	N int
}

// SnapEnd closes a state transfer. Batches lets the receiver detect that
// some batches are still in flight (reordered or delayed) and defer
// completion until they arrive. Executed and LastSeq carry the sender's
// dedup horizon on SMR transfers: without them a joiner would re-execute
// a client retry that the established replicas deduplicate, silently
// diverging from the group. PBR transfers leave them zero.
type SnapEnd struct {
	CfgSeq   int
	Xfer     int64
	Order    int64
	Batches  int
	Executed int64
	LastSeq  map[string]int64
	// Recent carries the sender's newest cached result per client, so a
	// receiver that later becomes the lease holder can re-emit acks for
	// writes it never executed locally (see SMRReplica.reAck).
	Recent []TxResult
	// Epochs and Joined carry the sender's membership schedule. A
	// transfer that covers a membership command's slot is the only copy
	// of that command the receiver will ever see — the slots it covers
	// are never redelivered.
	Epochs []member.Config
	Joined map[msg.Loc]int
}

// Recovered signals a backup is in sync.
type Recovered struct {
	CfgSeq int
	From   msg.Loc
}

// SMRCatchupReq asks a peer replica for every slot after After. From is
// the requester; After is the highest contiguous slot it has applied
// (from local recovery, or the last delivery before a gap appeared).
type SMRCatchupReq struct {
	From  msg.Loc
	After int
}

// SMRCatchup answers with the decided batches the requester is missing,
// in slot order. A peer whose journal has been compacted past After
// sends a state transfer (SnapBegin/SnapBatch/SnapEnd) instead.
type SMRCatchup struct {
	Delivers []broadcast.Deliver
}

// RegisterWireTypes registers ShadowDB bodies with the wire codec,
// including the basic value types that travel inside TxRequest.Args and
// result rows.
func RegisterWireTypes() {
	gobBasics()
	for _, v := range []any{
		TxRequest{}, TxResult{}, Redirect{}, Repl{}, ReplAck{}, Heartbeat{}, HBTick{},
		NewConfig{}, Elect{}, Catchup{}, CatchupReq{}, SnapBegin{}, SnapBatch{}, SnapEnd{},
		Recovered{}, ClientRetryBody{}, SMRCatchupReq{}, SMRCatchup{},
		ReadRequest{}, &ReadResult{}, LeaseTick{}, SyncTick{},
	} {
		msg.RegisterBody(v)
	}
}

// Config is a replica-group configuration: a sequence number and an
// ordered member list whose first element is the primary.
type Config struct {
	Seq     int
	Members []msg.Loc
}

// Primary returns the configuration's primary.
func (c Config) Primary() msg.Loc {
	if len(c.Members) == 0 {
		return ""
	}
	return c.Members[0]
}

// Backups returns the non-primary members.
func (c Config) Backups() []msg.Loc {
	if len(c.Members) == 0 {
		return nil
	}
	return c.Members[1:]
}

// Contains reports membership.
func (c Config) Contains(l msg.Loc) bool {
	for _, m := range c.Members {
		if m == l {
			return true
		}
	}
	return false
}

// Timing groups the failure-detection and retry knobs.
type Timing struct {
	// HeartbeatEvery is the probe period.
	HeartbeatEvery time.Duration
	// SuspectAfter is how long without heartbeats before suspicion; the
	// paper used 10 s ("detection time is configurable").
	SuspectAfter time.Duration
	// ClientRetry is the client's resend timeout.
	ClientRetry time.Duration
}

// DefaultTiming mirrors the paper's recovery experiment.
func DefaultTiming() Timing {
	return Timing{
		HeartbeatEvery: 500 * time.Millisecond,
		SuspectAfter:   10 * time.Second,
		ClientRetry:    2 * time.Second,
	}
}
