package core

import (
	"errors"
	"fmt"
	"sort"

	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// The transaction substrate shared by both replication protocols: typed,
// deterministic procedures executed sequentially against the local
// database, with per-client deduplication.

// ErrAbort is returned by a procedure to request a deterministic abort.
// Because transactions are deterministic, every replica aborts the same
// transactions (footnote 4 of the paper).
var ErrAbort = errors.New("core: transaction aborted")

// Procedure is a transaction type: a deterministic function of the
// database state and the request arguments. It runs inside an implicit
// transaction; returning an error rolls back.
type Procedure func(db *sqldb.DB, args []any) (ProcResult, error)

// ProcResult is a procedure's result set.
type ProcResult struct {
	Cols []string
	Rows [][]sqldb.Value
}

// Registry maps transaction type names to procedures. All replicas of a
// group must share one registry (procedures are code, not data; they
// cannot travel in messages).
type Registry map[string]Procedure

// FastProc is an allocation-lean write procedure: a single-statement
// mutation (e.g. a point increment through sqldb.PointAddInt) with no
// result set. Because it cannot fail after mutating, the executor skips
// the per-transaction savepoint — aborted=true requests a deterministic
// abort before any mutation.
type FastProc func(db *sqldb.DB, args []any) (aborted bool, err error)

// FastRegistry maps transaction types to their fast variants. A type
// present here shadows its Registry entry on the batch apply path.
type FastRegistry map[string]FastProc

// dedupWindow is how many recent results are kept per client. Results
// older than the window answer retries with an empty duplicate marker,
// exactly as the map-based cache did for results it had evicted.
const dedupWindow = 8

// clientState is the per-client dedup record: the last answered
// sequence number and a ring of recent results keyed by seq%window.
// Replacing the (key-string -> result) map removes the two per-apply
// allocations (fmt.Sprintf key + map growth) from the steady state.
type clientState struct {
	lastSeq int64
	recent  [dedupWindow]TxResult
}

// Executor owns a replica's database, its execution log cache, and the
// per-client deduplication table.
type Executor struct {
	DB  *sqldb.DB
	Reg Registry
	// Fast, when set, provides allocation-lean variants of hot write
	// procedures (see FastProc).
	Fast FastRegistry
	// Executed is the number of transactions applied (the election
	// criterion of the recovery protocol).
	Executed int64
	// CacheSize bounds the transaction log kept for backup catch-up
	// ("each replica only caches a limited number of executed
	// transactions"); 0 means 1024.
	CacheSize int
	log       []Repl
	logStart  int64 // order number of log[0]
	cstates   map[string]*clientState
	// resBuf is the reusable ApplyBatch result buffer; callers consume
	// it before the next batch.
	resBuf []TxResult
	// Durability (durability.go): with st set, appendLog journals every
	// ordered transaction and compacts the journal into a database
	// snapshot every snapEvery transactions. replaying suppresses
	// journaling while Recover re-executes the journal.
	st        store.Stable
	snapEvery int
	sinceSnap int
	replaying bool
}

// NewExecutor creates an executor over a database.
func NewExecutor(db *sqldb.DB, reg Registry) *Executor {
	return &Executor{
		DB:      db,
		Reg:     reg,
		cstates: make(map[string]*clientState),
	}
}

func (e *Executor) cacheSize() int {
	if e.CacheSize <= 0 {
		return 1024
	}
	return e.CacheSize
}

// state returns the dedup record for a client, creating it on first
// contact (amortized: one allocation per client, ever).
func (e *Executor) state(client msg.Loc) *clientState {
	cs := e.cstates[string(client)]
	if cs == nil {
		cs = &clientState{}
		e.cstates[string(client)] = cs
	}
	return cs
}

// Duplicate returns the cached result when the request was already
// executed (exactly-once under client retry).
func (e *Executor) Duplicate(req TxRequest) (TxResult, bool) {
	cs := e.cstates[string(req.Client)]
	if cs == nil || req.Seq > cs.lastSeq {
		return TxResult{}, false
	}
	if r := &cs.recent[req.Seq%dedupWindow]; r.Seq == req.Seq && r.Client == req.Client {
		return *r, true
	}
	// Older than the last answered sequence number but no longer cached:
	// answer with an empty duplicate marker (the client has moved on).
	return TxResult{Client: req.Client, Seq: req.Seq}, true
}

// record stores a result in the client's dedup ring and advances its
// horizon.
func (e *Executor) record(req TxRequest, res TxResult) {
	cs := e.state(req.Client)
	cs.recent[req.Seq%dedupWindow] = res
	if req.Seq > cs.lastSeq {
		cs.lastSeq = req.Seq
	}
}

// RecentResults returns the newest cached result of every client,
// ordered by client name so callers that re-emit them stay
// deterministic. Clients known only through a transferred dedup
// horizon (SetLastSeq) have no cached result and are skipped.
func (e *Executor) RecentResults() []TxResult {
	var out []TxResult
	for _, cs := range e.cstates {
		res := &cs.recent[cs.lastSeq%dedupWindow]
		if res.Seq == cs.lastSeq && res.Client != "" {
			out = append(out, *res)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// AdoptRecent seeds the dedup ring with transferred results (the
// counterpart of RecentResults on the receiving side of a snapshot or
// state transfer). Without them a restarted lease holder could re-ack
// only what it re-executed locally; with them it can answer for writes
// that reached it inside a state transfer.
func (e *Executor) AdoptRecent(results []TxResult) {
	for _, res := range results {
		cs := e.state(res.Client)
		cs.recent[res.Seq%dedupWindow] = res
		if res.Seq > cs.lastSeq {
			cs.lastSeq = res.Seq
		}
	}
}

// LastSeqs returns a copy of the per-client dedup horizon (for
// snapshots and state transfers).
func (e *Executor) LastSeqs() map[string]int64 {
	out := make(map[string]int64, len(e.cstates))
	for c, cs := range e.cstates {
		out[c] = cs.lastSeq
	}
	return out
}

// SetLastSeq adopts a transferred dedup horizon entry: retries at or
// below seq are answered with a duplicate marker rather than
// re-executed.
func (e *Executor) SetLastSeq(client string, seq int64) {
	cs := e.state(msg.Loc(client))
	if seq > cs.lastSeq {
		cs.lastSeq = seq
	}
}

// Apply executes one ordered transaction and records it in the log cache
// and the deduplication table. order must be Executed+1.
func (e *Executor) Apply(order int64, req TxRequest) (TxResult, error) {
	if order != e.Executed+1 {
		return TxResult{}, fmt.Errorf("core: applying order %d, expected %d", order, e.Executed+1)
	}
	res := e.run(req)
	e.Executed = order
	e.appendLog(Repl{Order: order, Req: req})
	e.record(req, res)
	return res, nil
}

// run executes the procedure inside a transaction.
func (e *Executor) run(req TxRequest) TxResult {
	return RunProc(e.DB, e.Reg, req)
}

// ApplyBatch executes a contiguous run of ordered transactions inside a
// single SQL-engine critical section: one BEGIN, a savepoint per
// transaction (a procedure failure rolls back to its savepoint only),
// one COMMIT — the group commit of a decided broadcast batch. Order
// numbers are assigned sequentially from Executed+1 and the log,
// deduplication, and result bookkeeping are identical to calling Apply
// once per request, so primaries applying one-by-one and backups
// applying a whole batch converge on the same state. The returned
// slice is reused by the next call; callers consume it immediately.
func (e *Executor) ApplyBatch(reqs []TxRequest) []TxResult {
	out := e.resBuf[:0]
	if len(reqs) == 0 {
		return out
	}
	if _, err := e.DB.Exec("BEGIN"); err != nil {
		// A transaction is somehow already open; degrade to the
		// per-transaction path rather than nesting.
		for _, req := range reqs {
			res, applyErr := e.Apply(e.Executed+1, req)
			if applyErr != nil {
				res = TxResult{Client: req.Client, Seq: req.Seq, Err: applyErr.Error()}
			}
			out = append(out, res)
		}
		e.resBuf = out
		return out
	}
	for _, req := range reqs {
		out = append(out, e.applyInBatch(req))
	}
	if e.DB.InTx() {
		_, _ = e.DB.Exec("COMMIT")
	}
	e.resBuf = out
	return out
}

// applyInBatch executes one transaction of an open group-commit batch
// under its own savepoint and records the same bookkeeping as Apply.
// Fast procedures skip the savepoint: a single-statement mutation
// cannot fail after mutating, so there is nothing to roll back to.
func (e *Executor) applyInBatch(req TxRequest) TxResult {
	out := TxResult{Client: req.Client, Seq: req.Seq}
	if fp, ok := e.Fast[req.Type]; ok {
		if aborted, err := fp(e.DB, req.Args); err != nil {
			out.Err = err.Error()
		} else if aborted {
			out.Aborted = true
		}
	} else if proc, ok := e.Reg[req.Type]; !ok {
		out.Err = fmt.Sprintf("unknown transaction type %q", req.Type)
	} else if mark, err := e.DB.Savepoint(); err != nil {
		out.Err = err.Error()
	} else if res, err := proc(e.DB, req.Args); err != nil {
		_ = e.DB.RollbackTo(mark)
		if errors.Is(err, ErrAbort) {
			out.Aborted = true
		} else {
			out.Err = err.Error()
		}
	} else {
		out.Cols, out.Rows = res.Cols, res.Rows
	}
	order := e.Executed + 1
	e.Executed = order
	e.appendLog(Repl{Order: order, Req: req})
	e.record(req, out)
	return out
}

// RunProc executes one procedure inside a transaction against a database,
// without ordering or deduplication bookkeeping. The replication
// protocols use Executor.Apply; the baselines and standalone servers use
// RunProc directly.
func RunProc(db *sqldb.DB, reg Registry, req TxRequest) TxResult {
	out := TxResult{Client: req.Client, Seq: req.Seq}
	proc, ok := reg[req.Type]
	if !ok {
		out.Err = fmt.Sprintf("unknown transaction type %q", req.Type)
		return out
	}
	if _, err := db.Exec("BEGIN"); err != nil {
		out.Err = err.Error()
		return out
	}
	res, err := proc(db, req.Args)
	if err != nil {
		if db.InTx() {
			_, _ = db.Exec("ROLLBACK")
		}
		if errors.Is(err, ErrAbort) {
			out.Aborted = true
			return out
		}
		out.Err = err.Error()
		return out
	}
	if _, err := db.Exec("COMMIT"); err != nil {
		out.Err = err.Error()
		return out
	}
	out.Cols, out.Rows = res.Cols, res.Rows
	return out
}

func (e *Executor) appendLog(r Repl) {
	e.journal(r)
	if len(e.log) == 0 {
		e.logStart = r.Order
	}
	e.log = append(e.log, r)
	if len(e.log) > e.cacheSize() {
		// Re-slice past the dropped entries instead of shifting the
		// window down: once the cache is full this runs on every append,
		// and a shift copies the whole cache each time. append
		// reallocates when the backing array runs out, so the cost per
		// append is amortized O(1).
		drop := len(e.log) - e.cacheSize()
		clear(e.log[:drop]) // release references held past the cache
		e.log = e.log[drop:]
		e.logStart += int64(drop)
	}
}

// LogFrom returns the cached transactions with order numbers > after, or
// ok=false when the cache no longer reaches back that far (a snapshot is
// needed instead).
func (e *Executor) LogFrom(after int64) ([]Repl, bool) {
	if after >= e.Executed {
		return nil, true
	}
	if len(e.log) == 0 || after+1 < e.logStart {
		return nil, false
	}
	idx := int(after + 1 - e.logStart)
	out := make([]Repl, len(e.log)-idx)
	copy(out, e.log[idx:])
	return out, true
}

// InstallSnapshot resets the executor to a transferred state.
func (e *Executor) InstallSnapshot(order int64) {
	e.Executed = order
	e.log = nil
	e.logStart = 0
	// The dedup table conservatively clears; duplicate suppression for
	// older requests is re-established as clients resend with their
	// latest sequence numbers.
	e.cstates = make(map[string]*clientState)
}
