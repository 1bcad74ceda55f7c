package core

import (
	"errors"
	"testing"

	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

func bankExec(t *testing.T, rows int) *Executor {
	t.Helper()
	db, err := sqldb.Open("h2:mem:x")
	if err != nil {
		t.Fatal(err)
	}
	if err := BankSetup(db, rows); err != nil {
		t.Fatal(err)
	}
	return NewExecutor(db, BankRegistry())
}

func depositReq(client msg.Loc, seq int64, id, amount int) TxRequest {
	return TxRequest{Client: client, Seq: seq, Type: "deposit", Args: []any{id, amount}}
}

func balanceOf(t *testing.T, db *sqldb.DB, id int) int64 {
	t.Helper()
	res, err := db.Exec("SELECT balance FROM accounts WHERE id = ?", id)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("balance query: %v %v", res, err)
	}
	return res.Rows[0][0].(int64)
}

func TestExecutorApplyAndDedup(t *testing.T) {
	e := bankExec(t, 5)
	req := depositReq("c1", 1, 3, 50)
	if _, dup := e.Duplicate(req); dup {
		t.Fatal("fresh request marked duplicate")
	}
	res, err := e.Apply(1, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted || res.Err != "" {
		t.Fatalf("result = %+v", res)
	}
	if got := balanceOf(t, e.DB, 3); got != 1050 {
		t.Errorf("balance = %d", got)
	}
	// The same request again is a duplicate with the cached result.
	cached, dup := e.Duplicate(req)
	if !dup {
		t.Fatal("retry not detected as duplicate")
	}
	if cached.Seq != 1 || cached.Client != "c1" {
		t.Errorf("cached = %+v", cached)
	}
	if got := balanceOf(t, e.DB, 3); got != 1050 {
		t.Errorf("duplicate changed balance to %d", got)
	}
}

func TestExecutorOrderEnforced(t *testing.T) {
	e := bankExec(t, 2)
	if _, err := e.Apply(5, depositReq("c", 1, 0, 1)); err == nil {
		t.Error("out-of-order apply accepted")
	}
}

func TestExecutorAbort(t *testing.T) {
	e := bankExec(t, 2)
	// Deposit to a nonexistent account aborts deterministically.
	res, err := e.Apply(1, depositReq("c", 1, 999, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Errorf("result = %+v, want abort", res)
	}
	if e.DB.InTx() {
		t.Error("abort left transaction open")
	}
	// Aborted transactions still count as executed (all replicas abort
	// identically).
	if e.Executed != 1 {
		t.Errorf("Executed = %d", e.Executed)
	}
}

func TestExecutorUnknownType(t *testing.T) {
	e := bankExec(t, 1)
	res, err := e.Apply(1, TxRequest{Client: "c", Seq: 1, Type: "nonsense"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == "" {
		t.Error("unknown type produced no error")
	}
}

func TestExecutorLogCache(t *testing.T) {
	e := bankExec(t, 10)
	e.CacheSize = 4
	for i := int64(1); i <= 10; i++ {
		if _, err := e.Apply(i, depositReq("c", i, int(i%10), 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Recent suffix available.
	txs, ok := e.LogFrom(7)
	if !ok || len(txs) != 3 || txs[0].Order != 8 {
		t.Errorf("LogFrom(7) = %v %v", txs, ok)
	}
	// Far past evicted.
	if _, ok := e.LogFrom(2); ok {
		t.Error("evicted log range reported available")
	}
	// Nothing missing.
	txs, ok = e.LogFrom(10)
	if !ok || len(txs) != 0 {
		t.Errorf("LogFrom(10) = %v %v", txs, ok)
	}
}

// TestExecutorLogWindow appends well past twice the cache size and
// checks, after every append, that LogFrom serves exactly the last
// CacheSize orders and refuses anything older.
func TestExecutorLogWindow(t *testing.T) {
	e := bankExec(t, 1)
	const size = 16
	e.CacheSize = size
	for i := int64(1); i <= 2*size+size/2+1; i++ {
		e.appendLog(Repl{Order: i, Req: depositReq("c", i, 0, 1)})
		e.Executed = i
		lo := max(1, i-size+1)
		txs, ok := e.LogFrom(lo - 1)
		if !ok || int64(len(txs)) != i-lo+1 {
			t.Fatalf("after %d: LogFrom(%d) = %d entries, %v; want %d", i, lo-1, len(txs), ok, i-lo+1)
		}
		for j, r := range txs {
			if r.Order != lo+int64(j) || r.Req.Seq != r.Order {
				t.Fatalf("after %d: entry %d is order %d (seq %d), want %d", i, j, r.Order, r.Req.Seq, lo+int64(j))
			}
		}
		if _, ok := e.LogFrom(lo - 2); ok && lo > 1 {
			t.Fatalf("after %d: LogFrom(%d) reaches past the window start %d", i, lo-2, lo)
		}
		if txs, ok := e.LogFrom(i); !ok || len(txs) != 0 {
			t.Fatalf("after %d: LogFrom(%d) = %v, %v", i, i, txs, ok)
		}
		if _, err := e.FullLog(); (err == nil) != (lo == 1) {
			t.Fatalf("after %d: FullLog err = %v with window start %d", i, err, lo)
		}
	}
}

func TestExecutorInstallSnapshot(t *testing.T) {
	e := bankExec(t, 3)
	if _, err := e.Apply(1, depositReq("c", 1, 0, 5)); err != nil {
		t.Fatal(err)
	}
	e.InstallSnapshot(40)
	if e.Executed != 40 {
		t.Errorf("Executed = %d", e.Executed)
	}
	if _, ok := e.LogFrom(39); ok {
		t.Error("LogFrom(39) reported available after snapshot wiped the log")
	}
}

func TestExecutorResultRows(t *testing.T) {
	e := bankExec(t, 3)
	res, err := e.Apply(1, TxRequest{Client: "c", Seq: 1, Type: "balance", Args: []any{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1000) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestFullLog(t *testing.T) {
	e := bankExec(t, 3)
	for i := int64(1); i <= 5; i++ {
		if _, err := e.Apply(i, depositReq("c", i, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	log, err := e.FullLog()
	if err != nil || len(log) != 5 {
		t.Fatalf("FullLog = %v, %v", log, err)
	}
	e.CacheSize = 2
	e.appendLog(Repl{Order: 6})
	if _, err := e.FullLog(); !errors.Is(err, ErrIncompleteLog) {
		t.Errorf("truncated log: err = %v", err)
	}
}

func TestApplyBatchGroupCommit(t *testing.T) {
	// A batch applied as one group commit must land on exactly the state
	// and bookkeeping of one-by-one application: same balances, same
	// Executed count, same dedup answers, same per-request results.
	batch := []TxRequest{
		depositReq("c1", 1, 0, 10),
		depositReq("c2", 1, 1, 20),
		depositReq("c1", 2, 999, 5), // unknown account: deterministic abort
		depositReq("c3", 1, 0, 30),
		{Client: "c2", Seq: 2, Type: "nosuch"},
	}

	grouped := bankExec(t, 3)
	results := grouped.ApplyBatch(batch)

	oneByOne := bankExec(t, 3)
	var want []TxResult
	for _, req := range batch {
		res, err := oneByOne.Apply(oneByOne.Executed+1, req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	if len(results) != len(want) {
		t.Fatalf("got %d results, want %d", len(results), len(want))
	}
	for i := range want {
		if results[i].Aborted != want[i].Aborted || (results[i].Err == "") != (want[i].Err == "") {
			t.Errorf("result %d = %+v, want %+v", i, results[i], want[i])
		}
	}
	if grouped.Executed != oneByOne.Executed {
		t.Errorf("Executed = %d, want %d", grouped.Executed, oneByOne.Executed)
	}
	for id := 0; id < 3; id++ {
		if g, w := balanceOf(t, grouped.DB, id), balanceOf(t, oneByOne.DB, id); g != w {
			t.Errorf("balance[%d] = %d, want %d", id, g, w)
		}
	}
	if grouped.DB.InTx() {
		t.Error("group commit left a transaction open")
	}
	// The aborted transaction must not have leaked partial effects, and
	// dedup must answer retries for every request of the batch.
	for _, req := range batch {
		if _, dup := grouped.Duplicate(req); !dup {
			t.Errorf("request %s/%d not in dedup table", req.Client, req.Seq)
		}
	}
	// Log cache covers the batch for backup catch-up.
	if log, ok := grouped.LogFrom(0); !ok || len(log) != len(batch) {
		t.Errorf("LogFrom(0) = %d entries, ok=%v", len(log), ok)
	}
}

func TestApplyBatchEmpty(t *testing.T) {
	e := bankExec(t, 1)
	if out := e.ApplyBatch(nil); len(out) != 0 {
		t.Errorf("ApplyBatch(nil) = %v", out)
	}
	if e.Executed != 0 || e.DB.InTx() {
		t.Errorf("empty batch changed state: executed=%d inTx=%v", e.Executed, e.DB.InTx())
	}
}
