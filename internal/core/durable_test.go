package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
	"shadowdb/internal/wire"
)

func bankDB(t *testing.T, name string, rows int) *sqldb.DB {
	t.Helper()
	db, err := sqldb.Open("h2:mem:" + name)
	if err != nil {
		t.Fatal(err)
	}
	if rows > 0 {
		if err := BankSetup(db, rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func emptyDB(t *testing.T, name string) *sqldb.DB { return bankDB(t, name, 0) }

func mustOpen(t *testing.T, prov store.Provider, name string) store.Stable {
	t.Helper()
	st, err := prov.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func durDeposit(seq int64) TxRequest {
	return TxRequest{Client: "c0", Seq: seq, Type: "deposit", Args: []any{1, 5}}
}

func depositDeliver(t *testing.T, slot int) broadcast.Deliver {
	t.Helper()
	pay, err := EncodeTx(durDeposit(int64(slot + 1)))
	if err != nil {
		t.Fatal(err)
	}
	return broadcast.Deliver{Slot: slot, Msgs: []broadcast.Bcast{{From: "c0", Seq: int64(slot + 1), Payload: pay}}}
}

func stepDeliver(r *SMRReplica, d broadcast.Deliver) []msg.Directive {
	_, outs := r.Step(msg.M(broadcast.HdrDeliver, d))
	return outs
}

// An executor rebuilt over its store — fresh empty database — must come
// back with the same Executed frontier and the same table contents,
// including the initial population that only the baseline snapshot
// holds.
func TestExecutorRecover(t *testing.T) {
	for name, prov := range map[string]store.Provider{
		"mem": store.NewMem(),
		"dir": mustDirProv(t),
	} {
		t.Run(name, func(t *testing.T) {
			db := bankDB(t, "exec-"+name, 10)
			exec := NewExecutor(db, BankRegistry())
			exec.SetStable(mustOpen(t, prov, "r1"), 4)
			if err := exec.Compact(); err != nil { // baseline: the setup rows
				t.Fatal(err)
			}
			for i := int64(1); i <= 10; i++ {
				if _, err := exec.Apply(i, durDeposit(i)); err != nil {
					t.Fatal(err)
				}
			}

			db2 := emptyDB(t, "exec2-"+name)
			exec2 := NewExecutor(db2, BankRegistry())
			exec2.SetStable(mustOpen(t, prov, "r1"), 4)
			restored, err := exec2.Recover()
			if err != nil || !restored {
				t.Fatalf("Recover = %v, %v; want restored", restored, err)
			}
			if exec2.Executed != 10 {
				t.Errorf("recovered Executed = %d, want 10", exec2.Executed)
			}
			if !sqldb.Equal(db, db2) {
				t.Error("recovered database differs from the original")
			}
			// The dedup horizon survived: a pre-crash request is a duplicate.
			if _, dup := exec2.Duplicate(durDeposit(3)); !dup {
				t.Error("pre-crash request not recognized as duplicate after recovery")
			}
		})
	}
}

func mustDirProv(t *testing.T) *store.Dir {
	t.Helper()
	d, err := store.NewDir(t.TempDir(), store.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A durable SMR replica rebuilt over its store recovers the baseline
// population plus every journaled slot without any network traffic.
func TestDurableSMRReplicaRecoversLocally(t *testing.T) {
	prov := store.NewMem()
	db := bankDB(t, "smr-r1", 10)
	r1, err := NewDurableSMRReplica("r1", db, BankRegistry(), mustOpen(t, prov, "r1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Recovered() {
		t.Fatal("fresh store reported as recovered")
	}
	for s := 0; s < 10; s++ {
		if outs := stepDeliver(r1, depositDeliver(t, s)); len(outs) == 0 {
			t.Fatalf("slot %d produced no reply", s)
		}
	}

	db2 := emptyDB(t, "smr-r1b")
	r1b, err := NewDurableSMRReplica("r1", db2, BankRegistry(), mustOpen(t, prov, "r1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r1b.Recovered() {
		t.Fatal("restart over a populated store not recovered")
	}
	if r1b.LastSlot() != 9 {
		t.Errorf("recovered LastSlot = %d, want 9", r1b.LastSlot())
	}
	if !sqldb.Equal(db, db2) {
		t.Error("recovered database differs from the original")
	}
}

// A journal slot whose transaction payload was written by the earlier
// gob codec must stop the restart with a format error: applyBatch would
// skip the payload it cannot decode and silently lose the committed
// transaction.
func TestDurableSMRReplicaRefusesOldFormat(t *testing.T) {
	prov := store.NewMem()
	if _, err := NewDurableSMRReplica("r1", bankDB(t, "old-r1", 10), BankRegistry(), mustOpen(t, prov, "r1"), nil); err != nil {
		t.Fatal(err)
	}
	gobBasics()
	var old bytes.Buffer
	old.WriteString("tx|")
	if err := gob.NewEncoder(&old).Encode(durDeposit(1)); err != nil {
		t.Fatal(err)
	}
	rec := gobEnc(walDeliver{Slot: 0, Msgs: []broadcast.Bcast{{From: "c0", Seq: 1, Payload: old.Bytes()}}})
	if err := mustOpen(t, prov, "r1").Append(rec); err != nil {
		t.Fatal(err)
	}
	_, err := NewDurableSMRReplica("r1", emptyDB(t, "old-r1b"), BankRegistry(), mustOpen(t, prov, "r1"), nil)
	if !errors.Is(err, wire.ErrFormat) {
		t.Fatalf("restart over a gob-era journal: err = %v, want wire.ErrFormat", err)
	}
	t.Log(err)
}

// Local recovery across a compaction boundary: enough slots to trigger
// a snapshot, plus a journal tail.
func TestDurableSMRReplicaRecoversAcrossCompaction(t *testing.T) {
	prov := mustDirProv(t)
	db := bankDB(t, "smrc-r1", 10)
	r1, err := NewDurableSMRReplica("r1", db, BankRegistry(), mustOpen(t, prov, "r1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := smrSnapEvery + 7
	for s := 0; s < n; s++ {
		stepDeliver(r1, depositDeliver(t, s))
	}

	db2 := emptyDB(t, "smrc-r1b")
	r1b, err := NewDurableSMRReplica("r1", db2, BankRegistry(), mustOpen(t, prov, "r1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1b.LastSlot() != n-1 {
		t.Errorf("recovered LastSlot = %d, want %d", r1b.LastSlot(), n-1)
	}
	if !sqldb.Equal(db, db2) {
		t.Error("recovered database differs across compaction")
	}
}

// A restarted replica fetches only the delta over the network: the
// peer serves the missing slots from its journal, and the catch-up
// application is quiet (the live replicas already answered those
// clients).
func TestDurableSMRCatchupDelta(t *testing.T) {
	prov := store.NewMem()
	db1 := bankDB(t, "cd-r1", 10)
	r1, err := NewDurableSMRReplica("r1", db1, BankRegistry(), mustOpen(t, prov, "r1"), []msg.Loc{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	db2 := bankDB(t, "cd-r2", 10)
	r2, err := NewDurableSMRReplica("r2", db2, BankRegistry(), mustOpen(t, prov, "r2"), []msg.Loc{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	// r1 sees everything; r2 crashes after slot 2.
	for s := 0; s < 6; s++ {
		stepDeliver(r1, depositDeliver(t, s))
		if s <= 2 {
			stepDeliver(r2, depositDeliver(t, s))
		}
	}

	db2b := emptyDB(t, "cd-r2b")
	r2b, err := NewDurableSMRReplica("r2", db2b, BankRegistry(), mustOpen(t, prov, "r2"), []msg.Loc{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	if r2b.LastSlot() != 2 {
		t.Fatalf("local recovery frontier = %d, want 2", r2b.LastSlot())
	}
	// One immediate request per peer plus one delayed retry (the first
	// round can be lost to a stale connection on a live network).
	reqs := r2b.RecoveryDirectives()
	if len(reqs) != 2 || reqs[0].M.Hdr != HdrSMRCatchupReq || reqs[0].Delay != 0 {
		t.Fatalf("recovery directives = %v, want an immediate catch-up request plus a delayed retry", reqs)
	}
	if reqs[1].M.Hdr != HdrSMRCatchupReq || reqs[1].Delay == 0 {
		t.Fatalf("second directive = %v, want a delayed duplicate of the catch-up request", reqs[1])
	}
	_, reply := r1.Step(reqs[0].M)
	if len(reply) != 1 || reply[0].M.Hdr != HdrSMRCatchup {
		t.Fatalf("peer answered %v, want one SMRCatchup", reply)
	}
	cu := reply[0].M.Body.(SMRCatchup)
	if len(cu.Delivers) != 3 {
		t.Fatalf("delta carries %d slots, want 3 (slots 3..5)", len(cu.Delivers))
	}
	_, outs := r2b.Step(reply[0].M)
	for _, o := range outs {
		if o.M.Hdr == HdrTxResult {
			t.Error("catch-up application re-answered a client")
		}
	}
	if r2b.LastSlot() != 5 {
		t.Errorf("post-catch-up frontier = %d, want 5", r2b.LastSlot())
	}
	if !sqldb.Equal(db1, db2b) {
		t.Error("caught-up replica differs from the live one")
	}

	// A live delivery with a gap parks and re-requests; the delta fills
	// the hole and the parked slot drains.
	gap := stepDeliver(r2b, depositDeliver(t, 7))
	if len(gap) == 0 || gap[0].M.Hdr != HdrSMRCatchupReq {
		t.Fatalf("gap delivery produced %v, want a catch-up request", gap)
	}
	_, outs = r2b.Step(msg.M(HdrSMRCatchup, SMRCatchup{Delivers: []broadcast.Deliver{depositDeliver(t, 6)}}))
	if r2b.LastSlot() != 7 {
		t.Errorf("frontier after gap fill = %d, want 7 (parked slot drained)", r2b.LastSlot())
	}
	_ = outs
}

// A peer whose journal was compacted past the requested range falls
// back to a full state transfer, and the requester installs it.
func TestDurableSMRCatchupSnapshotFallback(t *testing.T) {
	prov := store.NewMem()
	db1 := bankDB(t, "fb-r1", 10)
	r1, err := NewDurableSMRReplica("r1", db1, BankRegistry(), mustOpen(t, prov, "r1"), []msg.Loc{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	n := smrSnapEvery + 3 // past a compaction: the journal no longer reaches slot 0
	for s := 0; s < n; s++ {
		stepDeliver(r1, depositDeliver(t, s))
	}
	_, reply := r1.Step(msg.M(HdrSMRCatchupReq, SMRCatchupReq{From: "r2", After: 1}))
	if len(reply) < 3 || reply[0].M.Hdr != HdrSnapBegin {
		t.Fatalf("compacted peer answered %v, want a state transfer", reply[0].M.Hdr)
	}

	db2 := bankDB(t, "fb-r2", 10)
	r2, err := NewDurableSMRReplica("r2", db2, BankRegistry(), mustOpen(t, prov, "r2"), []msg.Loc{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	stepDeliver(r2, depositDeliver(t, 0))
	stepDeliver(r2, depositDeliver(t, 1))
	for _, o := range reply {
		r2.Step(o.M)
	}
	if r2.LastSlot() != n-1 {
		t.Errorf("post-transfer frontier = %d, want %d", r2.LastSlot(), n-1)
	}
	if !sqldb.Equal(db1, db2) {
		t.Error("transferred state differs from the sender")
	}
	// The transfer re-baselined the store: a fresh incarnation recovers
	// the transferred state locally.
	db2b := emptyDB(t, "fb-r2b")
	r2b, err := NewDurableSMRReplica("r2", db2b, BankRegistry(), mustOpen(t, prov, "r2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2b.LastSlot() != n-1 || !sqldb.Equal(db1, db2b) {
		t.Error("state transfer was not persisted as the new baseline")
	}
}

// Satellite: the joining-replica snapshot path must survive message
// duplication — every transfer message delivered twice must not double
// rows or complete the assembly early.
func TestSMRJoiningSnapshotDuplicated(t *testing.T) {
	db1 := bankDB(t, "dup-r1", 120)
	r1 := NewSMRReplica("r1", db1, BankRegistry())
	for s := 0; s < 3; s++ {
		stepDeliver(r1, depositDeliver(t, s))
	}
	xfer := r1.pushSnapshot("r2")
	if len(xfer) < 3 {
		t.Fatalf("transfer has %d messages, want begin+batches+end", len(xfer))
	}

	db2 := emptyDB(t, "dup-r2")
	r2 := NewJoiningSMRReplica("r2", db2, BankRegistry())
	for _, o := range xfer {
		r2.Step(o.M)
		r2.Step(o.M) // duplicate every message
	}
	if !r2.Active() {
		t.Fatal("joining replica did not activate")
	}
	if !sqldb.Equal(db1, db2) {
		t.Error("duplicated transfer corrupted the joined state")
	}
}

// Satellite: a dropped batch followed by a full retransmission of the
// transfer must still complete with exactly one copy of every row.
func TestSMRJoiningSnapshotDroppedThenRetransmitted(t *testing.T) {
	db1 := bankDB(t, "drop-r1", 120)
	r1 := NewSMRReplica("r1", db1, BankRegistry())
	xfer := r1.pushSnapshot("r2")

	// Find a batch to drop (the second message is the first SnapBatch).
	dropIdx := -1
	for i, o := range xfer {
		if o.M.Hdr == HdrSnapBatch {
			dropIdx = i
			break
		}
	}
	if dropIdx < 0 {
		t.Fatal("transfer carries no batches; grow the table")
	}

	db2 := emptyDB(t, "drop-r2")
	r2 := NewJoiningSMRReplica("r2", db2, BankRegistry())
	for i, o := range xfer {
		if i == dropIdx {
			continue // the network ate this batch
		}
		r2.Step(o.M)
	}
	if r2.Active() {
		t.Fatal("assembly completed with a batch missing")
	}
	// The sender retransmits the missing batch; the SnapEnd already
	// arrived, so its arrival completes the assembly.
	r2.Step(xfer[dropIdx].M)
	if !r2.Active() {
		t.Fatal("retransmitted batch did not complete the assembly")
	}
	if !sqldb.Equal(db1, db2) {
		t.Error("retransmitted transfer corrupted the joined state")
	}
}

// A recovered PBR executor rejoins with its frontier intact, so the
// protocol-level catch-up only has to send the downtime delta.
func TestDurablePBRReplicaRecovers(t *testing.T) {
	prov := store.NewMem()
	dep := PBRDeployment{Pool: []msg.Loc{"p1", "p2"}, InitialMembers: 2}
	db := bankDB(t, "pbr-p2", 10)
	r, restored, err := NewDurablePBRReplica("p2", db, BankRegistry(), dep, mustOpen(t, prov, "p2"), 8)
	if err != nil || restored {
		t.Fatalf("fresh durable replica: restored=%v err=%v", restored, err)
	}
	for i := int64(1); i <= 20; i++ {
		if _, err := r.Executor().Apply(i, durDeposit(i)); err != nil {
			t.Fatal(err)
		}
	}

	db2 := emptyDB(t, "pbr-p2b")
	r2, restored, err := NewDurablePBRReplica("p2", db2, BankRegistry(), dep, mustOpen(t, prov, "p2"), 8)
	if err != nil || !restored {
		t.Fatalf("restart: restored=%v err=%v", restored, err)
	}
	if r2.Executor().Executed != 20 {
		t.Errorf("recovered Executed = %d, want 20", r2.Executor().Executed)
	}
	if !sqldb.Equal(db, db2) {
		t.Error("recovered PBR database differs")
	}
}
