package dist_test

import (
	"strings"
	"testing"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/core"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/shard"
)

// deliverEvent synthesizes the checker's view of one ordered batch
// arriving at loc. The batch identity (what the total-order fingerprint
// hashes) is the (from, seq) pair of each message, so divergence tests
// vary `from` to make two slots' batches distinguishable.
func deliverEvent(loc msg.Loc, slot int, from msg.Loc, payloads ...[]byte) obs.Event {
	var msgs []broadcast.Bcast
	for i, p := range payloads {
		msgs = append(msgs, broadcast.Bcast{From: from, Seq: int64(slot*100 + i), Payload: p})
	}
	m := msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: slot, Msgs: msgs})
	return obs.Event{Loc: loc, M: &m}
}

func txPayload(t *testing.T, client msg.Loc, seq int64) []byte {
	t.Helper()
	b, err := core.EncodeTx(core.TxRequest{Client: client, Seq: seq, Type: "deposit", Args: []any{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Two shards legitimately deliver different batches in the same slot
// number — their total orders are independent. Group keying must keep
// them apart; the ungrouped checker (the unsharded deployment's view)
// must keep flagging the same history as a total-order violation.
func TestCheckerGroupKeyingSeparatesShards(t *testing.T) {
	evA := deliverEvent("s0r1", 0, "c1", txPayload(t, "c1", 1))
	evB := deliverEvent("s1r1", 0, "c2", txPayload(t, "c2", 1))

	grouped := dist.NewChecker()
	grouped.SetGroupOf(shard.GroupOf)
	grouped.FeedAll([]obs.Event{evA, evB})
	if vs := grouped.Violations(); len(vs) != 0 {
		t.Fatalf("group-keyed checker flagged independent shard orders: %v", vs)
	}

	flat := dist.NewChecker()
	flat.FeedAll([]obs.Event{evA, evB})
	if vs := flat.Violations(); len(vs) != 1 || vs[0].Property != "broadcast/total-order" {
		t.Fatalf("ungrouped checker should flag the divergent slot: %v", vs)
	}
}

// Same shard, divergent batch in one slot: still a violation under
// group keying (the group shares one total order).
func TestCheckerFlagsDivergenceWithinShard(t *testing.T) {
	ck := dist.NewChecker()
	ck.SetGroupOf(shard.GroupOf)
	ck.FeedAll([]obs.Event{
		deliverEvent("s0r1", 0, "c1", txPayload(t, "c1", 1)),
		deliverEvent("s0r2", 0, "c2", txPayload(t, "c2", 9)),
	})
	vs := ck.Violations()
	if len(vs) != 1 || vs[0].Property != "broadcast/total-order" {
		t.Fatalf("divergent batch within a shard not flagged: %v", vs)
	}
}

func prepPayload(txid string, shardIdx int) []byte {
	b, err := shard.EncodePrepare(shard.Prepare{
		TxID: txid, Coord: "rt1", Shard: shardIdx, Participants: []int{0, 1},
		Sub: shard.SubTx{Apply: "deposit", ApplyArgs: []any{1, 1}},
	})
	if err != nil {
		panic(err) // every argument above has a codec type
	}
	return b
}

func decPayload(txid string, shardIdx int, commit bool) []byte {
	return shard.EncodeDecision(shard.Decision{TxID: txid, Shard: shardIdx, Coord: "rt1", Commit: commit})
}

func TestCheckerCrossShardAtomicityClean(t *testing.T) {
	ck := dist.NewChecker()
	ck.SetGroupOf(shard.GroupOf)
	ck.FeedAll([]obs.Event{
		deliverEvent("s0r1", 0, "rt1", prepPayload("c9/1", 0)),
		deliverEvent("s1r1", 0, "rt1", prepPayload("c9/1", 1)),
	})
	if open := ck.OpenCrossShard(); len(open) != 1 || open[0] != "c9/1" {
		t.Fatalf("OpenCrossShard = %v, want [c9/1]", open)
	}
	ck.FeedAll([]obs.Event{
		deliverEvent("s0r1", 1, "rt1", decPayload("c9/1", 0, true)),
		deliverEvent("s1r1", 1, "rt1", decPayload("c9/1", 1, true)),
	})
	if vs := ck.Violations(); len(vs) != 0 {
		t.Fatalf("clean 2PC flagged: %v", vs)
	}
	if open := ck.OpenCrossShard(); len(open) != 0 {
		t.Fatalf("decided transaction still open: %v", open)
	}
	if st := ck.Status(); st.CrossShard != 1 || st.CrossOpen != 0 {
		t.Fatalf("status cross-shard counts wrong: %+v", st)
	}
}

func TestCheckerFlagsCommitWithoutPrepare(t *testing.T) {
	ck := dist.NewChecker()
	ck.SetGroupOf(shard.GroupOf)
	ck.FeedAll([]obs.Event{
		deliverEvent("s0r1", 0, "rt1", prepPayload("c9/2", 0)),
		deliverEvent("s0r1", 1, "rt1", decPayload("c9/2", 0, true)),
		// Shard 1 never delivered the prepare but delivers a commit:
		// effects it never voted for.
		deliverEvent("s1r1", 0, "rt1", decPayload("c9/2", 1, true)),
	})
	vs := ck.Violations()
	if len(vs) != 1 || vs[0].Property != "shard/cross-atomicity" {
		t.Fatalf("commit-without-prepare not flagged: %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "without delivering its prepare") {
		t.Fatalf("unexpected detail: %s", vs[0].Detail)
	}
}

func TestCheckerAllowsAbortWithoutPrepare(t *testing.T) {
	ck := dist.NewChecker()
	ck.SetGroupOf(shard.GroupOf)
	// The coordinator aborts a transaction whose prepare never reached
	// shard 1 (partition): the abort decision is the only record shard 1
	// ever sees. Legitimate.
	ck.FeedAll([]obs.Event{
		deliverEvent("s0r1", 0, "rt1", prepPayload("c9/3", 0)),
		deliverEvent("s0r1", 1, "rt1", decPayload("c9/3", 0, false)),
		deliverEvent("s1r1", 0, "rt1", decPayload("c9/3", 1, false)),
	})
	if vs := ck.Violations(); len(vs) != 0 {
		t.Fatalf("abort-without-prepare wrongly flagged: %v", vs)
	}
}

func TestCheckerFlagsConflictingOutcomes(t *testing.T) {
	ck := dist.NewChecker()
	ck.SetGroupOf(shard.GroupOf)
	ck.FeedAll([]obs.Event{
		deliverEvent("s0r1", 0, "rt1", prepPayload("c9/4", 0)),
		deliverEvent("s1r1", 0, "rt1", prepPayload("c9/4", 1)),
		deliverEvent("s0r1", 1, "rt1", decPayload("c9/4", 0, true)),
		deliverEvent("s1r1", 1, "rt1", decPayload("c9/4", 1, false)),
	})
	found := false
	for _, v := range ck.Violations() {
		if v.Property == "shard/cross-atomicity" && strings.Contains(v.Detail, "commit and abort") {
			found = true
		}
	}
	if !found {
		t.Fatalf("conflicting outcomes not flagged: %v", ck.Violations())
	}
}
