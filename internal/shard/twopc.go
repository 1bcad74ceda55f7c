package shard

import (
	"encoding/gob"
	"fmt"
	"sync"

	"shadowdb/internal/core"
	"shadowdb/internal/msg"
	"shadowdb/internal/wire"
)

// The 2PC vocabulary. Prepare and Decision travel as broadcast payloads
// (they are ordered through each participant shard's total order, so the
// 2PC outcome is replicated and crash-recoverable); Vote and Ack are
// plain replica→coordinator messages — losing one only delays the
// protocol, because the coordinator retransmits the ordered records and
// replicas answer duplicates idempotently from their prepared/decided
// tables.

// Message headers of the 2PC layer.
const (
	// HdrVote is a shard replica's prepare vote to the coordinator.
	HdrVote = "shard.vote"
	// HdrAck acknowledges a delivered decision to the coordinator.
	HdrAck = "shard.ack"
	// HdrRetry is the coordinator's self-addressed retransmission timer.
	HdrRetry = "shard.retry"
)

// SubTx is one shard's slice of a cross-shard transaction: the
// reservations its vote must secure and the procedure applied on commit.
type SubTx struct {
	// Reserve maps keys to the amount that must be available for the vote
	// to be YES; a YES vote holds the amounts (outside the database) until
	// the decision arrives.
	Reserve map[string]int64
	// Apply names the registered procedure run on commit, with ApplyArgs.
	Apply     string
	ApplyArgs []any
}

// Prepare asks one shard to vote on a cross-shard transaction. It is
// delivered through the shard's total order, so every replica of the
// shard computes the same (deterministic) vote.
type Prepare struct {
	// TxID is the transaction's identity (the originating request's Key).
	TxID string
	// Coord is where votes go; Shard is the recipient shard's index.
	Coord msg.Loc
	Shard int
	// Participants lists every involved shard (ascending) — recovery and
	// the checker both read the membership from the record itself.
	Participants []int
	// Req is the original client request (result routing, dedup identity).
	Req core.TxRequest
	// Sub is this shard's slice.
	Sub SubTx
}

// Decision carries the coordinator's commit/abort verdict to one shard,
// again through the shard's total order.
type Decision struct {
	TxID   string
	Shard  int
	Coord  msg.Loc
	Commit bool
}

// Vote is a replica's answer to a delivered Prepare.
type Vote struct {
	TxID  string
	Shard int
	From  msg.Loc
	OK    bool
}

// Ack confirms a replica delivered (and applied) a Decision.
type Ack struct {
	TxID  string
	Shard int
	From  msg.Loc
}

// RetryBody tags the coordinator's retransmission timer with the
// transaction it guards.
type RetryBody struct {
	TxID string
}

// RegisterWireTypes registers the 2PC bodies with the wire codec.
func RegisterWireTypes() {
	gobArgs()
	for _, v := range []any{Vote{}, Ack{}, RetryBody{}} {
		msg.RegisterBody(v)
	}
}

// gobArgs registers the basic types that travel inside SubTx.ApplyArgs
// and TxRequest.Args in the router journal (interface-typed fields need
// explicit registration; mirrors core's registration).
var gobArgs = sync.OnceFunc(func() {
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(int(0))
	gob.Register(true)
})

// Payload markers distinguishing 2PC records from plain transactions
// ("tx|") in a delivered batch.
const (
	prepMark = "2pp|"
	decMark  = "2pd|"
)

// EncodePrepare serializes a Prepare for use as a broadcast payload:
// the "2pp|" tag and wire format byte, then TxID, Coord, Shard,
// Participants, the request (as core.EncodeTx bytes), the Reserve map
// in key order, Apply and ApplyArgs (see package wire). An argument of
// a type the codec cannot carry is an error.
func EncodePrepare(p Prepare) ([]byte, error) {
	req, err := core.EncodeTx(p.Req)
	if err != nil {
		return nil, fmt.Errorf("shard: encode prepare: %w", err)
	}
	b := wire.Begin(make([]byte, 0, 64+len(p.TxID)+len(p.Coord)+len(req)), prepMark)
	b = wire.AppendString(b, p.TxID)
	b = wire.AppendString(b, string(p.Coord))
	b = wire.AppendInt(b, int64(p.Shard))
	b = wire.AppendUint(b, uint64(len(p.Participants)))
	for _, s := range p.Participants {
		b = wire.AppendInt(b, int64(s))
	}
	b = wire.AppendBytes(b, req)
	keys := sortedReserveKeys(p.Sub.Reserve)
	b = wire.AppendUint(b, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendInt(wire.AppendString(b, k), p.Sub.Reserve[k])
	}
	b = wire.AppendString(b, p.Sub.Apply)
	if b, err = wire.AppendArgs(b, p.Sub.ApplyArgs); err != nil {
		return nil, fmt.Errorf("shard: encode prepare: %w", err)
	}
	return b, nil
}

// DecodePrepare recognizes a Prepare payload. Like broadcast.DecodeBatch
// it is total: payloads cross the wire and the WAL, so malformed bytes
// return ok=false, never a crash.
func DecodePrepare(b []byte) (p Prepare, ok bool) {
	if len(b) < len(prepMark) || string(b[:len(prepMark)]) != prepMark {
		return Prepare{}, false
	}
	r := wire.NewReader(string(b), prepMark)
	p = Prepare{TxID: r.String(), Coord: msg.Loc(r.String()), Shard: int(r.Int())}
	if n := r.Count(1); n > 0 {
		p.Participants = make([]int, n)
		for i := range p.Participants {
			p.Participants[i] = int(r.Int())
		}
	}
	req, err := core.DecodeTx(r.Bytes())
	p.Req = req
	// Keys must arrive strictly ascending, as EncodePrepare writes them:
	// any other order would not re-encode to the same bytes.
	sorted := true
	if n := r.Count(2); n > 0 {
		p.Sub.Reserve = make(map[string]int64, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := r.String()
			sorted = sorted && (i == 0 || k > prev)
			p.Sub.Reserve[k], prev = r.Int(), k
		}
	}
	p.Sub.Apply = r.String()
	p.Sub.ApplyArgs = r.Args()
	if err != nil || !sorted || r.Done() != nil {
		return Prepare{}, false
	}
	return p, true
}

// EncodeDecision serializes a Decision for use as a broadcast payload:
// the "2pd|" tag and wire format byte, then TxID, Shard, Coord and
// Commit.
func EncodeDecision(d Decision) []byte {
	b := wire.Begin(make([]byte, 0, 24+len(d.TxID)+len(d.Coord)), decMark)
	b = wire.AppendString(b, d.TxID)
	b = wire.AppendInt(b, int64(d.Shard))
	b = wire.AppendString(b, string(d.Coord))
	return wire.AppendBool(b, d.Commit)
}

// DecodeDecision recognizes a Decision payload (total, like DecodePrepare).
func DecodeDecision(b []byte) (d Decision, ok bool) {
	if len(b) < len(decMark) || string(b[:len(decMark)]) != decMark {
		return Decision{}, false
	}
	r := wire.NewReader(string(b), decMark)
	d = Decision{TxID: r.String(), Shard: int(r.Int()), Coord: msg.Loc(r.String()), Commit: r.Bool()}
	if r.Done() != nil {
		return Decision{}, false
	}
	return d, true
}
