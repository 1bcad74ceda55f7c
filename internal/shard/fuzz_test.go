package shard

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"shadowdb/internal/core"
	"shadowdb/internal/msg"
)

// fuzzArgs builds procedure arguments of every codec type from fuzzed
// values; shape also selects nil and empty argument lists.
func fuzzArgs(shape uint8, n int64, x float64, s string) []any {
	if math.IsNaN(x) {
		x = 0 // NaN != NaN under DeepEqual; wire tests pin its bits
	}
	switch shape % 4 {
	case 0:
		return nil
	case 1:
		return []any{}
	case 2:
		return []any{int(n), n}
	}
	return []any{int(n), n, x, s, shape&4 != 0, nil}
}

// FuzzDecodePrepare throws arbitrary bytes at the Prepare decoder and
// round-trips generated Prepares. Properties: no panic; any input that
// decodes re-encodes to the same bytes (so a Reserve map must arrive in
// key order); and decode(encode(p)) == p, with each argument's Go type
// kept and nil or empty lists and maps decoding as nil. The committed
// seed corpus is in testdata/fuzz/FuzzDecodePrepare.
func FuzzDecodePrepare(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, id, key string, n int64, x float64, s string, shape uint8) {
		if p, ok := DecodePrepare(data); ok {
			re, err := EncodePrepare(p)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("decoded %+v re-encodes to %x (%v), input %x", p, re, err, data)
			}
		}
		in := Prepare{
			TxID: id, Coord: msg.Loc(key), Shard: int(n), Participants: []int{int(n), 1},
			Req: core.TxRequest{Client: msg.Loc(id), Seq: n, Type: s, Args: fuzzArgs(shape, n, x, s)},
			Sub: SubTx{Reserve: map[string]int64{key: n, key + "~": -n}, Apply: s, ApplyArgs: fuzzArgs(shape>>3, n, x, key)},
		}
		if shape&64 != 0 {
			in.Participants, in.Sub.Reserve = nil, nil
		}
		b, err := EncodePrepare(in)
		if err != nil {
			t.Fatal(err)
		}
		out, ok := DecodePrepare(b)
		if len(in.Req.Args) == 0 {
			in.Req.Args = nil
		}
		if len(in.Sub.ApplyArgs) == 0 {
			in.Sub.ApplyArgs = nil
		}
		if !ok || !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: %#v -> %#v (ok=%v)", in, out, ok)
		}
	})
}

// FuzzDecodeDecision throws arbitrary bytes at the Decision decoder and
// round-trips generated Decisions, with the same properties as
// FuzzDecodePrepare. The committed seed corpus is in
// testdata/fuzz/FuzzDecodeDecision.
func FuzzDecodeDecision(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, id, coord string, shard int, commit bool) {
		if d, ok := DecodeDecision(data); ok {
			if re := EncodeDecision(d); !bytes.Equal(re, data) {
				t.Fatalf("decoded %+v re-encodes to %x, input %x", d, re, data)
			}
		}
		in := Decision{TxID: id, Shard: shard, Coord: msg.Loc(coord), Commit: commit}
		if out, ok := DecodeDecision(EncodeDecision(in)); !ok || out != in {
			t.Fatalf("round trip: %+v -> %+v (ok=%v)", in, out, ok)
		}
	})
}
