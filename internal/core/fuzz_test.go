package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

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

// FuzzDecodeTx throws arbitrary bytes at the transaction decoder and
// round-trips generated requests. Properties: no panic; any input that
// decodes re-encodes to the same bytes (the codec is canonical); and
// decode(encode(req)) == req, with each argument's Go type kept and
// nil or empty Args decoding as nil. The committed seed corpus is in
// testdata/fuzz/FuzzDecodeTx.
func FuzzDecodeTx(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, client, typ string, n int64, x float64, s string, shape uint8) {
		if req, err := DecodeTx(data); err == nil {
			re, err := EncodeTx(req)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("decoded %+v re-encodes to %x (%v), input %x", req, re, err, data)
			}
		}
		in := TxRequest{Client: msg.Loc(client), Seq: n, Type: typ, Args: fuzzArgs(shape, n, x, s), Deadline: n / 3}
		b, err := EncodeTx(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeTx(b)
		if len(in.Args) == 0 {
			in.Args = nil
		}
		if err != nil || !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: %#v -> %#v (%v)", in, out, err)
		}
	})
}
