package broadcast

import (
	"reflect"
	"testing"

	"shadowdb/internal/msg"
)

// FuzzDecodeBatch throws arbitrary bytes at the batch decoder, whose
// input is a consensus value, and round-trips generated batches.
// Properties: no panic; any input that decodes re-encodes to the same
// bytes (proposers must agree byte for byte) and BatchLen reads its
// length; and decode(encode(batch)) == batch, with nil or empty
// Payloads decoding as nil. The committed seed corpus is in
// testdata/fuzz/FuzzDecodeBatch.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, from string, seq int64, payload []byte, n uint8) {
		if batch, err := DecodeBatch(string(data)); err == nil {
			if re := EncodeBatch(batch); re != string(data) {
				t.Fatalf("decoded %d messages re-encode to %x, input %x", len(batch), re, data)
			}
			if k, err := BatchLen(string(data)); err != nil || k != len(batch) {
				t.Fatalf("BatchLen = %d, %v; decoded %d messages", k, err, len(batch))
			}
		}
		var in []Bcast
		for i := 0; i < int(n%4); i++ {
			b := Bcast{From: msg.Loc(from), Seq: seq + int64(i), Payload: payload, Deadline: seq * int64(i)}
			if i == 1 {
				b.Payload = []byte{}
			}
			if len(b.Payload) == 0 {
				b.Payload = nil
			}
			in = append(in, b)
		}
		out, err := DecodeBatch(EncodeBatch(in))
		if err != nil || !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: %#v -> %#v (%v)", in, out, err)
		}
	})
}
