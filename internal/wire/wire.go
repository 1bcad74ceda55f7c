// Package wire is the binary codec of the payloads ordered through the
// broadcast service: transactions, batches (the consensus values) and
// 2PC records. A payload is an optional caller tag, the format byte
// Version, then fields appended by the Append functions and read back
// in the same order by a Reader:
//
//   - integers as varints (zig-zag for signed values) in shortest form;
//   - strings and byte slices as a uvarint length, then the bytes;
//   - bools as one byte, 0 or 1;
//   - procedure arguments ([]any) as a count, then one tag byte per
//     value that keeps its Go type, then the value.
//
// Encoding is deterministic by construction: no maps reach the wire
// unsorted, because batch bytes are consensus values that every node
// must propose and journal identically. Decoding is total and
// canonical: malformed input sets the Reader's sticky error (never a
// panic), every count is bounded by the input left, and any input that
// decodes re-encodes to the same bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Version is the format byte that follows a payload's tag. It lies in
// 0x80–0xF7, where no gob stream starts (gob's leading length byte is
// below 0x80 or at least 0xF8), so data written by the earlier gob
// codec is refused as ErrFormat instead of being misread.
const Version byte = 0x81

// ErrFormat reports a payload whose format byte is not Version: data
// written by an older release, or by an unknown codec.
var ErrFormat = errors.New("wire: old or unknown payload format")

// Argument type tags. Each keeps the Go type of one []any value across
// the wire (an int stays an int, an int64 an int64).
const (
	argNil byte = iota
	argInt64
	argInt
	argFloat64
	argString
	argFalse
	argTrue
)

// Begin starts a payload: the tag, then the format byte.
func Begin(b []byte, tag string) []byte {
	return append(append(b, tag...), Version)
}

// AppendUint appends v as a uvarint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends v as a zig-zag varint.
func AppendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends s with its length.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends p with its length.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendArgs appends procedure arguments, keeping each value's Go type.
// Values other than nil, int64, int, float64, string and bool are an
// error: a procedure argument of any other type cannot be replicated.
func AppendArgs(b []byte, args []any) ([]byte, error) {
	b = AppendUint(b, uint64(len(args)))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			b = append(b, argNil)
		case int64:
			b = AppendInt(append(b, argInt64), v)
		case int:
			b = AppendInt(append(b, argInt), int64(v))
		case float64:
			b = binary.LittleEndian.AppendUint64(append(b, argFloat64), math.Float64bits(v))
		case string:
			b = AppendString(append(b, argString), v)
		case bool:
			if v {
				b = append(b, argTrue)
			} else {
				b = append(b, argFalse)
			}
		default:
			return nil, fmt.Errorf("wire: argument %d has unsupported type %T", i, a)
		}
	}
	return b, nil
}

// Reader decodes a payload field by field. The first failure sticks:
// later reads return zero values, and Done reports it.
type Reader struct {
	s   string
	off int
	err error
}

// NewReader starts reading a payload: it checks that s starts with tag
// and then the format byte. Strings read later share memory with s;
// byte slices are copies.
func NewReader(s, tag string) Reader {
	r := Reader{s: s, off: len(tag)}
	switch {
	case len(s) < len(tag) || s[:len(tag)] != tag:
		r.fail("payload does not start with %q", tag)
	case len(s) == len(tag):
		r.fail("missing format byte")
	case s[len(tag)] != Version:
		r.err = fmt.Errorf("%w: format byte 0x%02x, want 0x%02x", ErrFormat, s[len(tag)], Version)
	default:
		r.off++
	}
	return r
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: %s at byte %d", fmt.Sprintf(format, args...), r.off)
	}
}

// Uint reads a uvarint, refusing padded (non-shortest) encodings.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	var x uint64
	for i, shift := 0, uint(0); i < binary.MaxVarintLen64; i, shift = i+1, shift+7 {
		if r.off+i >= len(r.s) {
			r.fail("truncated varint")
			return 0
		}
		c := r.s[r.off+i]
		if c < 0x80 {
			if i > 0 && c == 0 {
				r.fail("padded varint")
				return 0
			}
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break
			}
			r.off += i + 1
			return x | uint64(c)<<shift
		}
		x |= uint64(c&0x7f) << shift
	}
	r.fail("varint overflows 64 bits")
	return 0
}

// Int reads a zig-zag varint.
func (r *Reader) Int() int64 {
	u := r.Uint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// Count reads an element count. Each element takes at least minSize
// bytes, so a count the remaining input cannot hold is refused before
// the caller allocates for it.
func (r *Reader) Count(minSize int) int {
	n := r.Uint()
	if n > uint64((len(r.s)-r.off)/minSize) {
		r.fail("count %d exceeds the input left", n)
		return 0
	}
	return int(n)
}

func (r *Reader) take(n int) string {
	if r.err != nil {
		return ""
	}
	if n > len(r.s)-r.off {
		r.fail("truncated field")
		return ""
	}
	s := r.s[r.off : r.off+n]
	r.off += n
	return s
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return r.take(r.Count(1)) }

// Bytes reads a length-prefixed byte slice into a fresh copy (nil when
// empty).
func (r *Reader) Bytes() []byte {
	if s := r.take(r.Count(1)); s != "" {
		return []byte(s)
	}
	return nil
}

// Bool reads one byte, which must be 0 or 1.
func (r *Reader) Bool() bool {
	c := r.byte()
	if c > 1 {
		r.fail("bad bool 0x%02x", c)
	}
	return c == 1
}

// byte reads one byte (0 once the reader has failed).
func (r *Reader) byte() byte {
	if s := r.take(1); s != "" {
		return s[0]
	}
	return 0
}

// Args reads procedure arguments written by AppendArgs (nil when there
// are none).
func (r *Reader) Args() []any {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	args := make([]any, n)
	for i := range args {
		switch tag := r.byte(); tag {
		case argNil:
		case argInt64:
			args[i] = r.Int()
		case argInt:
			v := r.Int()
			if int64(int(v)) != v {
				r.fail("int argument overflows int")
			}
			args[i] = int(v)
		case argFloat64:
			var u uint64
			f := r.take(8)
			for j := 0; j < len(f); j++ {
				u |= uint64(f[j]) << (8 * j)
			}
			args[i] = math.Float64frombits(u)
		case argString:
			args[i] = r.String()
		case argFalse:
			args[i] = false
		case argTrue:
			args[i] = true
		default:
			r.fail("unknown argument tag 0x%02x", tag)
		}
	}
	if r.err != nil {
		return nil
	}
	return args
}

// Err returns the sticky error, for a caller that reads only a prefix.
func (r *Reader) Err() error { return r.err }

// Done ends decoding: it returns the sticky error, or an error if input
// is left over (the payload is not in canonical form).
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.s) {
		r.fail("%d trailing bytes", len(r.s)-r.off)
	}
	return r.err
}
