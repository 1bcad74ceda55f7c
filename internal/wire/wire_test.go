package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	args := []any{nil, int64(-7), int(7), math.Copysign(0, -1), "s", false, true, int64(math.MinInt64), int(math.MaxInt64)}
	b := Begin(nil, "t|")
	b = AppendUint(b, math.MaxUint64)
	b = AppendInt(b, math.MinInt64)
	b = AppendString(b, "héllo")
	b = AppendBytes(b, []byte{0, 1, 2})
	b = AppendBytes(b, nil)
	b = AppendBool(b, true)
	b, err := AppendArgs(b, args)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(string(b), "t|")
	if u := r.Uint(); u != math.MaxUint64 {
		t.Errorf("Uint = %d", u)
	}
	if i := r.Int(); i != math.MinInt64 {
		t.Errorf("Int = %d", i)
	}
	if s := r.String(); s != "héllo" {
		t.Errorf("String = %q", s)
	}
	if p := r.Bytes(); string(p) != "\x00\x01\x02" {
		t.Errorf("Bytes = %v", p)
	}
	if p := r.Bytes(); p != nil {
		t.Errorf("empty Bytes = %#v, want nil", p)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	got := r.Args()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	// DeepEqual compares interface values with their dynamic types, so
	// an int that came back as int64 fails here.
	if !reflect.DeepEqual(got, args) || !math.Signbit(got[3].(float64)) {
		t.Errorf("Args = %#v, want %#v", got, args)
	}
}

func TestFloatArgKeepsBits(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	b, err := AppendArgs(nil, []any{nan})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(string(Begin(nil, ""))+string(b), "")
	if got := r.Args(); math.Float64bits(got[0].(float64)) != 0x7ff8_0000_dead_beef || r.Done() != nil {
		t.Errorf("NaN payload lost: %#v, %v", got, r.Done())
	}
}

func TestAppendArgsUnsupportedType(t *testing.T) {
	for _, a := range []any{int32(1), uint(1), []byte("x"), struct{}{}} {
		if _, err := AppendArgs(nil, []any{a}); err == nil {
			t.Errorf("AppendArgs accepted %T", a)
		}
	}
}

// TestFormatByte checks that data of any other format — a gob stream
// in particular — fails with ErrFormat, and a payload for another tag
// is refused without being mistaken for one.
func TestFormatByte(t *testing.T) {
	for _, in := range []string{
		"tx|\x18\xff\x81\x03\x01",    // gob stream: small leading length
		"tx|\xfe\x01\x00\x00",        // gob stream: multi-byte length
		"tx|" + string([]byte{0x82}), // a later format
	} {
		r := NewReader(in, "tx|")
		if err := r.Done(); !errors.Is(err, ErrFormat) {
			t.Errorf("%q: err = %v, want ErrFormat", in, err)
		}
	}
	for _, in := range []string{"", "tx", "add|\x81", "tx|"} {
		r := NewReader(in, "tx|")
		if err := r.Done(); err == nil || errors.Is(err, ErrFormat) {
			t.Errorf("%q: err = %v", in, err)
		}
	}
}

// TestMalformedRefused covers each way a payload can fail to be in
// canonical form; all must be errors, none a panic.
func TestMalformedRefused(t *testing.T) {
	v := string([]byte{Version})
	readUint := func(r *Reader) { r.Uint() }
	readArgs := func(r *Reader) { r.Args() }
	for _, c := range []struct {
		name, in string
		read     func(*Reader)
	}{
		{"padded varint", v + "\x80\x00", readUint},
		{"varint overflow", v + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", readUint},
		{"truncated varint", v + "\x80", readUint},
		{"trailing bytes", v + "\x00\x00", readUint},
		{"long count", v + "\x05ab", func(r *Reader) { _ = r.String() }},
		{"bad bool", v + "\x02", func(r *Reader) { r.Bool() }},
		{"unknown arg tag", v + "\x01\x7f", readArgs},
		{"short float", v + "\x01\x03\x00\x00", readArgs},
	} {
		r := NewReader(c.in, "")
		c.read(&r)
		if err := r.Done(); err == nil || errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want a malformed-input error", c.name, err)
		}
	}
}
