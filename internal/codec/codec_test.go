package codec

import (
	"errors"
	"testing"
	"testing/quick"
)

func roundTrip[T comparable](t *testing.T, c Codec[T], v T) {
	t.Helper()
	b := c.Encode(nil, v)
	got, n, err := c.Decode(b)
	if err != nil {
		t.Fatalf("Decode(%v): %v", v, err)
	}
	if n != len(b) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(b))
	}
	if got != v {
		t.Fatalf("round trip: got %v, want %v", got, v)
	}
}

func TestInt32RoundTrip(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 1 << 30, -(1 << 30)} {
		roundTrip[int32](t, Int32{}, v)
	}
	if err := quick.Check(func(v int32) bool {
		b := Int32{}.Encode(nil, v)
		got, _, err := Int32{}.Decode(b)
		return err == nil && got == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64RoundTrip(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		b := Int64{}.Encode(nil, v)
		got, _, err := Int64{}.Decode(b)
		return err == nil && got == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	if err := quick.Check(func(v float64) bool {
		b := Float64{}.Encode(nil, v)
		got, _, err := Float64{}.Decode(b)
		return err == nil && got == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

type swCell struct {
	M, E, F int32
}

func TestGobStructRoundTrip(t *testing.T) {
	c := Gob[swCell]{}
	roundTrip[swCell](t, c, swCell{M: 1, E: -2, F: 7})
	roundTrip[swCell](t, c, swCell{})
}

func TestGobConsecutiveValues(t *testing.T) {
	// Multiple values packed into one buffer decode in sequence — the
	// layout used by batched fetch replies.
	c := Gob[swCell]{}
	var buf []byte
	want := []swCell{{1, 2, 3}, {4, 5, 6}, {-7, 8, -9}}
	for _, v := range want {
		buf = c.Encode(buf, v)
	}
	for _, w := range want {
		got, n, err := c.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("got %v, want %v", got, w)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, _, err := (Int32{}).Decode([]byte{1, 2}); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
	if _, _, err := (Gob[swCell]{}).Decode([]byte{9, 0, 0, 0, 1}); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("gob err = %v, want ErrShortBuffer", err)
	}
}

func TestAppendSemantics(t *testing.T) {
	prefix := []byte{0xAA}
	b := Int32{}.Encode(prefix, 5)
	if b[0] != 0xAA || len(b) != 5 {
		t.Fatalf("Encode must append: got % x", b)
	}
}

func TestSize(t *testing.T) {
	if got := Size[int32](Int32{}); got != 4 {
		t.Fatalf("Size(Int32) = %d", got)
	}
	if got := Size[int64](Int64{}); got != 8 {
		t.Fatalf("Size(Int64) = %d", got)
	}
	if got := Size[swCell](Gob[swCell]{}); got <= 0 {
		t.Fatalf("Size(Gob) = %d", got)
	}
}

type score int32

// TestFor pins the codec a run picks from T when it names none: the three
// scalar types get their fixed-width codecs, every other type gob — a named
// scalar type included.
func TestFor(t *testing.T) {
	for _, tc := range []struct {
		t              string
		got, want      any
		size, wantSize int // the pick's Size; wantSize 0 for gob, whose size need only be positive
	}{
		{"int32", For[int32](), Int32{}, Size(For[int32]()), 4},
		{"int64", For[int64](), Int64{}, Size(For[int64]()), 8},
		{"float64", For[float64](), Float64{}, Size(For[float64]()), 8},
		{"score", For[score](), Gob[score]{}, Size(For[score]()), 0},
		{"swCell", For[swCell](), Gob[swCell]{}, Size(For[swCell]()), 0},
	} {
		if tc.got != tc.want {
			t.Errorf("For[%s] = %T, want %T", tc.t, tc.got, tc.want)
		}
		if tc.size <= 0 || tc.wantSize > 0 && tc.size != tc.wantSize {
			t.Errorf("Size(For[%s]) = %d, want %d", tc.t, tc.size, tc.wantSize)
		}
	}
}
