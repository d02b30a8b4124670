// Package codec serializes vertex values for the wire.
//
// DPX10 limits framework-managed state to a single value per vertex
// (paper §V), so all cross-place traffic reduces to encoding values of
// one user-chosen type T. A Codec[T] performs that encoding. For returns a
// run's codec when the caller names none: a fixed-width codec for the
// scalar DP value types, Gob for every other type. Apps with hot custom
// types implement the two methods directly (as the SWLAG app does).
package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
)

// Codec converts values of T to and from bytes. Encode appends to dst and
// returns the extended slice; Decode reads one value from the front of src
// and returns it with the number of bytes consumed. Implementations must
// be safe for concurrent use.
type Codec[T any] interface {
	Encode(dst []byte, v T) []byte
	Decode(src []byte) (v T, n int, err error)
}

// ErrShortBuffer reports a truncated encoding.
var ErrShortBuffer = fmt.Errorf("codec: short buffer")

// Int32 encodes int32 values in 4 little-endian bytes.
type Int32 struct{}

func (Int32) Encode(dst []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

func (Int32) Decode(src []byte) (int32, int, error) {
	if len(src) < 4 {
		return 0, 0, ErrShortBuffer
	}
	return int32(binary.LittleEndian.Uint32(src)), 4, nil
}

// Int64 encodes int64 values in 8 little-endian bytes.
type Int64 struct{}

func (Int64) Encode(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func (Int64) Decode(src []byte) (int64, int, error) {
	if len(src) < 8 {
		return 0, 0, ErrShortBuffer
	}
	return int64(binary.LittleEndian.Uint64(src)), 8, nil
}

// Float64 encodes float64 values in 8 little-endian bytes (IEEE-754 bits).
type Float64 struct{}

func (Float64) Encode(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func (Float64) Decode(src []byte) (float64, int, error) {
	if len(src) < 8 {
		return 0, 0, ErrShortBuffer
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(src)), 8, nil
}

// Gob is the catch-all codec for arbitrary value types. Each value is
// encoded as a length-prefixed standalone gob stream, so it is
// self-delimiting but carries per-value type headers; prefer a fixed-width
// codec for hot paths.
type Gob[T any] struct{}

func (Gob[T]) Encode(dst []byte, v T) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		// Encoding a concrete value type only fails for unsupported kinds
		// (funcs, channels), which is a programming error.
		panic(fmt.Sprintf("codec: gob encode: %v", err))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(buf.Len()))
	return append(dst, buf.Bytes()...)
}

func (Gob[T]) Decode(src []byte) (T, int, error) {
	var v T
	if len(src) < 4 {
		return v, 0, ErrShortBuffer
	}
	n := int(binary.LittleEndian.Uint32(src))
	if len(src) < 4+n {
		return v, 0, ErrShortBuffer
	}
	if err := gob.NewDecoder(bytes.NewReader(src[4 : 4+n])).Decode(&v); err != nil {
		return v, 0, fmt.Errorf("codec: gob decode: %w", err)
	}
	return v, 4 + n, nil
}

// For returns the codec a run uses when none is given: Int32, Int64 or
// Float64 when T is exactly int32, int64 or float64, and Gob[T] otherwise.
// A named type such as `type score int32` is not one of the three, so it
// falls to Gob; supply a codec for it when its values are hot.
func For[T any]() Codec[T] {
	var c any
	switch any(*new(T)).(type) {
	case int32:
		c = Int32{}
	case int64:
		c = Int64{}
	case float64:
		c = Float64{}
	default:
		return Gob[T]{}
	}
	return c.(Codec[T])
}

// Size estimates the encoded width of one value by encoding a zero value:
// a run's one value width, read by the MinComm cost model, fetch-reply
// sizing and the snapshot baseline. Fixed-width codecs report their exact
// width; Gob reports a baseline, an approximation.
func Size[T any](c Codec[T]) int {
	var zero T
	return len(c.Encode(nil, zero))
}
