// Package spill is the memory-budgeted out-of-core layer for the
// persistent intermediate container (§III-C). SupMR keeps combiner
// state resident across all ingest rounds; when the intermediate set
// does not fit the job's memory budget, this package drains the
// container into key-sorted runs written through the simulated storage
// substrate — bandwidth-accounted against the same devices serving
// ingest, scheduled on the execution pool's IO lane so writes overlap
// the next map round — and later streams those runs back into the merge
// phase, so the job still finishes in a single p-way merge round.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"supmr/internal/kv"
)

// The one record format, shared by spill runs, memo entries and
// shuffle frame payloads: a run or payload is a flat sequence of
//
//	uvarint keyLen | keyLen bytes | uvarint valLen | valLen bytes
//
// written by AppendRecord and parsed by CutRecord, and nowhere else;
// Replay emits a payload's records into an emitter.

// ErrShortRecord reports a buffer that ends inside a record.
var ErrShortRecord = errors.New("spill: buffer ends inside a record")

// ErrBadRecord reports a length prefix that overflows a uvarint or
// declares more bytes than the record may span.
var ErrBadRecord = errors.New("spill: malformed record")

// AppendRecord appends one key-value record to dst.
func AppendRecord(dst, key, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	return append(dst, val...)
}

// CutRecord parses the record at the front of p into views of its key
// and value and its length n. bound, at least len(p), is how many bytes
// from p[0] on the record may span: len(p) when p is all there is, more
// when p is a window onto a longer run. Lengths are checked against
// bound first, so a corrupt prefix never forces a large buffer.
func CutRecord(p []byte, bound int64) (key, val []byte, n int, err error) {
	key, kn, err := cutField(p, bound)
	if err != nil {
		return nil, nil, 0, err
	}
	val, vn, err := cutField(p[kn:], bound-int64(kn))
	if err != nil {
		return nil, nil, 0, err
	}
	return key, val, kn + vn, nil
}

// Replay emits the records at the front of payload into emit, in
// order, keys decoded by kc and values by vc, until it has emitted limit
// records or the payload ends; it returns how many it emitted and the
// bytes after them. It is the one decoder of a record payload into an
// emitter: memo entries and shuffle frames are both replayed by it. When
// K is string and emit also implements kv.BytesEmitter[V], keys are
// handed over as views of the payload — valid only during the call —
// so a combining container's Local folds a replay without allocating a
// key string. A record the payload cuts short, or a field its codec
// refuses, is an error; the records before it have been emitted.
func Replay[K, V any](payload []byte, limit int, kc Codec[K], vc Codec[V], emit kv.Emitter[K, V]) (int, []byte, error) {
	var be kv.BytesEmitter[V]
	var zero K
	if _, ok := any(zero).(string); ok {
		be, _ = emit.(kv.BytesEmitter[V])
	}
	n := 0
	for ; n < limit && len(payload) > 0; n++ {
		kb, vb, size, err := CutRecord(payload, int64(len(payload)))
		if err != nil {
			return n, payload, fmt.Errorf("record %d: %w", n, err)
		}
		val, err := vc.Decode(vb)
		if err != nil {
			return n, payload, fmt.Errorf("record %d: value: %w", n, err)
		}
		if be != nil {
			be.EmitBytes(kb, val)
		} else {
			key, err := kc.Decode(kb)
			if err != nil {
				return n, payload, fmt.Errorf("record %d: key: %w", n, err)
			}
			emit.Emit(key, val)
		}
		payload = payload[size:]
	}
	return n, payload, nil
}

// Discard is a replay's checking sink: it takes keys in either form and
// keeps nothing, so replaying into it only verifies the records. Its
// Flush does nothing, so it also serves where a container Local is
// expected.
type Discard[K, V any] struct{}

func (Discard[K, V]) Emit(K, V)           {}
func (Discard[K, V]) EmitBytes([]byte, V) {}
func (Discard[K, V]) Flush()              {}

func cutField(p []byte, bound int64) ([]byte, int, error) {
	u, n := binary.Uvarint(p)
	if n == 0 && len(p) < binary.MaxVarintLen64 {
		return nil, 0, ErrShortRecord
	}
	// Unsigned compare: a length >= 2^63 must not wrap negative.
	if n <= 0 || u > uint64(bound-int64(n)) {
		return nil, 0, ErrBadRecord
	}
	if uint64(len(p)-n) < u {
		return nil, 0, ErrShortRecord
	}
	return p[n : n+int(u)], n + int(u), nil
}

// Codec serializes one key or value type for run files. Append encodes
// v onto dst and returns the extended slice; Decode parses exactly the
// bytes one Append produced (run framing carries the length). Decode
// must not retain p — the reader reuses its buffer between records.
type Codec[T any] struct {
	Append func(dst []byte, v T) []byte
	Decode func(p []byte) (T, error)
	// Str is the identity on strings when T is string, nil otherwise:
	// the block decoder uses it to cut string fields out of one arena
	// string per block instead of allocating each.
	Str func(string) T
}

// CodecFor resolves the codec for T from its dynamic type. The
// supported set covers every key/value type the bundled applications
// use: string, []byte, int, int64, uint64, float64. Other types return
// an error — the budget path refuses to start rather than failing at
// the first spill. The typed functions are asserted to T's function
// types once, here, so encoding and decoding a field boxes nothing.
func CodecFor[T any]() (Codec[T], error) {
	var zero T
	var app, dec, str any
	switch any(zero).(type) {
	case string:
		app = func(dst []byte, v string) []byte { return append(dst, v...) }
		dec = func(p []byte) (string, error) { return string(p), nil }
		str = func(s string) string { return s }
	case []byte:
		app = func(dst []byte, v []byte) []byte { return append(dst, v...) }
		dec = func(p []byte) ([]byte, error) { return append([]byte(nil), p...), nil }
	case int:
		app = func(dst []byte, v int) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(v)) }
		dec = func(p []byte) (int, error) { u, err := fixed64(p); return int(u), err }
	case int64:
		app = func(dst []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(v)) }
		dec = func(p []byte) (int64, error) { u, err := fixed64(p); return int64(u), err }
	case uint64:
		app = func(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
		dec = fixed64
	case float64:
		app = func(dst []byte, v float64) []byte {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		dec = func(p []byte) (float64, error) { u, err := fixed64(p); return math.Float64frombits(u), err }
	default:
		return Codec[T]{}, fmt.Errorf("spill: no codec for type %T; the memory budget supports string, []byte, int, int64, uint64 and float64 keys/values", zero)
	}
	c := Codec[T]{Append: app.(func([]byte, T) []byte), Decode: dec.(func([]byte) (T, error))}
	c.Str, _ = str.(func(string) T)
	return c, nil
}

func fixed64(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("spill: fixed-width field is %d bytes, want 8", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}
