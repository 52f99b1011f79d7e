package kv

import (
	"fmt"
	"io"
	"strconv"
)

// TextEncoder renders pairs as the repository's output text: one
// "key\tvalue\n" line per pair, each side exactly as fmt's %v prints
// it. That rendering is what the output digest hashes and what egress
// writes, so every renderer of pairs goes through this type.
type TextEncoder[K any, V any] struct {
	key func([]byte, K) []byte
	val func([]byte, V) []byte
}

// NewTextEncoder resolves the append functions for K and V once, so
// rendering a pair is two indirect calls with no boxing: string, int,
// int64, uint64 and float64 go through strconv; every other type falls
// back to fmt's %v, byte-identical by construction.
func NewTextEncoder[K any, V any]() TextEncoder[K, V] {
	return TextEncoder[K, V]{key: textAppender[K](), val: textAppender[V]()}
}

// AppendText appends the line for (k, v) to dst.
func (e TextEncoder[K, V]) AppendText(dst []byte, k K, v V) []byte {
	dst = append(e.key(dst, k), '\t')
	return append(e.val(dst, v), '\n')
}

// WriteText renders pairs to w through one reused buffer, handing w
// about 64 KiB at a time; w must not retain what it is handed.
func WriteText[K any, V any](w io.Writer, pairs []Pair[K, V]) error {
	const flushAt = 64 << 10
	enc := NewTextEncoder[K, V]()
	buf := make([]byte, 0, flushAt+1<<10)
	for _, p := range pairs {
		if buf = enc.AppendText(buf, p.Key, p.Val); len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// textAppender picks T's appender from its dynamic type. The typed
// closures are asserted to func([]byte, T) []byte, which succeeds
// exactly when T is the closure's own parameter type.
func textAppender[T any]() func([]byte, T) []byte {
	var f any
	switch any(*new(T)).(type) {
	case string:
		f = func(dst []byte, v string) []byte { return append(dst, v...) }
	case int:
		f = func(dst []byte, v int) []byte { return strconv.AppendInt(dst, int64(v), 10) }
	case int64:
		f = func(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }
	case uint64:
		f = func(dst []byte, v uint64) []byte { return strconv.AppendUint(dst, v, 10) }
	case float64:
		f = func(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', -1, 64) }
	}
	if typed, ok := f.(func([]byte, T) []byte); ok {
		return typed
	}
	return func(dst []byte, v T) []byte { return fmt.Appendf(dst, "%v", v) }
}
