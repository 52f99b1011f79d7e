package apps

import (
	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/kv"
)

// The two rounds of the MapReduce prefix-sum algorithm (Goodrich et
// al.'s simulation catalog): round 1 (PrefixPart) folds the input's
// self-indexed records into per-block partial sums; round 2
// (PrefixTotal) re-emits each block sum to every block at or after it,
// so the combiner accumulates prefix[b'] = Σ_{b ≤ b'} S_b. Both rounds
// are order-independent sums, so the result is insensitive to
// chunking, lane count and node routing — and round 2 consumes round
// 1's egressed "block\tsum" lines directly, which is what makes the
// pair the canonical 2-round DAG example (internal/dag).

// PrefixPart is round 1: block partial sums over 16-byte self-indexed
// records "iiiiiii vvvvvvv\n" (workload.SeqGen).
type PrefixPart struct {
	// Block is the number of records per block (must be positive).
	Block int64
}

var _ kv.App[int, int64] = PrefixPart{}
var _ kv.Combiner[int64] = PrefixPart{}

// Map parses each record and emits (index/Block, value).
func (a PrefixPart) Map(split []byte, emit kv.Emitter[int, int64]) {
	block := a.Block
	if block <= 0 {
		block = 1
	}
	forEachLine(split, func(line []byte) {
		// "iiiiiii vvvvvvv": index and value, 7 digits each.
		if len(line) != 15 || line[7] != ' ' {
			return
		}
		idx, ok := parseDigits(line[:7])
		if !ok {
			return
		}
		val, ok := parseDigits(line[8:])
		if !ok {
			return
		}
		emit.Emit(int(idx/block), val)
	})
}

// Reduce sums the block's partial values.
func (PrefixPart) Reduce(_ int, vs []int64) int64 { return sumInt64(vs) }

// Combine folds partial block sums.
func (PrefixPart) Combine(a, b int64) int64 { return a + b }

// Less orders block ids numerically.
func (PrefixPart) Less(a, b int) bool { return a < b }

// FixedKey opts block ids into the fixed-key sort fast path (scatter
// finish, radix run sort, prefix-head merge).
func (PrefixPart) FixedKey() kv.FixedKeyCodec[int] { return kv.IntFixedKey() }

// Boundary: records are newline-terminated (and fixed-width).
func (PrefixPart) Boundary() chunk.Boundary { return chunk.NewlineBoundary{} }

// NewContainer returns a combining hash container over block ids.
func (a PrefixPart) NewContainer(shards int) container.Container[int, int64] {
	return container.NewHash[int, int64](shards, container.IntHasher, a.Combine)
}

// PrefixTotal is round 2: each "block\tsum" line of round 1's egressed
// output re-emits its sum to every block at or after it; the combiner
// accumulates the running prefix totals.
type PrefixTotal struct {
	// Blocks is the total block count of the round-1 output (must be
	// positive): the emission upper bound.
	Blocks int64
}

var _ kv.App[int, int64] = PrefixTotal{}
var _ kv.Combiner[int64] = PrefixTotal{}

// Map parses "block\tsum" lines and emits (b', sum) for every
// b' ∈ [block, Blocks).
func (a PrefixTotal) Map(split []byte, emit kv.Emitter[int, int64]) {
	forEachLine(split, func(line []byte) {
		tab := -1
		for i, c := range line {
			if c == '\t' {
				tab = i
				break
			}
		}
		if tab <= 0 {
			return
		}
		b, ok := parseDigits(line[:tab])
		if !ok || b >= a.Blocks {
			return
		}
		s, ok := parseDigits(line[tab+1:])
		if !ok {
			return
		}
		for dst := b; dst < a.Blocks; dst++ {
			emit.Emit(int(dst), s)
		}
	})
}

// Reduce sums the contributions reaching one block.
func (PrefixTotal) Reduce(_ int, vs []int64) int64 { return sumInt64(vs) }

// Combine folds partial prefix totals.
func (PrefixTotal) Combine(a, b int64) int64 { return a + b }

// Less orders block ids numerically.
func (PrefixTotal) Less(a, b int) bool { return a < b }

// FixedKey opts block ids into the fixed-key sort fast path (scatter
// finish, radix run sort, prefix-head merge).
func (PrefixTotal) FixedKey() kv.FixedKeyCodec[int] { return kv.IntFixedKey() }

// Boundary: round-1 output lines are newline-terminated.
func (PrefixTotal) Boundary() chunk.Boundary { return chunk.NewlineBoundary{} }

// NewContainer returns a combining hash container over block ids.
func (a PrefixTotal) NewContainer(shards int) container.Container[int, int64] {
	return container.NewHash[int, int64](shards, container.IntHasher, a.Combine)
}

// forEachLine calls fn for every newline-terminated line (and an
// unterminated tail, if any).
func forEachLine(buf []byte, fn func(line []byte)) {
	start := 0
	for i, c := range buf {
		if c == '\n' {
			fn(buf[start:i])
			start = i + 1
		}
	}
	if start < len(buf) {
		fn(buf[start:])
	}
}

// parseDigits parses a non-negative decimal integer; leading zeros are
// fine, anything non-digit (or empty input) is not.
func parseDigits(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

func sumInt64(vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}
