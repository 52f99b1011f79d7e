// Package kv defines the fundamental key-value types shared by the
// MapReduce runtimes, the intermediate containers, and the merge
// algorithms. It sits at the bottom of the dependency graph so that the
// container and runtime packages can exchange values without importing
// each other.
package kv

// Pair is a single key-value pair flowing through the system: emitted by
// mappers, stored in intermediate containers, reduced, and finally merged
// into sorted output.
type Pair[K any, V any] struct {
	Key K
	Val V
}

// Emitter receives key-value pairs from a user Map function. Each map
// worker is handed its own Emitter; implementations need not be
// synchronized across workers.
type Emitter[K any, V any] interface {
	Emit(key K, val V)
}

// EmitFunc adapts a function to the Emitter interface.
type EmitFunc[K any, V any] func(key K, val V)

// Emit calls f(key, val).
func (f EmitFunc[K, V]) Emit(key K, val V) { f(key, val) }

// Grower is an optional Emitter extension for a map function that
// knows how many pairs it is about to emit: it calls Grow(n) first, as
// one calls strings.Builder's Grow, so the emitter sizes its buffer
// once instead of growing it pair by pair.
type Grower interface {
	Grow(n int)
}

// BytesEmitter is the allocation-free fast path for byte-keyed
// workloads: container locals that can consume keys as raw byte slices
// implement it alongside Emitter. The key is only valid for the
// duration of the call — it typically aliases the input split — so
// implementations must copy any bytes they retain.
type BytesEmitter[V any] interface {
	EmitBytes(key []byte, val V)
}

// BytesEmitFunc adapts a function to the BytesEmitter interface.
type BytesEmitFunc[V any] func(key []byte, val V)

// EmitBytes calls f(key, val).
func (f BytesEmitFunc[V]) EmitBytes(key []byte, val V) { f(key, val) }

// BytesApp is an optional extension of App[string, V]: applications
// whose keys are substrings of the input implement MapBytes so the map
// hot path can emit token slices directly, without materializing a
// string per emission. The runtime uses it only when the destination
// local also implements BytesEmitter; MapBytes must emit exactly the
// pairs Map would (with keys as their byte representations), so the two
// paths produce identical job output.
type BytesApp[V any] interface {
	MapBytes(split []byte, emit BytesEmitter[V])
}

// Less is a strict weak ordering over keys, used by the reduce and merge
// phases to produce globally sorted output.
type Less[K any] func(a, b K) bool

// Combine merges two values associated with the same key. It must be
// associative; the runtime applies it in arbitrary grouping order.
type Combine[V any] func(a, b V) V

// App is the user-supplied application: the analog of the map/reduce
// callbacks a Phoenix++ application registers with the runtime.
//
// Map parses one input split (raw bytes) into key-value pairs.
// Reduce coalesces all values observed for one key into the final value.
type App[K comparable, V any] interface {
	// Map transforms one input split into key-value pairs.
	Map(split []byte, emit Emitter[K, V])
	// Reduce folds the values collected for key into a single output
	// value. For combiner-backed containers vals often has length 1.
	Reduce(key K, vals []V) V
	// Less orders keys for the merge phase.
	Less(a, b K) bool
}

// Combiner is an optional extension of App. When an application
// implements it, hash and array containers fold values eagerly at
// insertion time (Phoenix++ "combiner objects"), shrinking the
// intermediate set.
type Combiner[V any] interface {
	Combine(a, b V) V
}

// FixedKeyCodec describes a fixed-width, order-preserving byte encoding
// for an app's keys: Put writes exactly Width bytes into dst such that
// lexicographic (big-endian, unsigned) byte order agrees with the app's
// Less order. Apps with such keys — 10-byte terasort records, integer
// bucket ids, and through an 8-byte order prefix the string keys of
// word count, the inverted index and grep — opt into the radix fast
// path: the single-round scatter finish (sortalgo.ScatterSort) for
// their reduce runs, and the radix run sort plus the merge tree's
// prefix heads wherever runs are still merged (drains, the external
// merge, the pairwise baseline's run sort); everything else stays on
// the comparison path.
//
// An exact codec (Prefix false) is injective for keys that compare
// unequal and gives equal bytes for keys that compare equal, so the
// radix path orders keys by their bytes alone. A prefix codec (Prefix
// true) only promises order: a < b under Less implies bytes(a) <=
// bytes(b), so two unequal keys may share their bytes, and every
// consumer orders such a tie by Less.
//
// Put returns false when the key cannot be encoded in Width bytes (for
// example a string of unexpected length); the caller then falls back to
// the comparison sort for that run (for the whole finish, when the
// scatter meets it). Byte-identical output between the two paths
// additionally requires keys to be unique within each run (true for
// post-reduce runs: containers emit one pair per key per partition),
// because the radix sort, its tie sorts included, is stable while
// SortPairs is not.
type FixedKeyCodec[K any] struct {
	// Width is the encoded key size in bytes; must be > 0.
	Width int
	// Prefix marks an order prefix rather than an exact encoding:
	// unequal keys may encode alike, and Less breaks their tie.
	Prefix bool
	// Put encodes k into dst[:Width]. len(dst) >= Width is the
	// caller's responsibility.
	Put func(dst []byte, k K) bool
}

// FixedKeyApp is the opt-in trait: apps whose keys have a fixed-width
// order-preserving encoding, exact or a prefix, return the codec here.
type FixedKeyApp[K any] interface {
	FixedKey() FixedKeyCodec[K]
}

// FixedKeyOf returns the app's fixed-key codec, or nil when the app does
// not opt in (or returns a malformed codec).
func FixedKeyOf[K comparable, V any](app App[K, V]) *FixedKeyCodec[K] {
	fa, ok := app.(FixedKeyApp[K])
	if !ok {
		return nil
	}
	c := fa.FixedKey()
	if c.Width <= 0 || c.Put == nil {
		return nil
	}
	return &c
}

// StringFixedKey encodes width-byte strings as their raw bytes. Strings
// of any other length are rejected (Put returns false), which routes the
// containing run to the comparison sort.
func StringFixedKey(width int) FixedKeyCodec[string] {
	return FixedKeyCodec[string]{
		Width: width,
		Put: func(dst []byte, k string) bool {
			if len(k) != width {
				return false
			}
			copy(dst[:width], k)
			return true
		},
	}
}

// StringPrefixKey is the order prefix of strings in byte order: up to
// their first 8 bytes, zero-padded on the right. It never declines;
// keys that agree on those bytes (or differ only by trailing NULs past
// a shorter key's end) are left to Less. 8 is the width of the merge
// tree's integer heads, so a prefix head is one compare.
func StringPrefixKey() FixedKeyCodec[string] {
	return FixedKeyCodec[string]{
		Width:  8,
		Prefix: true,
		Put: func(dst []byte, k string) bool {
			n := copy(dst[:8], k)
			clear(dst[n:8])
			return true
		},
	}
}

// IntFixedKey encodes ints as 8 big-endian bytes with the sign bit
// flipped, so unsigned byte order equals signed integer order.
func IntFixedKey() FixedKeyCodec[int] {
	return FixedKeyCodec[int]{
		Width: 8,
		Put: func(dst []byte, k int) bool {
			u := uint64(k) ^ (1 << 63)
			dst[0] = byte(u >> 56)
			dst[1] = byte(u >> 48)
			dst[2] = byte(u >> 40)
			dst[3] = byte(u >> 32)
			dst[4] = byte(u >> 24)
			dst[5] = byte(u >> 16)
			dst[6] = byte(u >> 8)
			dst[7] = byte(u)
			return true
		},
	}
}

// SortPairs sorts ps in place by key using less (pdq-free, simple
// introsort-style quicksort with insertion sort for small ranges). The
// standard library sort is interface-based; this generic version avoids
// the boxing cost on the hot merge path.
func SortPairs[K any, V any](ps []Pair[K, V], less Less[K]) {
	sortRange(ps, less, maxDepth(len(ps)))
}

func maxDepth(n int) int {
	d := 0
	for i := n; i > 0; i >>= 1 {
		d++
	}
	return d * 2
}

func sortRange[K any, V any](ps []Pair[K, V], less Less[K], depth int) {
	for len(ps) > 12 {
		if depth == 0 {
			heapSort(ps, less)
			return
		}
		depth--
		p := medianOfThree(ps, less)
		// Hoare partition around pivot value.
		pivot := ps[p]
		ps[p], ps[len(ps)-1] = ps[len(ps)-1], ps[p]
		store := 0
		for i := 0; i < len(ps)-1; i++ {
			if less(ps[i].Key, pivot.Key) {
				ps[i], ps[store] = ps[store], ps[i]
				store++
			}
		}
		ps[store], ps[len(ps)-1] = ps[len(ps)-1], ps[store]
		// Recurse on smaller side, loop on larger to bound stack.
		if store < len(ps)-store-1 {
			sortRange(ps[:store], less, depth)
			ps = ps[store+1:]
		} else {
			sortRange(ps[store+1:], less, depth)
			ps = ps[:store]
		}
	}
	insertionSort(ps, less)
}

func medianOfThree[K any, V any](ps []Pair[K, V], less Less[K]) int {
	lo, mid, hi := 0, len(ps)/2, len(ps)-1
	if less(ps[mid].Key, ps[lo].Key) {
		lo, mid = mid, lo
	}
	if less(ps[hi].Key, ps[mid].Key) {
		mid = hi
		if less(ps[mid].Key, ps[lo].Key) {
			mid = lo
		}
	}
	return mid
}

func insertionSort[K any, V any](ps []Pair[K, V], less Less[K]) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && less(ps[j].Key, ps[j-1].Key); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func heapSort[K any, V any](ps []Pair[K, V], less Less[K]) {
	n := len(ps)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(ps, i, n, less)
	}
	for i := n - 1; i > 0; i-- {
		ps[0], ps[i] = ps[i], ps[0]
		siftDown(ps, 0, i, less)
	}
}

func siftDown[K any, V any](ps []Pair[K, V], root, n int, less Less[K]) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && less(ps[child].Key, ps[child+1].Key) {
			child++
		}
		if !less(ps[root].Key, ps[child].Key) {
			return
		}
		ps[root], ps[child] = ps[child], ps[root]
		root = child
	}
}

// IsSortedPairs reports whether ps is non-decreasing under less.
func IsSortedPairs[K any, V any](ps []Pair[K, V], less Less[K]) bool {
	for i := 1; i < len(ps); i++ {
		if less(ps[i].Key, ps[i-1].Key) {
			return false
		}
	}
	return true
}
