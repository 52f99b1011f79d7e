package container

import (
	"fmt"
	"sync"
	"sync/atomic"

	"supmr/internal/kv"
)

// Hash is the default Phoenix++ container: keys hash to shards of a
// concurrent map. With a combiner, each map worker folds values into a
// thread-local map first and Flush merges the (already tiny) local map
// into the global shards — this is what makes word count's 155 GB input
// collapse into a vocabulary-sized intermediate set.
//
// Without a combiner, all values per key are retained, which is exactly
// the pathology §V-B describes for sort-like workloads: mappers must
// check the container for the key before insertion and reducers sweep
// cells of unique keys. The key-range container exists for those.
type Hash[K comparable, V any] struct {
	shards  []hashShard[K, V]
	hasher  Hasher[K]
	combine kv.Combine[V] // nil = retain all values

	// Byte accounting for SizeBytes, maintained incrementally at Flush
	// so the budget check between ingest rounds is O(1).
	bytes atomic.Int64
	dynK  func(K) int64 // nil when K carries no heap bytes
	dynV  func(V) int64
}

type hashShard[K comparable, V any] struct {
	mu   sync.Mutex
	vals map[K]V   // used when combining
	list map[K][]V // used when retaining
	_    [32]byte  // pad to reduce false sharing between shards
}

// NewHash builds a hash container with the given shard count (rounded up
// to a power of two), key hasher and optional combiner. A nil combine
// retains every emitted value per key.
func NewHash[K comparable, V any](shards int, hasher Hasher[K], combine kv.Combine[V]) *Hash[K, V] {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if hasher == nil {
		panic("container: NewHash requires a hasher")
	}
	h := &Hash[K, V]{
		shards:  make([]hashShard[K, V], n),
		hasher:  hasher,
		combine: combine,
		dynK:    dynSizer[K](),
		dynV:    dynSizer[V](),
	}
	h.Reset()
	return h
}

// Reset reinitializes every shard. The old shard maps are replaced with
// freshly allocated empty maps rather than cleared in place: Go maps
// never shrink their bucket arrays, so clearing a map that held a huge
// round's vocabulary would pin that memory for the rest of the job. The
// spill layer relies on Reset actually returning the drained bytes.
func (h *Hash[K, V]) Reset() {
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		if h.combine != nil {
			s.vals = make(map[K]V)
			s.list = nil
		} else {
			s.list = make(map[K][]V)
			s.vals = nil
		}
		s.mu.Unlock()
	}
	h.bytes.Store(0)
}

// New returns an empty hash container with the receiver's shard count,
// hasher and combiner.
func (h *Hash[K, V]) New() Container[K, V] {
	return NewHash[K, V](len(h.shards), h.hasher, h.combine)
}

// SizeBytes returns the approximate resident bytes of the shard maps.
func (h *Hash[K, V]) SizeBytes() int64 { return h.bytes.Load() }

// combinedEntryBytes is the per-key cost of a combining shard map entry.
func (h *Hash[K, V]) combinedEntryBytes() int64 {
	return mapEntryOverhead + shallowSize[K]() + shallowSize[V]()
}

// listEntryBytes is the per-key cost of a retaining shard map entry,
// excluding the values themselves.
func (h *Hash[K, V]) listEntryBytes() int64 {
	return mapEntryOverhead + shallowSize[K]() + sliceHeaderBytes
}

// Partitions returns the shard count; each shard is one reduce partition.
func (h *Hash[K, V]) Partitions() int { return len(h.shards) }

// Len counts distinct keys across shards.
func (h *Hash[K, V]) Len() int {
	total := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		if h.combine != nil {
			total += len(s.vals)
		} else {
			total += len(s.list)
		}
		s.mu.Unlock()
	}
	return total
}

// PartitionLen reports the distinct keys currently in partition p, so
// the reduce phase can presize its output buffer.
func (h *Hash[K, V]) PartitionLen(p int) int {
	s := &h.shards[p]
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.combine != nil {
		return len(s.vals)
	}
	return len(s.list)
}

// NewRunLocal is NewLocal: a run's pairs take the map path.
func (h *Hash[K, V]) NewRunLocal() Local[K, V] { return h.NewLocal() }

// NewLocal returns a thread-local combiner map for one map worker.
func (h *Hash[K, V]) NewLocal() Local[K, V] {
	if h.combine != nil {
		return &hashLocalCombine[K, V]{parent: h, vals: make(map[K]V)}
	}
	return &hashLocalList[K, V]{parent: h, list: make(map[K][]V)}
}

type hashLocalCombine[K comparable, V any] struct {
	parent *Hash[K, V]
	vals   map[K]V
}

// Emit folds val into the worker-local map.
func (l *hashLocalCombine[K, V]) Emit(key K, val V) {
	if old, ok := l.vals[key]; ok {
		l.vals[key] = l.parent.combine(old, val)
	} else {
		l.vals[key] = val
	}
}

// Flush merges the local map into the global shards, batched per shard:
// entries are grouped by destination shard first (one pass over the
// local map plus a counting sort), then each shard's whole batch merges
// under a single lock acquisition instead of one lock round-trip per
// key.
func (l *hashLocalCombine[K, V]) Flush() {
	p := l.parent
	n := len(l.vals)
	if n == 0 {
		l.vals = nil
		return
	}
	nsh := len(p.shards)
	mask := uint64(nsh - 1)
	ents := make([]kv.Pair[K, V], 0, n)
	shardOf := make([]uint32, 0, n)
	starts := make([]int, nsh+1)
	for k, v := range l.vals {
		s := uint32(p.hasher(k) & mask)
		ents = append(ents, kv.Pair[K, V]{Key: k, Val: v})
		shardOf = append(shardOf, s)
		starts[s+1]++
	}
	for s := 1; s <= nsh; s++ {
		starts[s] += starts[s-1]
	}
	order := make([]int32, n)
	fill := append([]int(nil), starts[:nsh]...)
	for i, s := range shardOf {
		order[fill[s]] = int32(i)
		fill[s]++
	}

	entry := p.combinedEntryBytes()
	var added int64
	for s := 0; s < nsh; s++ {
		lo, hi := starts[s], starts[s+1]
		if lo == hi {
			continue
		}
		sh := &p.shards[s]
		sh.mu.Lock()
		for _, i := range order[lo:hi] {
			k, v := ents[i].Key, ents[i].Val
			if old, ok := sh.vals[k]; ok {
				merged := p.combine(old, v)
				sh.vals[k] = merged
				if p.dynV != nil {
					added += p.dynV(merged) - p.dynV(old)
				}
			} else {
				sh.vals[k] = v
				added += entry + dynOf(p.dynK, k) + dynOf(p.dynV, v)
			}
		}
		sh.mu.Unlock()
	}
	p.bytes.Add(added)
	l.vals = nil
}

type hashLocalList[K comparable, V any] struct {
	parent *Hash[K, V]
	list   map[K][]V
}

// Emit appends val to the local value list for key.
func (l *hashLocalList[K, V]) Emit(key K, val V) {
	l.list[key] = append(l.list[key], val)
}

// Flush appends local value lists into the global shards, batched per
// shard: one lock acquisition per destination shard rather than per
// key, with the slice-growth byte charge computed once per batch
// outside the lock (only the new-key check needs shard state).
func (l *hashLocalList[K, V]) Flush() {
	p := l.parent
	n := len(l.list)
	if n == 0 {
		l.list = nil
		return
	}
	nsh := len(p.shards)
	mask := uint64(nsh - 1)
	type listEnt struct {
		k  K
		vs []V
	}
	ents := make([]listEnt, 0, n)
	shardOf := make([]uint32, 0, n)
	starts := make([]int, nsh+1)
	// One pass over the local map: shard routing plus the batch's value
	// byte charge, which does not depend on global state.
	valSize := shallowSize[V]()
	var added int64
	for k, vs := range l.list {
		s := uint32(p.hasher(k) & mask)
		ents = append(ents, listEnt{k: k, vs: vs})
		shardOf = append(shardOf, s)
		starts[s+1]++
		added += int64(len(vs)) * valSize
		if p.dynV != nil {
			for _, v := range vs {
				added += p.dynV(v)
			}
		}
	}
	for s := 1; s <= nsh; s++ {
		starts[s] += starts[s-1]
	}
	order := make([]int32, n)
	fill := append([]int(nil), starts[:nsh]...)
	for i, s := range shardOf {
		order[fill[s]] = int32(i)
		fill[s]++
	}

	entry := p.listEntryBytes()
	for s := 0; s < nsh; s++ {
		lo, hi := starts[s], starts[s+1]
		if lo == hi {
			continue
		}
		sh := &p.shards[s]
		sh.mu.Lock()
		for _, i := range order[lo:hi] {
			k := ents[i].k
			if _, ok := sh.list[k]; !ok {
				added += entry + dynOf(p.dynK, k)
			}
			sh.list[k] = append(sh.list[k], ents[i].vs...)
		}
		sh.mu.Unlock()
	}
	p.bytes.Add(added)
	l.list = nil
}

// Reduce applies reduce over every key in shard p.
func (h *Hash[K, V]) Reduce(p int, reduce func(k K, vs []V) V, out []kv.Pair[K, V]) []kv.Pair[K, V] {
	if p < 0 || p >= len(h.shards) {
		panic(fmt.Sprintf("container: hash partition %d out of range [0,%d)", p, len(h.shards)))
	}
	s := &h.shards[p]
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.combine != nil {
		var one [1]V
		for k, v := range s.vals {
			one[0] = v
			out = append(out, kv.Pair[K, V]{Key: k, Val: reduce(k, one[:])})
		}
		return out
	}
	for k, vs := range s.list {
		out = append(out, kv.Pair[K, V]{Key: k, Val: reduce(k, vs)})
	}
	return out
}
