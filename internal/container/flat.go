package container

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"

	"supmr/internal/kv"
)

// FlatHash is the allocation-free combining container for byte-keyed
// workloads (word-count-like apps). It keeps the hash container's
// global shape — keys hash to locked shards — but replaces both tiers
// of map[string]V with structures built for the map hot path:
//
//   - The worker-local combiner is an open-addressing flat table: an
//     index of slots probing into a dense entry array (hash +
//     key-offset/length into an append-only byte arena) with values in
//     a parallel dense array. Emitting an existing key touches one
//     cache line of index plus the entry; emitting a new key appends
//     bytes to the arena — no per-key string allocation, ever.
//   - Locals are pooled on the container and their table, arena and
//     scratch are retained (reset, not freed) across flushes — the
//     paper's persistent-container idea (§III-C) applied to the
//     worker-local tier. Steady-state ingest rounds run the entire
//     tokenize→combine→flush loop with zero combiner allocation.
//   - Flush groups local entries by destination shard (counting sort on
//     reused scratch) and locks each shard exactly once per flush.
//     Global keys live in a per-shard intern table (map[string]int into
//     a dense value array): the byte key is looked up allocation-free,
//     and a string is materialized only the first time a key enters the
//     global state.
//
// FlatHash requires a combiner; value-retaining workloads stay on the
// generic Hash container. Shard selection matches Hash with
// StringHasher, so the two containers partition identically and the
// -flatcombiner ablation compares like with like.
type FlatHash[V any] struct {
	shards  []flatShard[V]
	combine kv.Combine[V]

	// Byte accounting for SizeBytes, maintained incrementally at Flush
	// so the budget check between ingest rounds is O(1). Pooled locals
	// are worker-local accumulators and not counted, per the Container
	// contract.
	bytes atomic.Int64
	dynV  func(V) int64

	poolMu sync.Mutex
	pool   []*flatLocal[V]
}

type flatShard[V any] struct {
	mu   sync.Mutex
	idx  map[string]int // interned key -> index into vals
	vals []V
	_    [32]byte // pad to reduce false sharing between shards
}

// NewFlatHash builds a flat combining container with the given shard
// count (rounded up to a power of two). combine is required: every key
// holds exactly one folded value.
func NewFlatHash[V any](shards int, combine kv.Combine[V]) *FlatHash[V] {
	if combine == nil {
		panic("container: NewFlatHash requires a combiner")
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	f := &FlatHash[V]{
		shards:  make([]flatShard[V], n),
		combine: combine,
		dynV:    dynSizer[V](),
	}
	f.Reset()
	return f
}

// Reset reinitializes every shard with fresh maps and value arrays so
// the drained memory is actually released (the spill layer relies on
// this). Pooled locals keep their tables and arenas: they are the
// persistent worker-local tier and are reused by the next round.
func (f *FlatHash[V]) Reset() {
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		s.idx = make(map[string]int)
		s.vals = nil
		s.mu.Unlock()
	}
	f.bytes.Store(0)
}

// New returns an empty flat container with the receiver's shard count
// and combiner, and a local pool of its own.
func (f *FlatHash[V]) New() Container[string, V] {
	return NewFlatHash[V](len(f.shards), f.combine)
}

// SizeBytes returns the approximate resident bytes of the shard state.
func (f *FlatHash[V]) SizeBytes() int64 { return f.bytes.Load() }

// entryBytes is the per-key cost of a global shard entry beyond the key
// bytes: the intern map entry (string header + value index) plus the
// dense value slot.
func (f *FlatHash[V]) entryBytes() int64 {
	return mapEntryOverhead + shallowSize[string]() + shallowSize[int]() + shallowSize[V]()
}

// Partitions returns the shard count; each shard is one reduce partition.
func (f *FlatHash[V]) Partitions() int { return len(f.shards) }

// Len counts distinct keys across shards.
func (f *FlatHash[V]) Len() int {
	total := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		total += len(s.idx)
		s.mu.Unlock()
	}
	return total
}

// PartitionLen reports the distinct keys currently in partition p, so
// the reduce phase can presize its output buffer.
func (f *FlatHash[V]) PartitionLen(p int) int {
	s := &f.shards[p]
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// NewLocal returns a worker-local flat combiner, reusing a pooled one
// (table, arena and scratch intact) when a previous task flushed it.
func (f *FlatHash[V]) NewLocal() Local[string, V] {
	f.poolMu.Lock()
	if n := len(f.pool); n > 0 {
		l := f.pool[n-1]
		f.pool[n-1] = nil
		f.pool = f.pool[:n-1]
		f.poolMu.Unlock()
		return l
	}
	f.poolMu.Unlock()
	return &flatLocal[V]{
		parent: f,
		table:  newFlatTable(flatInitialSlots),
		mask:   flatInitialSlots - 1,
	}
}

func (f *FlatHash[V]) putLocal(l *flatLocal[V]) {
	f.poolMu.Lock()
	f.pool = append(f.pool, l)
	f.poolMu.Unlock()
}

// Reduce applies reduce over every key in shard p.
func (f *FlatHash[V]) Reduce(p int, reduce func(k string, vs []V) V, out []kv.Pair[string, V]) []kv.Pair[string, V] {
	if p < 0 || p >= len(f.shards) {
		panic(fmt.Sprintf("container: flat partition %d out of range [0,%d)", p, len(f.shards)))
	}
	s := &f.shards[p]
	s.mu.Lock()
	defer s.mu.Unlock()
	var one [1]V
	for k, i := range s.idx {
		one[0] = s.vals[i]
		out = append(out, kv.Pair[string, V]{Key: k, Val: reduce(k, one[:])})
	}
	return out
}

// flatInitialSlots is the starting index size of a local table; it
// doubles at 75% load. Must be a power of two.
const flatInitialSlots = 512

// flatEntry locates one local key: its full hash (kept for rehash and
// shard routing) and the key bytes inside the local arena. The uint32
// offsets cap a single local's arena at 4 GiB per round — far beyond
// any split's worth of distinct keys.
type flatEntry struct {
	hash uint64
	koff uint32
	klen uint32
}

// flatLocal is the per-worker open-addressing combiner. All storage is
// retained across flushes via the parent's local pool.
type flatLocal[V any] struct {
	parent  *FlatHash[V]
	table   []int32 // open-addressing index into entries; -1 = empty
	mask    uint64
	entries []flatEntry
	vals    []V     // parallel to entries
	arena   []byte  // append-only key bytes
	starts  []int   // flush scratch: per-shard batch offsets
	fill    []int   // flush scratch: per-shard write cursors
	order   []int32 // flush scratch: entry indexes grouped by shard
}

var _ kv.BytesEmitter[int64] = (*flatLocal[int64])(nil)

func newFlatTable(slots int) []int32 {
	t := make([]int32, slots)
	for i := range t {
		t[i] = -1
	}
	return t
}

// Emit folds val into the local table under a string key.
func (l *flatLocal[V]) Emit(key string, val V) { l.emit(key, val) }

// EmitBytes is the hot-path entry point: key may alias the input split
// and is copied into the arena only on first local occurrence.
func (l *flatLocal[V]) EmitBytes(key []byte, val V) {
	// Alias the bytes as a string for the shared probe path. The alias
	// never outlives this call: comparisons read it and insertion copies
	// it into the arena.
	var s string
	if len(key) > 0 {
		s = unsafe.String(&key[0], len(key))
	}
	l.emit(s, val)
}

func (l *flatLocal[V]) emit(key string, val V) {
	h := maphash.String(stringSeed, key)
	i := h & l.mask
	for {
		ei := l.table[i]
		if ei < 0 {
			break
		}
		e := &l.entries[ei]
		// string(arena-slice) == key compiles to an allocation-free
		// comparison.
		if e.hash == h && string(l.arena[e.koff:e.koff+e.klen]) == key {
			l.vals[ei] = l.parent.combine(l.vals[ei], val)
			return
		}
		i = (i + 1) & l.mask
	}
	// New local key. Grow first when at the load limit, then claim the
	// (possibly relocated) empty slot.
	if (len(l.entries)+1)*4 > len(l.table)*3 {
		l.grow()
		i = h & l.mask
		for l.table[i] >= 0 {
			i = (i + 1) & l.mask
		}
	}
	koff := uint32(len(l.arena))
	l.arena = append(l.arena, key...)
	l.table[i] = int32(len(l.entries))
	l.entries = append(l.entries, flatEntry{hash: h, koff: koff, klen: uint32(len(key))})
	l.vals = append(l.vals, val)
}

// grow doubles the index and reinserts every entry by its stored hash;
// key bytes never move.
func (l *flatLocal[V]) grow() {
	nt := newFlatTable(len(l.table) * 2)
	mask := uint64(len(nt) - 1)
	for ei := range l.entries {
		i := l.entries[ei].hash & mask
		for nt[i] >= 0 {
			i = (i + 1) & mask
		}
		nt[i] = int32(ei)
	}
	l.table = nt
	l.mask = mask
}

// Flush merges the local entries into the global shards, one lock per
// shard: entries are grouped by destination shard with a counting sort
// on reused scratch, then each shard's whole batch merges under a
// single lock acquisition. The local is reset (storage retained) and
// returned to the parent's pool; per the Local contract it must not be
// used after Flush.
func (l *flatLocal[V]) Flush() {
	p := l.parent
	if len(l.entries) > 0 {
		l.flushEntries()
	}
	l.recycle()
	p.putLocal(l)
}

func (l *flatLocal[V]) flushEntries() {
	p := l.parent
	nsh := len(p.shards)
	mask := uint64(nsh - 1)
	n := len(l.entries)

	// Counting sort of entry indexes by destination shard.
	if cap(l.starts) < nsh+1 {
		l.starts = make([]int, nsh+1)
	}
	starts := l.starts[:nsh+1]
	for i := range starts {
		starts[i] = 0
	}
	for i := range l.entries {
		starts[(l.entries[i].hash&mask)+1]++
	}
	for s := 1; s <= nsh; s++ {
		starts[s] += starts[s-1]
	}
	if cap(l.order) < n {
		l.order = make([]int32, n)
	}
	order := l.order[:n]
	// fill starts as a copy of the batch offsets and advances as entries
	// land; starts[s]..starts[s+1] still bounds shard s afterwards
	// because each cursor ends exactly at the next shard's start.
	if cap(l.fill) < nsh {
		l.fill = make([]int, nsh)
	}
	fill := l.fill[:nsh]
	copy(fill, starts[:nsh])
	for ei := range l.entries {
		s := l.entries[ei].hash & mask
		order[fill[s]] = int32(ei)
		fill[s]++
	}

	entry := p.entryBytes()
	var added int64
	for s := 0; s < nsh; s++ {
		lo, hi := starts[s], starts[s+1]
		if lo == hi {
			continue
		}
		sh := &p.shards[s]
		sh.mu.Lock()
		for _, ei := range order[lo:hi] {
			e := &l.entries[ei]
			kb := l.arena[e.koff : e.koff+e.klen]
			// Allocation-free intern check: the map lookup with a
			// converted byte slice does not materialize a string.
			if gi, ok := sh.idx[string(kb)]; ok {
				merged := p.combine(sh.vals[gi], l.vals[ei])
				if p.dynV != nil {
					added += p.dynV(merged) - p.dynV(sh.vals[gi])
				}
				sh.vals[gi] = merged
			} else {
				key := string(kb) // interned exactly once per global key
				sh.idx[key] = len(sh.vals)
				sh.vals = append(sh.vals, l.vals[ei])
				added += entry + int64(len(key)) + dynOf(p.dynV, l.vals[ei])
			}
		}
		sh.mu.Unlock()
	}
	p.bytes.Add(added)
}

// recycle clears the local for reuse without releasing any storage:
// the index is re-emptied, the dense arrays and arena keep their
// capacity, and values are zeroed so stale references cannot pin heap.
func (l *flatLocal[V]) recycle() {
	for i := range l.table {
		l.table[i] = -1
	}
	l.entries = l.entries[:0]
	clear(l.vals)
	l.vals = l.vals[:0]
	l.arena = l.arena[:0]
}
