package container

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"supmr/internal/kv"
)

// FlatHash is the allocation-free combining container for byte-keyed
// workloads (word-count-like apps). Keys hash to locked shards like the
// Hash container, but both tiers are one open-addressing table type,
// flatTable, under one hash, kv.KeyHash, which the word path
// (kv.WordEmitter) gets from kv.ScanWords as each word is cut and Emit
// and EmitBytes compute. An entry keeps the key's 8-byte prefix, not its
// hash, so a probe decides a hit on a key of up to 8 bytes from the
// entry alone. The hash is recomputed once per entry where it is still
// needed: when a table grows, and at Flush, where it routes the entry to
// its shard (low bits) and starts the shard lookup (bits 32 and up pick
// the slot). A short key's hash comes from its prefix and length
// (kv.ShortKeyHash), so only keys longer than 8 bytes are hashed again
// from their bytes.
//
// Locals are pooled and reset, not freed, across flushes — §III-C's
// persistent container applied to the worker-local tier — so a
// steady-state map wave allocates nothing in the combiner. Flush locks
// each shard once. NewRunLocal's emitter, for a run whose keys are
// unique, skips the local table: it appends each record with the hash
// and prefix computed once, at Emit, and its Flush routes and merges
// them through the combining Local's routine. A shard's key arena only
// grows, and Reset clears the tables in place (keeping their capacity)
// but starts a fresh arena, so Reduce hands out string views that stay
// valid; a partition reduces in insertion order.
//
// FlatHash requires a combiner; value-retaining workloads stay on the
// generic Hash container.
type FlatHash[V any] struct {
	shards  []flatShard[V]
	combine kv.Combine[V]

	// Byte accounting for SizeBytes, maintained incrementally at Flush
	// so the budget check between ingest rounds is O(1). Pooled locals
	// are worker-local accumulators and not counted, per the Container
	// contract.
	bytes atomic.Int64
	dynV  func(V) int64

	poolMu  sync.Mutex
	pool    []*flatLocal[V]
	runPool []*flatRunLocal[V]
}

type flatShard[V any] struct {
	mu    sync.Mutex
	table flatTable[V]
	_     [32]byte // pad to reduce false sharing between shards
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

// Reset empties every shard, keeping its index, entry and value
// capacity so a refill of the same size does not regrow them, and gives
// it a fresh arena of the old one's capacity, so strings Reduce handed
// out keep their bytes. Pooled locals keep their tables: they are the
// persistent worker-local tier and are reused by the next round.
func (f *FlatHash[V]) Reset() {
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		if t := &s.table; t.index == nil {
			*t = newFlatTable[V](flatShardSlots)
		} else {
			t.clearIndex()
			t.entries = t.entries[:0]
			clear(t.vals) // stale values must not pin heap
			t.vals = t.vals[:0]
			t.arena = make([]byte, 0, cap(t.arena))
		}
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
// bytes: the entry, two index slots (the load stays within 37.5–75 %)
// and the value.
func (f *FlatHash[V]) entryBytes() int64 {
	return shallowSize[flatEntry]() + 2*shallowSize[int32]() + shallowSize[V]()
}

// Partitions returns the shard count; each shard is one reduce partition.
func (f *FlatHash[V]) Partitions() int { return len(f.shards) }

// Len counts distinct keys across shards.
func (f *FlatHash[V]) Len() int {
	total := 0
	for p := range f.shards {
		total += f.PartitionLen(p)
	}
	return total
}

// PartitionLen reports the distinct keys currently in partition p, so
// the reduce phase can presize its output buffer.
func (f *FlatHash[V]) PartitionLen(p int) int {
	s := &f.shards[p]
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.table.entries)
}

// NewLocal returns a worker-local flat combiner, reusing a pooled one
// (table and scratch intact) when a previous task flushed it.
func (f *FlatHash[V]) NewLocal() Local[string, V] {
	f.poolMu.Lock()
	defer f.poolMu.Unlock()
	if n := len(f.pool); n > 0 {
		l := f.pool[n-1]
		f.pool = f.pool[:n-1]
		return l
	}
	return &flatLocal[V]{parent: f, table: newFlatTable[V](flatLocalSlots)}
}

// NewRunLocal returns an emitter for one reduced run, reusing a pooled
// one: it skips the local table, whose combine a run's unique keys
// never use, and hands its records to the shards at Flush.
func (f *FlatHash[V]) NewRunLocal() Local[string, V] {
	f.poolMu.Lock()
	defer f.poolMu.Unlock()
	if n := len(f.runPool); n > 0 {
		l := f.runPool[n-1]
		f.runPool = f.runPool[:n-1]
		return l
	}
	return &flatRunLocal[V]{parent: f}
}

// Reduce applies reduce over every key in shard p, in insertion order.
// Keys are views of the shard's append-only arena, not copies.
func (f *FlatHash[V]) Reduce(p int, reduce func(k string, vs []V) V, out []kv.Pair[string, V]) []kv.Pair[string, V] {
	if p < 0 || p >= len(f.shards) {
		panic(fmt.Sprintf("container: flat partition %d out of range [0,%d)", p, len(f.shards)))
	}
	s := &f.shards[p]
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.table
	var one [1]V
	for ei, e := range t.entries {
		k := unsafe.String(unsafe.SliceData(t.arena[e.koff:]), e.klen)
		one[0] = t.vals[ei]
		out = append(out, kv.Pair[string, V]{Key: k, Val: reduce(k, one[:])})
	}
	return out
}

// Initial index sizes: a local starts big enough for a split's common
// vocabulary, a shard small (there are many). Both double at 75 % load
// and must be powers of two.
const (
	flatLocalSlots = 512
	flatShardSlots = 64
)

// flatEntry is one key: its kv.KeyPrefix, which is the whole key
// zero-padded when the key has at most 8 bytes, and where its bytes lie
// in the table's arena. The uint32 offsets cap one table's arena at
// 4 GiB.
type flatEntry struct {
	prefix uint64
	koff   uint32
	klen   uint32
}

// flatTable is the open-addressing table of both tiers: an index of
// slots probing linearly into dense entries, values parallel to the
// entries, and key bytes in an append-only arena.
type flatTable[V any] struct {
	index   []int32 // entry index per slot; -1 = empty
	mask    uint64
	entries []flatEntry
	vals    []V
	arena   []byte
}

func newFlatTable[V any](slots int) flatTable[V] {
	t := flatTable[V]{index: make([]int32, slots), mask: uint64(slots - 1)}
	t.clearIndex()
	return t
}

func (t *flatTable[V]) clearIndex() {
	for i := range t.index {
		t.index[i] = -1
	}
}

// home is a hash's first slot. Shards take the low bits.
func home(h, mask uint64) uint64 { return h >> 32 & mask }

// hash is the kv.KeyHash of e's key: from the entry alone for a key of
// up to 8 bytes, from the arena otherwise.
func (t *flatTable[V]) hash(e flatEntry) uint64 {
	if e.klen <= 8 {
		return kv.ShortKeyHash(e.prefix, int(e.klen))
	}
	return kv.KeyHash(t.arena[e.koff : e.koff+e.klen])
}

// match reports whether e holds key, whose prefix is prefix. Prefix and
// length are compared from the entry, so a key of up to 8 bytes is
// decided without reading the arena. A key of up to 16 bytes is then
// decided by its last 8, one load that overlaps the prefix; a longer
// one compares its bytes after the first 8.
func (t *flatTable[V]) match(e flatEntry, prefix uint64, key []byte) bool {
	if e.prefix != prefix || e.klen != uint32(len(key)) {
		return false
	}
	switch n := len(key); {
	case n <= 8:
		return true
	case n <= 16:
		return binary.LittleEndian.Uint64(t.arena[e.koff+e.klen-8:]) == binary.LittleEndian.Uint64(key[n-8:])
	}
	return bytes.Equal(t.arena[e.koff+8:e.koff+e.klen], key[8:])
}

// find returns key's entry index, or -1 and the empty slot where key
// goes; h is the key's hash.
func (t *flatTable[V]) find(h, prefix uint64, key []byte) (int32, uint64) {
	for i := home(h, t.mask); ; i = (i + 1) & t.mask {
		if ei := t.index[i]; ei < 0 || t.match(t.entries[ei], prefix, key) {
			return ei, i
		}
	}
}

// insert adds a key find did not see at the empty slot it returned,
// growing the index first at the load limit, where every entry's hash
// is recomputed to re-home it. The key is copied into the arena; when
// that reallocates, keys handed out stay in the old array.
func (t *flatTable[V]) insert(slot, h, prefix uint64, key []byte, val V) {
	if (len(t.entries)+1)*4 > len(t.index)*3 {
		t.index = make([]int32, 2*len(t.index))
		t.mask = uint64(len(t.index) - 1)
		t.clearIndex()
		for ei, e := range t.entries { // key bytes never move
			i := home(t.hash(e), t.mask)
			for t.index[i] >= 0 {
				i = (i + 1) & t.mask
			}
			t.index[i] = int32(ei)
		}
		for slot = home(h, t.mask); t.index[slot] >= 0; slot = (slot + 1) & t.mask {
		}
	}
	koff := len(t.arena)
	if len(key) <= 8 { // one 8-byte store: the prefix is the key, zero-padded
		t.arena = binary.LittleEndian.AppendUint64(t.arena, prefix)[:koff+len(key)]
	} else {
		t.arena = append(t.arena, key...)
	}
	t.index[slot] = int32(len(t.entries))
	t.entries = append(t.entries, flatEntry{prefix: prefix, koff: uint32(koff), klen: uint32(len(key))})
	t.vals = append(t.vals, val)
}

// flatRoute is a Local's flush scratch, retained across flushes:
// each entry's hash, which picks its shard (low bits) and starts the
// shard's probe, and the entry indexes grouped by shard — shard s's are
// order[bounds[s]:bounds[s+1]].
type flatRoute struct {
	hashes []uint64
	bounds []int
	order  []int32
}

// merge folds a Local's entries — keys in arena, values in vals, hashes
// in r.hashes — into the shards, each shard's batch under one lock
// acquisition. Both Locals flush through it.
func (f *FlatHash[V]) merge(arena []byte, entries []flatEntry, vals []V, r *flatRoute) {
	nsh := len(f.shards)
	mask := uint64(nsh - 1)
	// Counting sort of entry indexes by shard: count, prefix-sum to each
	// shard's end, then place backwards so bounds[s] ends at shard s's
	// start.
	bounds := append(r.bounds[:0], make([]int, nsh+1)...)
	for _, h := range r.hashes {
		bounds[h&mask]++
	}
	for s := 1; s <= nsh; s++ {
		bounds[s] += bounds[s-1]
	}
	order := slices.Grow(r.order[:0], len(entries))[:len(entries)]
	for ei := len(entries) - 1; ei >= 0; ei-- {
		s := r.hashes[ei] & mask
		bounds[s]--
		order[bounds[s]] = int32(ei)
	}
	entry := f.entryBytes()
	var added int64
	for s := range nsh {
		if bounds[s] == bounds[s+1] {
			continue
		}
		sh := &f.shards[s]
		sh.mu.Lock()
		g := &sh.table
		for _, ei := range order[bounds[s]:bounds[s+1]] {
			e, v, h := entries[ei], vals[ei], r.hashes[ei]
			kb := arena[e.koff : e.koff+e.klen]
			if gi, slot := g.find(h, e.prefix, kb); gi >= 0 {
				merged := f.combine(g.vals[gi], v)
				if f.dynV != nil {
					added += f.dynV(merged) - f.dynV(g.vals[gi])
				}
				g.vals[gi] = merged
			} else {
				g.insert(slot, h, e.prefix, kb, v)
				added += entry + int64(len(kb)) + dynOf(f.dynV, v)
			}
		}
		sh.mu.Unlock()
	}
	f.bytes.Add(added)
	r.bounds, r.order = bounds, order
}

// flatRunLocal is NewRunLocal's emitter: each record's key is copied to
// the local arena and the record appended with its hash and prefix,
// computed once, here; Flush routes and merges them.
type flatRunLocal[V any] struct {
	parent  *FlatHash[V]
	arena   []byte
	entries []flatEntry
	vals    []V
	route   flatRoute
}

var _ kv.BytesEmitter[int64] = (*flatRunLocal[int64])(nil)

// Emit appends a record under a string key.
func (l *flatRunLocal[V]) Emit(key string, val V) {
	l.EmitBytes(unsafe.Slice(unsafe.StringData(key), len(key)), val)
}

// EmitBytes appends a record under key, copying its bytes.
func (l *flatRunLocal[V]) EmitBytes(key []byte, val V) {
	koff := len(l.arena)
	l.arena = append(l.arena, key...)
	l.entries = append(l.entries, flatEntry{prefix: kv.KeyPrefix(key), koff: uint32(koff), klen: uint32(len(key))})
	l.vals = append(l.vals, val)
	l.route.hashes = append(l.route.hashes, kv.KeyHash(key))
}

// Flush merges the records into the shards, then returns the local
// (storage retained) to the parent's pool.
func (l *flatRunLocal[V]) Flush() {
	p := l.parent
	p.merge(l.arena, l.entries, l.vals, &l.route)
	clear(l.vals) // stale values must not pin heap
	l.arena, l.entries, l.vals, l.route.hashes = l.arena[:0], l.entries[:0], l.vals[:0], l.route.hashes[:0]
	p.poolMu.Lock()
	p.runPool = append(p.runPool, l)
	p.poolMu.Unlock()
}

// flatLocal is the per-worker combiner: a flatTable plus scratch, all
// retained across flushes via the parent's local pool.
type flatLocal[V any] struct {
	parent *FlatHash[V]
	table  flatTable[V]
	words  []kv.Word // EmitWords' scan batch
	route  flatRoute
}

var _ kv.BytesEmitter[int64] = (*flatLocal[int64])(nil)
var _ kv.WordEmitter[int64] = (*flatLocal[int64])(nil)

// Emit folds val into the local table under a string key.
func (l *flatLocal[V]) Emit(key string, val V) {
	l.EmitBytes(unsafe.Slice(unsafe.StringData(key), len(key)), val)
}

// EmitBytes folds val under key, which may alias the input split: it is
// copied into the arena only on its first local occurrence.
func (l *flatLocal[V]) EmitBytes(key []byte, val V) {
	one := [1]kv.Word{{Hash: kv.KeyHash(key), Prefix: kv.KeyPrefix(key), Len: len(key)}}
	l.fold(key, one[:], val)
}

// EmitWords is the word-count hot path: it cuts split with kv.ScanWords,
// 256 words at a time into the local's retained batch, and folds val
// once per word under the hash and prefix the scan computed.
func (l *flatLocal[V]) EmitWords(split []byte, val V) {
	if l.words == nil {
		l.words = make([]kv.Word, 256)
	}
	for pos := 0; pos < len(split); {
		n, next := kv.ScanWords(split, pos, l.words)
		l.fold(split, l.words[:n], val)
		pos = next
	}
}

// fold folds val once per word of buf. It is find's probe written out
// in the loop: a call per word costs more than the probe of a hot key.
func (l *flatLocal[V]) fold(buf []byte, words []kv.Word, val V) {
	t, combine := &l.table, l.parent.combine
next:
	for _, w := range words {
		key := buf[w.Off : w.Off+w.Len]
		i := home(w.Hash, t.mask)
		for ei := t.index[i]; ei >= 0; ei = t.index[i] {
			if t.match(t.entries[ei], w.Prefix, key) {
				t.vals[ei] = combine(t.vals[ei], val)
				continue next
			}
			i = (i + 1) & t.mask
		}
		t.insert(i, w.Hash, w.Prefix, key, val)
	}
}

// Flush merges the local entries into the global shards, each shard's
// batch under one lock acquisition, then resets the local (storage
// retained) and returns it to the parent's pool; per the Local contract
// it must not be used after Flush. Each entry's hash is recomputed once
// here, to route it.
func (l *flatLocal[V]) Flush() {
	p, t := l.parent, &l.table
	hashes := slices.Grow(l.route.hashes[:0], len(t.entries))[:len(t.entries)]
	for ei, e := range t.entries {
		hashes[ei] = t.hash(e)
	}
	l.route.hashes = hashes
	p.merge(t.arena, t.entries, t.vals, &l.route)

	t.clearIndex()
	t.entries = t.entries[:0]
	clear(t.vals) // stale values must not pin heap
	t.vals, t.arena = t.vals[:0], t.arena[:0]
	p.poolMu.Lock()
	p.pool = append(p.pool, l)
	p.poolMu.Unlock()
}
