package container

import (
	"fmt"
	"sync"

	"supmr/internal/kv"
)

// KeyRange is Phoenix's "unlocked" storage, the container SupMR selects
// for sort (§V-B): applications with unique keys let every map worker
// write to its own region of one shared result array with no
// synchronization. Each Local accumulates pairs in a private buffer;
// Flush publishes the buffer (a single short append, the analog of
// reserving a region in the shared array). The container presents a
// FIXED number of reduce partitions — equal segments of the logical
// array — regardless of how many map waves ran, matching Phoenix where
// the array geometry, not the task count, determines partitioning.
type KeyRange[K comparable, V any] struct {
	partitions int

	mu    sync.Mutex
	bufs  [][]kv.Pair[K, V]
	total int
	bytes int64 // approximate resident bytes, maintained at Flush
}

// DefaultKeyRangePartitions is the partition count when none is given.
const DefaultKeyRangePartitions = 64

// NewKeyRange builds an unlocked container with the given reduce
// partition count (<=0 selects the default).
func NewKeyRange[K comparable, V any](partitions int) *KeyRange[K, V] {
	if partitions <= 0 {
		partitions = DefaultKeyRangePartitions
	}
	return &KeyRange[K, V]{partitions: partitions}
}

// Reset discards all stored pairs.
func (c *KeyRange[K, V]) Reset() {
	c.mu.Lock()
	c.bufs = nil
	c.total = 0
	c.bytes = 0
	c.mu.Unlock()
}

// New returns an empty key-range container with the same partition
// count.
func (c *KeyRange[K, V]) New() Container[K, V] {
	return NewKeyRange[K, V](c.partitions)
}

// SizeBytes returns the approximate resident bytes of the published
// buffers.
func (c *KeyRange[K, V]) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Partitions returns the fixed partition count (0 when empty).
func (c *KeyRange[K, V]) Partitions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.total == 0 {
		return 0
	}
	if c.total < c.partitions {
		return c.total
	}
	return c.partitions
}

// Len counts stored pairs.
func (c *KeyRange[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// NewRunLocal is NewLocal: a run's pairs take the map path.
func (c *KeyRange[K, V]) NewRunLocal() Local[K, V] { return c.NewLocal() }

// NewLocal returns an unsynchronized buffer for one map worker.
func (c *KeyRange[K, V]) NewLocal() Local[K, V] {
	return &keyRangeLocal[K, V]{parent: c}
}

type keyRangeLocal[K comparable, V any] struct {
	parent *KeyRange[K, V]
	buf    []kv.Pair[K, V]
}

var _ kv.Grower = (*keyRangeLocal[string, int])(nil)

// Grow makes room for n more pairs in the private buffer, in one
// allocation of exactly that size.
func (l *keyRangeLocal[K, V]) Grow(n int) {
	if cap(l.buf)-len(l.buf) < n {
		l.buf = append(make([]kv.Pair[K, V], 0, len(l.buf)+n), l.buf...)
	}
}

// Emit appends to the private buffer; no locks on the hot path.
func (l *keyRangeLocal[K, V]) Emit(key K, val V) {
	l.buf = append(l.buf, kv.Pair[K, V]{Key: key, Val: val})
}

// Flush publishes the buffer into the shared array.
func (l *keyRangeLocal[K, V]) Flush() {
	if len(l.buf) == 0 {
		l.buf = nil
		return
	}
	added := int64(len(l.buf)) * shallowSize[kv.Pair[K, V]]()
	if dynK, dynV := dynSizer[K](), dynSizer[V](); dynK != nil || dynV != nil {
		for _, pr := range l.buf {
			added += dynOf(dynK, pr.Key) + dynOf(dynV, pr.Val)
		}
	}
	p := l.parent
	p.mu.Lock()
	p.bufs = append(p.bufs, l.buf)
	p.total += len(l.buf)
	p.bytes += added
	p.mu.Unlock()
	l.buf = nil
}

// PartitionLen reports the number of pairs in partition p (keys are
// unique by contract, so pairs equal reduce outputs), letting the
// reduce phase presize its output buffer.
func (c *KeyRange[K, V]) PartitionLen(p int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	parts := c.partitions
	if c.total < parts {
		parts = c.total
	}
	if p < 0 || p >= parts {
		return 0
	}
	lo, hi := c.segment(p, parts)
	return hi - lo
}

// segment returns the logical-array range [lo, hi) of partition p.
func (c *KeyRange[K, V]) segment(p, parts int) (lo, hi int) {
	lo = p * c.total / parts
	hi = (p + 1) * c.total / parts
	return lo, hi
}

// Reduce applies reduce to each pair of partition p (keys are unique by
// contract, so every key has exactly one value). Partition p covers the
// p-th equal segment of the logical shared array.
func (c *KeyRange[K, V]) Reduce(p int, reduce func(k K, vs []V) V, out []kv.Pair[K, V]) []kv.Pair[K, V] {
	c.mu.Lock()
	parts := c.partitions
	if c.total < parts {
		parts = c.total
	}
	if p < 0 || p >= parts {
		c.mu.Unlock()
		panic(fmt.Sprintf("container: key-range partition %d out of range [0,%d)", p, parts))
	}
	lo, hi := c.segment(p, parts)
	// Snapshot the buffers covering [lo, hi).
	var view [][]kv.Pair[K, V]
	pos := 0
	for _, b := range c.bufs {
		bLo, bHi := pos, pos+len(b)
		pos = bHi
		if bHi <= lo {
			continue
		}
		if bLo >= hi {
			break
		}
		s, e := 0, len(b)
		if lo > bLo {
			s = lo - bLo
		}
		if hi < bHi {
			e = hi - bLo
		}
		view = append(view, b[s:e])
	}
	c.mu.Unlock()

	var one [1]V
	for _, seg := range view {
		for _, pr := range seg {
			one[0] = pr.Val
			out = append(out, kv.Pair[K, V]{Key: pr.Key, Val: reduce(pr.Key, one[:])})
		}
	}
	return out
}
