// Package container implements the Phoenix++-style intermediate
// key-value containers that sit between the map and reduce phases: the
// hash container (default; combiner-backed, ideal for word-count-like
// jobs whose huge input set shrinks to a small intermediate set), the
// array container (dense integer keys, histogram-like jobs), and the
// unlocked key-range container (sort-like jobs with unique keys, where
// every mapper writes its own region with no synchronization).
//
// SupMR's pipeline requires containers to persist across map rounds;
// Reset exists so the traditional runtime (and the ablation bench) can
// model the original re-initialize-per-wave behaviour.
package container

import (
	"hash/maphash"

	"supmr/internal/kv"
)

// Local is the per-map-worker view of a container. Map workers emit into
// a Local with no synchronization; Flush folds the worker's pairs into
// the global container state at the end of the worker's task. A Local
// not yet flushed is unaffected by the container's Reset: its pairs
// land on its own Flush.
type Local[K comparable, V any] interface {
	kv.Emitter[K, V]
	// Flush publishes this worker's pairs into the global container.
	// The Local must not be used after Flush.
	Flush()
}

// Container stores intermediate key-value pairs between map and reduce.
// Implementations are safe for concurrent NewLocal/Flush during the map
// phase; Partitions/Reduce run after the map phase completes.
//
// Re-emitting already-reduced, key-overlapping runs through any number
// of concurrent Locals and then reducing and sorting equals the
// re-reducing streaming merge of the same runs (sortalgo.MergeSources),
// given the associative, order-insensitive reduce every drain already
// requires (and, for the key-range container, its unique-key contract).
// The memoized pipeline folds each chunk's reduced output in, and each
// node of a multi-node run folds the entries it received, on the
// strength of this.
type Container[K comparable, V any] interface {
	// NewLocal returns an emitter for one map worker or map task.
	NewLocal() Local[K, V]
	// NewRunLocal returns an emitter for one reduced run — a drained
	// run or a cache entry, whose keys are unique — with NewLocal's
	// contract. A combining container may skip the local combine, which
	// has nothing to combine in such a run, and hand the pairs to its
	// shards as they are; the others return their NewLocal.
	NewRunLocal() Local[K, V]
	// Partitions returns the number of reduce partitions currently held.
	Partitions() int
	// Reduce applies reduce to every key of partition p, appending the
	// resulting pairs to out, and returns the extended slice. Pairs
	// within a partition are in container order (not sorted); sorting is
	// the merge phase's job.
	Reduce(p int, reduce func(k K, vs []V) V, out []kv.Pair[K, V]) []kv.Pair[K, V]
	// Len returns the number of distinct entries held.
	Len() int
	// SizeBytes returns the approximate resident heap bytes of the
	// stored entries (shallow struct sizes plus referenced string/slice
	// bytes, plus per-entry bookkeeping). The spill layer compares this
	// against the job's memory budget between ingest rounds; worker-local
	// accumulators are transient and not counted.
	SizeBytes() int64
	// Reset clears all state, restoring an empty container (one may
	// keep its table capacity for the refill). The traditional runtime
	// resets when mappers start; the SupMR pipeline must not (persistent
	// container, §III-C) — except where a drain empties the container
	// into a run, which resets so the drained entries stop counting
	// against the budget.
	Reset()
	// New returns an empty container configured like the receiver (same
	// geometry, hasher and combiner) and sharing no state with it. A
	// multi-node run builds each further node's persistent container
	// from the caller's this way.
	New() Container[K, V]
}

// PartitionSizer is an optional Container extension: PartitionLen
// reports the number of entries Reduce would produce for partition p,
// so the reduce phase can presize its output buffers instead of growing
// them from nil. It is only meaningful after the map phase completes.
type PartitionSizer interface {
	PartitionLen(p int) int
}

// Hasher maps a key to a 64-bit hash for shard selection.
type Hasher[K comparable] func(K) uint64

var stringSeed = maphash.MakeSeed()

// StringHasher hashes string keys with runtime maphash.
func StringHasher(s string) uint64 { return maphash.String(stringSeed, s) }

// Uint64Hasher mixes an integer key (splitmix64 finalizer).
func Uint64Hasher(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// IntHasher hashes int keys.
func IntHasher(i int) uint64 { return Uint64Hasher(uint64(i)) }
