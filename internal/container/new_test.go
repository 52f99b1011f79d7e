package container

import (
	"fmt"
	"testing"

	"supmr/internal/kv"
)

// A multi-node run builds every further node's container from the
// caller's with New: the result must be an empty, independent container
// that behaves exactly like its parent.

// checkNew exercises parent.New(). repeats says keys may be emitted
// twice (everything but the key-range container's unique-key contract).
func checkNew[K comparable](t *testing.T, parent Container[K, int64], key func(int) K, less kv.Less[K], repeats bool) {
	t.Helper()
	emit := func(c Container[K, int64], from, to int) {
		l := c.NewLocal()
		for i := from; i < to; i++ {
			l.Emit(key(i), int64(i))
			if repeats && i%3 == 0 {
				l.Emit(key(i), 1000)
			}
		}
		l.Flush()
	}
	// A parent already in use: New must copy its configuration, not its
	// contents.
	emit(parent, 0, 50)
	child := parent.New()
	if n := child.Len(); n != 0 {
		t.Fatalf("New of a container holding %d entries holds %d", parent.Len(), n)
	}
	if child.SizeBytes() > parent.SizeBytes() {
		t.Errorf("empty child reports %d resident bytes, its 50-entry parent %d", child.SizeBytes(), parent.SizeBytes())
	}

	// No shared state, in either direction.
	emit(child, 50, 120)
	if parent.Len() != 50 || child.Len() != 70 {
		t.Fatalf("after 70 emits into the child: parent holds %d, child %d; want 50 and 70", parent.Len(), child.Len())
	}
	parent.Reset()
	if child.Len() != 70 {
		t.Fatalf("resetting the parent left %d of 70 entries in the child", child.Len())
	}
	child.Reset()

	// Same configuration: the same emits give the same partitioning and
	// the same pairs.
	if parent.Partitions() != child.Partitions() {
		t.Errorf("empty: parent has %d partitions, child %d", parent.Partitions(), child.Partitions())
	}
	emit(parent, 0, 200)
	emit(child, 0, 200)
	if parent.Partitions() != child.Partitions() {
		t.Errorf("parent has %d partitions, child %d", parent.Partitions(), child.Partitions())
	}
	samePairs(t, "child vs parent", reduceSorted(child, less), reduceSorted(parent, less))
	if got := len(reduceSorted(child, less)); got != 200 {
		t.Errorf("child reduced to %d pairs, want 200", got)
	}
}

func TestNew(t *testing.T) {
	word := func(i int) string { return fmt.Sprintf("w%04d", i*7919%10007) }
	lessStr := func(a, b string) bool { return a < b }
	sum := func(a, b int64) int64 { return a + b }
	t.Run("flat", func(t *testing.T) {
		parent := NewFlatHash[int64](8, sum)
		checkNew[string](t, parent, word, lessStr, true)
		// Pooled locals are the persistent worker-local tier of ONE
		// container: a flushed local returns to its own parent's pool.
		child := parent.New().(*FlatHash[int64])
		before := len(parent.pool)
		l := child.NewLocal()
		l.Emit("x", 1)
		l.Flush()
		if len(parent.pool) != before || len(child.pool) != 1 || child.pool[0].parent != child {
			t.Errorf("child's flushed local: parent pool %d -> %d, child pool %d", before, len(parent.pool), len(child.pool))
		}
	})
	t.Run("hash-combiner", func(t *testing.T) {
		checkNew[string](t, NewHash[string, int64](8, StringHasher, sum), word, lessStr, true)
	})
	t.Run("hash-list", func(t *testing.T) {
		checkNew[string](t, NewHash[string, int64](8, StringHasher, nil), word, lessStr, true)
	})
	t.Run("array", func(t *testing.T) {
		checkNew[int](t, NewArray[int64](300, 4, sum), func(i int) int { return i }, func(a, b int) bool { return a < b }, true)
	})
	t.Run("keyrange", func(t *testing.T) {
		checkNew[string](t, NewKeyRange[string, int64](16), word, lessStr, false)
	})
}
