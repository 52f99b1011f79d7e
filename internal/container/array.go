package container

import (
	"fmt"
	"sync"

	"supmr/internal/kv"
)

// Array is the Phoenix++ array container: keys are dense integers in
// [0, width), stored in a flat array. Map workers fold into a local
// array; Flush merges stripes into the global array under striped locks.
// Ideal for histogram-like jobs where the key universe is small and
// known in advance.
type Array[V any] struct {
	width   int
	stripes int
	combine kv.Combine[V]

	mu      []sync.Mutex
	present []bool
	vals    []V
}

// NewArray builds an array container over keys [0, width) with combine
// folding values (required — an array cell holds exactly one value).
func NewArray[V any](width, stripes int, combine kv.Combine[V]) *Array[V] {
	if width <= 0 {
		panic(fmt.Sprintf("container: array width must be positive, got %d", width))
	}
	if combine == nil {
		panic("container: NewArray requires a combiner")
	}
	if stripes < 1 {
		stripes = 1
	}
	if stripes > width {
		stripes = width
	}
	a := &Array[V]{width: width, stripes: stripes, combine: combine}
	a.mu = make([]sync.Mutex, stripes)
	a.Reset()
	return a
}

// Reset clears all cells.
func (a *Array[V]) Reset() {
	a.present = make([]bool, a.width)
	a.vals = make([]V, a.width)
}

// New returns an empty array container over the same key width, stripe
// count and combiner.
func (a *Array[V]) New() Container[int, V] {
	return NewArray[V](a.width, a.stripes, a.combine)
}

// SizeBytes returns the container footprint. It is fixed by the key
// width — the flat value and presence arrays exist whether or not cells
// are occupied — plus any heap bytes occupied values reference.
func (a *Array[V]) SizeBytes() int64 {
	size := int64(a.width) * (shallowSize[V]() + 1)
	dynV := dynSizer[V]()
	if dynV == nil {
		return size
	}
	for s := 0; s < a.stripes; s++ {
		lo, hi := a.stripeRange(s)
		a.mu[s].Lock()
		for i := lo; i < hi; i++ {
			if a.present[i] {
				size += dynV(a.vals[i])
			}
		}
		a.mu[s].Unlock()
	}
	return size
}

// UnspillableContainer marks the array container as unsupported by the
// spill layer: its footprint is width-bound, not data-bound, so
// spilling cannot shrink it.
func (a *Array[V]) UnspillableContainer() {}

// Width returns the key-universe size.
func (a *Array[V]) Width() int { return a.width }

// Partitions returns the stripe count.
func (a *Array[V]) Partitions() int { return a.stripes }

// Len counts occupied cells.
func (a *Array[V]) Len() int {
	n := 0
	for s := 0; s < a.stripes; s++ {
		lo, hi := a.stripeRange(s)
		a.mu[s].Lock()
		for i := lo; i < hi; i++ {
			if a.present[i] {
				n++
			}
		}
		a.mu[s].Unlock()
	}
	return n
}

// PartitionLen counts occupied cells of stripe p, so the reduce phase
// can presize its output buffer.
func (a *Array[V]) PartitionLen(p int) int {
	lo, hi := a.stripeRange(p)
	a.mu[p].Lock()
	defer a.mu[p].Unlock()
	n := 0
	for i := lo; i < hi; i++ {
		if a.present[i] {
			n++
		}
	}
	return n
}

func (a *Array[V]) stripeRange(s int) (lo, hi int) {
	per := (a.width + a.stripes - 1) / a.stripes
	lo = s * per
	hi = lo + per
	if hi > a.width {
		hi = a.width
	}
	return lo, hi
}

func (a *Array[V]) stripeOf(key int) int {
	per := (a.width + a.stripes - 1) / a.stripes
	return key / per
}

// NewRunLocal is NewLocal: a run's pairs take the map path.
func (a *Array[V]) NewRunLocal() Local[int, V] { return a.NewLocal() }

// NewLocal returns a worker-local array accumulator.
func (a *Array[V]) NewLocal() Local[int, V] {
	return &arrayLocal[V]{
		parent:  a,
		present: make([]bool, a.width),
		vals:    make([]V, a.width),
	}
}

type arrayLocal[V any] struct {
	parent  *Array[V]
	present []bool
	vals    []V
}

// Emit folds val into the local cell for key.
func (l *arrayLocal[V]) Emit(key int, val V) {
	if key < 0 || key >= l.parent.width {
		panic(fmt.Sprintf("container: array key %d out of range [0,%d)", key, l.parent.width))
	}
	if l.present[key] {
		l.vals[key] = l.parent.combine(l.vals[key], val)
	} else {
		l.present[key] = true
		l.vals[key] = val
	}
}

// Flush merges local cells into the global array stripe by stripe.
func (l *arrayLocal[V]) Flush() {
	a := l.parent
	for s := 0; s < a.stripes; s++ {
		lo, hi := a.stripeRange(s)
		a.mu[s].Lock()
		for i := lo; i < hi; i++ {
			if !l.present[i] {
				continue
			}
			if a.present[i] {
				a.vals[i] = a.combine(a.vals[i], l.vals[i])
			} else {
				a.present[i] = true
				a.vals[i] = l.vals[i]
			}
		}
		a.mu[s].Unlock()
	}
	l.present, l.vals = nil, nil
}

// Reduce applies reduce over occupied cells of stripe p. Output pairs
// come out already key-ordered within the stripe (array order).
func (a *Array[V]) Reduce(p int, reduce func(k int, vs []V) V, out []kv.Pair[int, V]) []kv.Pair[int, V] {
	if p < 0 || p >= a.stripes {
		panic(fmt.Sprintf("container: array partition %d out of range [0,%d)", p, a.stripes))
	}
	lo, hi := a.stripeRange(p)
	a.mu[p].Lock()
	defer a.mu[p].Unlock()
	var one [1]V
	for i := lo; i < hi; i++ {
		if !a.present[i] {
			continue
		}
		one[0] = a.vals[i]
		out = append(out, kv.Pair[int, V]{Key: i, Val: reduce(i, one[:])})
	}
	return out
}
