package sortalgo

// ScatterSort: the fixed-key form of the single merge round. For a
// fixed-width key the leading digit that varies is an exact splitter —
// no sampling, and under an order prefix still a consistent one — and
// sorting each digit's bucket leaves nothing to merge
// (Goodrich, Sitchinava and Zhang: one distribution round, then
// independent local sorts). The reduce runs therefore skip both the
// per-run sort and the loser tree:
//
//  1. encode every key once into a row arena, in parallel per run, noting
//     the first digit at which the keys differ;
//  2. count each run's keys on d0, the first digit that varies;
//  3. scatter every run's pairs, and their rows, to disjoint offsets in
//     the output — bucket-major, then run order, then position;
//  4. LSD-sort each bucket in place over its own varying digits, one
//     executor task per bucket, in cache; under a prefix codec, sort
//     each stretch of equal prefixes by less.
//
// A bucket larger than a p-way merge worker's share (⌈n/workers⌉) is
// split again on its next varying digit before step 4, so one hot
// leading byte cannot serialize the round. Only a bucket whose rows are
// all equal cannot be split: under an exact codec its keys are equal
// and it needs no sort at all, but under a prefix codec its keys still
// need sorting by less, so the finish declines — the comparison path
// splits such keys by sampled splitters — rather than sort it in one
// task (the tie guard).

import (
	"slices"
	"sync/atomic"

	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
)

// ScatterSort sorts the pairs of runs (each in any order) into one new
// array by the codec's fixed-width key encoding. Equal keys keep (run,
// position) order — the p-way merge's tie rule — so the output equals a
// stable sort of the runs concatenated in run order, which is what
// SortRunsWith followed by PWayMergeWith produces whenever keys are
// unique within each run.
//
// Under a prefix codec less orders the keys whose encodings tie; an
// exact codec never consults it.
//
// It returns ok=false, with every run untouched, when any key fails to
// encode, the runs hold fewer than radixMinLen pairs in total, or a
// prefix codec gives more than ⌈n/workers⌉ keys one encoding; the
// caller then takes the SortRunsWith + PWayMergeWith path. The runs are
// only read, never reordered. On ex's record, encode, count and scatter
// bill to PhaseMerge and the bucket sorts to PhaseRunSort.
func ScatterSort[K any, V any](runs [][]kv.Pair[K, V], less kv.Less[K], codec kv.FixedKeyCodec[K], ex exec.Executor) (out []kv.Pair[K, V], ok bool, err error) {
	rec := ex.Record()
	rec.StartPhase(metrics.PhaseMerge)
	p, ok, err := scatter(runs, less, codec, ex)
	rec.EndPhase(metrics.PhaseMerge)
	if !ok || err != nil {
		return nil, ok, err
	}
	defer putScratchBytes(p.rows)
	rec.StartPhase(metrics.PhaseRunSort)
	defer rec.EndPhase(metrics.PhaseRunSort)
	_, err = ex.ForEach("sort", metrics.StateUser, len(p.tasks), func(t int) error {
		s := p.tasks[t]
		lsdSort(p.out[s.lo:s.hi], p.rows[s.lo*p.w:s.hi*p.w], p.w, p.ties)
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	return p.out, true, nil
}

// span is the output range [lo, hi) of one bucket.
type span struct{ lo, hi int }

// bucketPlan is a scattered output waiting for its bucket sorts.
type bucketPlan[K any, V any] struct {
	out   []kv.Pair[K, V]
	rows  []byte // rows[i*w:(i+1)*w] encodes out[i].Key; a pooled arena
	w     int
	ties  kv.Less[K] // orders equal rows under a prefix codec; nil under an exact one
	tasks []span     // buckets of 2 to ⌈n/workers⌉ pairs
}

// scatter runs steps 1–3 and the skew and tie guards. ok=false means a
// decline: nothing was written to the runs and nothing is left to
// release.
func scatter[K any, V any](runs [][]kv.Pair[K, V], less kv.Less[K], codec kv.FixedKeyCodec[K], ex exec.Executor) (*bucketPlan[K, V], bool, error) {
	w := codec.Width
	offs := make([]int, len(runs)+1)
	first := -1
	for r, run := range runs {
		offs[r+1] = offs[r] + len(run)
		if first < 0 && len(run) > 0 {
			first = r
		}
	}
	n := offs[len(runs)]
	if n < radixMinLen || w <= 0 || n >= 1<<31 {
		return nil, false, nil
	}

	// 1. Encode. Every run notes the first digit at which any of its
	// keys differs from one reference key; the least of these is d0, the
	// first digit that varies. With none, every row is equal and digit 0
	// puts them all in one bucket, which the guards take up.
	ref := make([]byte, w)
	if !codec.Put(ref, runs[first][0].Key) {
		return nil, false, nil
	}
	rows := getScratchBytes(n * w)
	defer putScratchBytes(rows)
	firstDiff := make([]int, len(runs))
	var bad atomic.Bool
	if _, err := ex.ForEach("merge", metrics.StateUser, len(runs), func(r int) error {
		lim := w
		base := offs[r] * w
		for i, pr := range runs[r] {
			row := rows[base+i*w : base+i*w+w]
			if !codec.Put(row, pr.Key) {
				bad.Store(true)
				return nil
			}
			for d := 0; d < lim; d++ {
				if row[d] != ref[d] {
					lim = d
				}
			}
		}
		firstDiff[r] = lim
		return nil
	}); err != nil || bad.Load() {
		return nil, false, err
	}
	d0 := slices.Min(firstDiff)
	if d0 == w {
		// One bucket of every pair. Under a prefix codec its keys still
		// need sorting by less, and with more than one worker it is over
		// the share, which plan would find only after the count and the
		// scatter: the tie guard declines here.
		if codec.Prefix && ex.Workers() > 1 {
			return nil, false, nil
		}
		d0 = 0
	}

	// 2. Count each run's keys on d0.
	counts := make([][256]uint32, len(runs))
	if _, err := ex.ForEach("merge", metrics.StateUser, len(runs), func(r int) error {
		var c [256]uint32
		for i := offs[r]; i < offs[r+1]; i++ {
			c[rows[i*w+d0]]++
		}
		counts[r] = c
		return nil
	}); err != nil {
		return nil, false, err
	}

	// 3. Scatter. Offsets run bucket-major, then in run order, so equal
	// keys land in (run, position) order; counts[r][v] becomes run r's
	// write cursor into bucket v.
	var ends [256]int
	pos := uint32(0)
	for v := range ends {
		for r := range counts {
			c := counts[r][v]
			counts[r][v] = pos
			pos += c
		}
		ends[v] = int(pos)
	}
	p := &bucketPlan[K, V]{out: make([]kv.Pair[K, V], n), rows: getScratchBytes(n * w), w: w, ties: tieLess(codec, less)}
	if _, err := ex.ForEach("merge", metrics.StateUser, len(runs), func(r int) error {
		cur := counts[r]
		src := rows[offs[r]*w : offs[r+1]*w]
		for i, pr := range runs[r] {
			row := src[i*w : i*w+w]
			at := cur[row[d0]]
			cur[row[d0]]++
			p.out[at] = pr
			copy(p.rows[int(at)*w:int(at)*w+w], row)
		}
		return nil
	}); err != nil {
		putScratchBytes(p.rows)
		return nil, false, err
	}

	buckets := make([]span, 0, len(ends))
	lo := 0
	for _, hi := range ends {
		buckets = append(buckets, span{lo, hi})
		lo = hi
	}
	if ok, err := p.plan(buckets, ex); !ok || err != nil {
		putScratchBytes(p.rows)
		return nil, false, err
	}
	return p, true, nil
}

// plan is the skew guard: it files buckets of at most ⌈n/workers⌉ pairs
// as sort tasks and splits larger ones on their next varying digit,
// round by round, until none is left over the share. A larger bucket
// whose rows are all equal cannot be split. Under an exact codec it is
// dropped, being already in order; under a prefix codec it returns
// false, the tie guard's decline. Singletons and empty buckets are
// dropped too.
func (p *bucketPlan[K, V]) plan(buckets []span, ex exec.Executor) (bool, error) {
	workers := ex.Workers()
	if workers < 1 {
		workers = 1
	}
	limit := (len(p.out) + workers - 1) / workers
	for len(buckets) > 0 {
		var big []span
		for _, s := range buckets {
			switch m := s.hi - s.lo; {
			case m < 2:
			case m <= limit:
				p.tasks = append(p.tasks, s)
			default:
				big = append(big, s)
			}
		}
		split := make([][]span, len(big))
		if _, err := ex.ForEach("merge", metrics.StateUser, len(big), func(i int) error {
			split[i] = p.split(big[i])
			return nil
		}); err != nil {
			return false, err
		}
		buckets = buckets[:0]
		for _, ss := range split {
			if ss == nil && p.ties != nil {
				return false, nil
			}
			buckets = append(buckets, ss...)
		}
	}
	return true, nil
}

// split stably partitions the bucket s on its first varying digit,
// moving pairs and rows together, and returns the sub-buckets; nil when
// every row in s is equal.
func (p *bucketPlan[K, V]) split(s span) []span {
	w, m := p.w, s.hi-s.lo
	rows := p.rows[s.lo*w : s.hi*w]
	scratch := getScratchIdx(2*m + 256*w)
	defer putScratchIdx(scratch)
	a, b, counts := scratch[:m], scratch[m:2*m], scratch[2*m:]
	histogram(rows, w, counts)
	d := 0
	for d < w && !varies((*[256]uint32)(counts[d*256:]), m) {
		d++
	}
	if d == w {
		return nil
	}
	for i := range a {
		a[i] = uint32(i)
	}
	ends := (*[256]uint32)(counts[d*256:])
	digitPass(a, b, rows, w, d, ends)
	moved := getScratchBytes(m * w)
	for j, id := range b {
		copy(moved[j*w:j*w+w], rows[int(id)*w:int(id)*w+w])
	}
	copy(rows, moved)
	putScratchBytes(moved)
	permute(p.out[s.lo:s.hi], b)

	subs := make([]span, 0, len(ends))
	lo := s.lo
	for _, end := range ends {
		subs = append(subs, span{lo, s.lo + int(end)})
		lo = s.lo + int(end)
	}
	return subs
}
