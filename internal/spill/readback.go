package spill

import (
	"fmt"
	"io"

	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
	"supmr/internal/sortalgo"
)

// This file is the way back from the store: the one run decoder, the
// sources it backs, and the external merge that reads them a block
// ahead.

// Sources returns one streaming source per completed run, in spill
// order. The sources read and decode on the caller's goroutine, block
// by block as they are consumed. Callers must Join first.
func (sp *Spiller[K, V]) Sources() []sortalgo.Source[K, V] {
	srcs := sp.sources(nil, "")
	out := make([]sortalgo.Source[K, V], len(srcs))
	for i, s := range srcs {
		out[i] = s
	}
	return out
}

func (sp *Spiller[K, V]) sources(pool exec.Executor, label string) []*runSource[K, V] {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	srcs := make([]*runSource[K, V], len(sp.runs))
	for i, r := range sp.runs {
		s := &runSource[K, V]{r: sp.store.OpenRun(r), kc: sp.kc, vc: sp.vc, pool: pool, label: label}
		s.work = s.decode
		srcs[i] = s
	}
	return srcs
}

// Merge is the external merge: every spilled run, in spill order, then
// residue — the key-sorted pairs still resident — stream through one
// block-tree pass that re-reduces keys split across them, as one task
// on pool under label. The pass itself is serial; the other workers
// are used by reading and decoding each run one block ahead of the
// tree on the pool's IO lanes. Every block read is issued — reserved on
// the store's device, where a fault plan sees it — by the one merging
// goroutine, in an order that is a pure function of the runs' content;
// only the device wait, the copy and the decode happen on a lane.
// Resident decoded data is two blocks per run, never a whole run.
// Callers must Join first.
func (sp *Spiller[K, V]) Merge(residue []kv.Pair[K, V], pool exec.Executor, label string) ([]kv.Pair[K, V], error) {
	runs := sp.sources(pool, label)
	// A failed or cancelled pass leaves reads in flight; they hold the
	// readers and count at the fault sites, so they finish before the
	// job reports.
	defer func() {
		for _, s := range runs {
			if s.pending != nil {
				s.pending()
			}
		}
	}()
	// Every source holds distinct keys, so the longest is a lower bound
	// on the output; how far reduce collapses the rest shows as it goes.
	atLeast, total := int64(len(residue)), int64(len(residue))
	srcs := make([]sortalgo.Source[K, V], 0, len(runs)+1)
	for _, s := range runs {
		if err := s.start(); err != nil {
			return nil, err
		}
		srcs = append(srcs, s)
		atLeast, total = max(atLeast, s.r.run.records), total+s.r.run.records
	}
	if len(residue) > 0 {
		srcs = append(srcs, sortalgo.NewSliceSource(residue))
	}
	merged := make([]kv.Pair[K, V], 0, atLeast)
	_, err := pool.ForEach(label, metrics.StateUser, 1, func(int) (err error) {
		merged, err = sortalgo.MergeSourcesWith(srcs, sp.less, sp.fixed, sp.reduce, merged, int(total))
		return err
	})
	if err != nil {
		return nil, err
	}
	return merged, nil
}

// RecordCountError reports a run whose payload decoded cleanly to a
// different number of records than its run-table entry states: the run
// was truncated or extended on a record boundary.
type RecordCountError struct {
	Run       int
	Got, Want int64
}

func (e *RecordCountError) Error() string {
	return fmt.Sprintf("spill: run %d decoded %d records, its run table says %d", e.Run, e.Got, e.Want)
}

// decodeBlock is how many records a run source decodes at a time: the
// size of the pair blocks it reuses, whatever the records' length.
const decodeBlock = 4096

// runSource is the one run decoder: it turns a RunReader's bytes into
// pairs with the spiller's codecs, up to decodeBlock records at a time
// into a reused pair block, and hands them out through either Source
// method. String fields are cut from one arena string per block. With a
// pool, the block after the one being handed out is read and decoded on
// an IO lane meanwhile (see Spiller.Merge); without, on the caller.
type runSource[K comparable, V any] struct {
	r       *RunReader
	kc      Codec[K]
	vc      Codec[V]
	pool    exec.Executor
	label   string
	blk     []kv.Pair[K, V] // decoded block being handed out, from pos
	pos     int
	next    []kv.Pair[K, V] // the block decoded ahead; the decode's until pending returns
	read    blockRead       // the read issued for the started decode; zero if it needs none
	work    func() error    // decode, bound once
	pending func() error    // finishes the started decode: joins the lane, or runs it
	fed     bool            // the reader's buffer may still hold a whole record
	decoded int64           // records decoded so far, checked against the run table at the end
	arena   []byte
	ends    []int // end offset in arena of each string field, in decode order
}

// start prepares the run's next decode, if it has one left: it issues
// the next block read when the buffer has nothing more to decode, then
// sends the decode to an IO lane or, without a pool, leaves it for load
// to run. The read is issued here, on the consuming goroutine and never
// on a lane, so the reads of all of a job's runs are issued in one
// serial order.
func (s *runSource[K, V]) start() error {
	s.read = blockRead{}
	if !s.fed {
		if !s.r.more() {
			return nil
		}
		var err error
		if s.read, err = s.r.issue(); err != nil {
			return err
		}
	}
	if s.pool == nil {
		s.pending = s.work
	} else {
		s.pending = s.pool.GoIO(s.label, metrics.StateIOWait, s.work).Wait
	}
	return nil
}

// decode is the started decode: it completes the read start issued, if
// it issued one, and refills next from the buffer.
func (s *runSource[K, V]) decode() (err error) {
	if s.read.n > 0 {
		if err := s.r.fill(s.read); err != nil {
			return err
		}
	}
	if s.next == nil {
		s.next = make([]kv.Pair[K, V], 0, decodeBlock)
	}
	s.next, err = s.records(s.next[:0])
	return err
}

// records decodes whole records from the reader's buffer onto dst until
// dst is full or the buffer holds no more of them.
func (s *runSource[K, V]) records(dst []kv.Pair[K, V]) ([]kv.Pair[K, V], error) {
	s.arena, s.ends, s.fed = s.arena[:0], s.ends[:0], true
	for len(dst) < cap(dst) {
		key, val, ok, err := s.r.buffered()
		if err != nil {
			return dst, err
		}
		if !ok {
			// Only a read adds to the buffer; at the end of the run a
			// partial record is left over for good.
			if err := s.r.atEnd(); err != nil && err != io.EOF {
				return dst, err
			}
			s.fed = false
			break
		}
		var p kv.Pair[K, V]
		if s.kc.Str != nil {
			s.arena = append(s.arena, key...)
			s.ends = append(s.ends, len(s.arena))
		} else if p.Key, err = s.kc.Decode(key); err != nil {
			return dst, fmt.Errorf("spill: run %d: key: %w", s.r.run.id, err)
		}
		if s.vc.Str != nil {
			s.arena = append(s.arena, val...)
			s.ends = append(s.ends, len(s.arena))
		} else if p.Val, err = s.vc.Decode(val); err != nil {
			return dst, fmt.Errorf("spill: run %d: value: %w", s.r.run.id, err)
		}
		dst = append(dst, p)
	}
	s.decoded += int64(len(dst))
	if len(s.ends) > 0 {
		arena, at, e := string(s.arena), 0, 0
		for i := range dst {
			if s.kc.Str != nil {
				dst[i].Key, at, e = s.kc.Str(arena[at:s.ends[e]]), s.ends[e], e+1
			}
			if s.vc.Str != nil {
				dst[i].Val, at, e = s.vc.Str(arena[at:s.ends[e]]), s.ends[e], e+1
			}
		}
	}
	return dst, nil
}

// load makes blk the run's next non-empty decoded block, or leaves it
// empty at the end of the run, where the record count is checked.
func (s *runSource[K, V]) load() error {
	for {
		s.blk, s.pos = s.blk[:0], 0
		if s.pending == nil {
			if err := s.start(); err != nil {
				return err
			}
			if s.pending == nil {
				return s.end()
			}
		}
		err := s.pending()
		s.pending = nil
		if err != nil {
			return err
		}
		s.blk, s.next = s.next, s.blk
		if s.pool != nil {
			if err := s.start(); err != nil { // stay one block ahead
				return err
			}
		}
		if len(s.blk) > 0 {
			return nil
		}
	}
}

// end checks the run delivered the record count its run table states.
func (s *runSource[K, V]) end() error {
	if run := s.r.run; s.decoded != run.records {
		return &RecordCountError{Run: run.id, Got: s.decoded, Want: run.records}
	}
	return nil
}

func (s *runSource[K, V]) NextBlock(dst []kv.Pair[K, V]) (int, error) {
	if s.pos == len(s.blk) {
		if err := s.load(); err != nil {
			return 0, err
		}
	}
	n := copy(dst, s.blk[s.pos:])
	s.pos += n
	return n, nil
}

func (s *runSource[K, V]) Next() (kv.Pair[K, V], bool, error) {
	var one [1]kv.Pair[K, V]
	n, err := s.NextBlock(one[:])
	return one[0], n == 1, err
}
