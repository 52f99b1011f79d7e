// Package memo is the content-addressed result cache behind incremental
// recompute. Each ingest chunk, identified by the content hash the CDC
// ingest path computes, maps to the serialized map/combine output that
// chunk produced on a previous run. On re-run a hit folds the cached
// output, still encoded, into the job's container — the chunk's bytes
// are read and hashed but never mapped — turning a mostly-unchanged job
// into O(delta) map work.
//
// A cache entry is a spill run: the chunk's drained output in the one
// record format (spill.AppendRecord), held by a spill.Store over the
// memo device. That store lays entries out on the simulated storage
// substrate and charges every read and write to the device block by
// block, so memo traffic contends for the same bandwidth as ingest and
// spill. This package keeps only the index over those runs: keys, the
// LRU and its budget, readers' references, and a digest of each
// payload recorded at publish time from the bytes in memory. A read
// that does not reproduce the digest (a torn write that landed only a
// prefix, a corrupted backing) is detected, counted, evicted and
// reported as an error the caller treats as a miss — a damaged cache
// can cost time, never correctness.
package memo

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"

	"supmr/internal/spill"
	"supmr/internal/storage"
)

// blockSize is the IO granularity for memo payloads.
const blockSize = 64 << 10

// Key addresses one cache entry: a SHA-256 over the key space and the
// chunk content hash (see Cache.Key).
type Key [32]byte

// Config configures a Store.
type Config struct {
	// Device charges memo IO time. Required.
	Device storage.Device
	// Budget caps resident payload bytes; least-recently-used entries
	// are evicted to stay under it. 0 means unbounded.
	Budget int64
	// Backing holds entry payloads (spill.MemBacking when nil). Wrap it
	// to inject write faults.
	Backing spill.Backing
}

// Stats summarizes cache traffic. Hits/Misses count Get outcomes;
// Torn counts digest mismatches detected on read (each also surfaces
// as a ReadError and evicts the entry).
type Stats struct {
	Hits        int64
	Misses      int64
	Stored      int64 // successful Puts
	Evicted     int64 // LRU evictions (budget pressure)
	Torn        int64 // digest mismatches detected on read
	ReadErrors  int64 // failed Gets of present entries (faults, torn, malformed)
	WriteErrors int64 // failed Puts
	Entries     int   // resident entries
	Bytes       int64 // resident payload bytes
}

// entry is one cached run.
type entry struct {
	key    Key
	run    *spill.Run
	digest [32]byte      // of the payload, computed at publish from memory
	lru    *list.Element // its place in Store.lru

	refs int // in-flight readers holding the run open
	gone bool
}

// Store is the content-addressed index over a run store. All methods
// are safe for concurrent use; device time is never slept on while the
// lock is held.
type Store struct {
	runs   *spill.Store
	budget int64

	mu      sync.Mutex
	entries map[Key]*entry
	lru     list.List // of *entry, most recently used at the front
	stats   Stats
}

// NewStore builds a memo store over cfg.Device.
func NewStore(cfg Config) (*Store, error) {
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("memo: budget must be non-negative, got %d", cfg.Budget)
	}
	runs, err := spill.NewStore(spill.StoreConfig{Device: cfg.Device, BlockSize: blockSize, Backing: cfg.Backing})
	if err != nil {
		return nil, fmt.Errorf("memo: %w", err)
	}
	return &Store{runs: runs, budget: cfg.Budget, entries: make(map[Key]*entry)}, nil
}

// Stats snapshots the cache counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// dropLocked removes e from the index and LRU and appends its run to
// idle for release — unless readers still hold it: the last of them
// releases it. Caller holds s.mu.
func (s *Store) dropLocked(e *entry, idle []*spill.Run) []*spill.Run {
	delete(s.entries, e.key)
	s.lru.Remove(e.lru)
	e.gone = true
	s.stats.Entries--
	s.stats.Bytes -= e.run.Size()
	if e.refs == 0 {
		idle = append(idle, e.run)
	}
	return idle
}

// Get returns the payload published under k, charging the device read
// path. A (nil, 0, nil) return is a clean miss. A non-nil error means
// the entry was present but unreadable — an injected device fault or a
// torn write caught by the digest — and the caller must fall back to
// recomputing; the damaged entry is evicted.
func (s *Store) Get(k Key) ([]byte, int64, error) { return s.get(k, nil) }

// get is Get with an optional check of the digest-verified payload (the
// typed layer's decoder), run before the outcome is counted: a payload
// the check refuses fails the read exactly like a torn one — a read
// error, never a hit, and the entry is evicted.
func (s *Store) get(k Key, check func(payload []byte, records int64) error) ([]byte, int64, error) {
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, 0, nil
	}
	s.lru.MoveToFront(e.lru)
	e.refs++
	s.mu.Unlock()

	payload, err := s.runs.ReadRun(e.run)
	if err != nil {
		err = fmt.Errorf("memo: read entry %x: %w", k[:4], err)
	}
	if err == nil && sha256.Sum256(payload) != e.digest {
		err = fmt.Errorf("memo: entry %x: payload digest mismatch (torn write)", k[:4])
		s.mu.Lock()
		s.stats.Torn++
		s.mu.Unlock()
	}
	if err == nil && check != nil {
		if err = check(payload, e.run.Records()); err != nil {
			err = fmt.Errorf("memo: entry %x: %w", k[:4], err)
		}
	}

	s.mu.Lock()
	e.refs--
	if err != nil {
		s.stats.ReadErrors++
		if !e.gone {
			s.dropLocked(e, nil)
		}
	} else {
		s.stats.Hits++
	}
	release := e.gone && e.refs == 0
	s.mu.Unlock()
	if release {
		s.runs.Release(e.run)
	}
	if err != nil {
		return nil, 0, err
	}
	return payload, e.run.Records(), nil
}

// Put publishes payload under k, charging the device write path. The
// digest is computed from payload here — before the fallible backing
// write — so a tear that lands only a prefix is caught at the next Get.
// Replacing an existing key drops the old entry. An error leaves the
// cache unchanged (beyond counters); callers skip publication and move
// on — a failed Put never fails the job.
func (s *Store) Put(k Key, payload []byte, records int64) error {
	err := s.put(k, payload, records)
	if err != nil {
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
	}
	return err
}

func (s *Store) put(k Key, payload []byte, records int64) error {
	if int64(len(payload)) > s.budget && s.budget > 0 {
		// Larger than the whole budget: storing it would immediately
		// evict everything including itself. Count it as a write miss.
		return fmt.Errorf("memo: payload %d bytes exceeds budget %d", len(payload), s.budget)
	}
	digest := sha256.Sum256(payload)
	run, err := s.runs.WriteRun(payload, records)
	if err != nil {
		return fmt.Errorf("memo: write entry %x: %w", k[:4], err)
	}

	e := &entry{key: k, run: run, digest: digest}
	s.mu.Lock()
	var idle []*spill.Run
	if old, ok := s.entries[k]; ok {
		idle = s.dropLocked(old, idle)
	}
	s.entries[k] = e
	e.lru = s.lru.PushFront(e)
	s.stats.Entries++
	s.stats.Bytes += run.Size()
	s.stats.Stored++
	for s.budget > 0 && s.stats.Bytes > s.budget && s.lru.Back().Value != e {
		idle = s.dropLocked(s.lru.Back().Value.(*entry), idle)
		s.stats.Evicted++
	}
	s.mu.Unlock()
	return s.release(idle)
}

// Close releases every entry's run; one a Get still reads is released
// when that Get returns.
func (s *Store) Close() error {
	s.mu.Lock()
	var idle []*spill.Run
	for _, e := range s.entries {
		idle = s.dropLocked(e, idle)
	}
	s.mu.Unlock()
	return s.release(idle)
}

// release closes the given runs' backings, returning the first error.
func (s *Store) release(runs []*spill.Run) error {
	var first error
	for _, r := range runs {
		if err := s.runs.Release(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}
