// Package memo is the content-addressed result cache behind incremental
// recompute. Each ingest chunk, identified by the content hash the CDC
// ingest path computes, maps to the serialized map/combine output that
// chunk produced on a previous run. On re-run a hit parks the cached
// output, still encoded, until ingest ends and then folds it back into
// the job's container — the chunk's bytes are read and hashed but never
// mapped — turning a mostly-unchanged job into O(delta) map work.
//
// The store lives on the simulated storage substrate: payload bytes
// occupy a device address range and every read and write is charged to
// the device block by block, so memo traffic contends for the same
// bandwidth as ingest and spill. Entries carry a digest of their
// payload recorded at publish time from the bytes in memory; a read
// that does not reproduce the digest (a torn write that landed only a
// prefix, a corrupted backing) is detected, counted, evicted and
// reported as an error the caller treats as a miss — a damaged cache
// can cost time, never correctness.
package memo

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"supmr/internal/spill"
	"supmr/internal/storage"
)

// DefaultBlockSize is the IO granularity for memo payloads.
const DefaultBlockSize = 64 << 10

// Key addresses one cache entry: a SHA-256 over the key space and the
// chunk content hash (see Cache.Key).
type Key [32]byte

// Config configures a Store.
type Config struct {
	// Device charges memo IO time. Required.
	Device storage.Device
	// BlockSize is the IO granularity in bytes (DefaultBlockSize when 0).
	BlockSize int64
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

// entry is one cached payload. prev/next thread the LRU list (most
// recent at head).
type entry struct {
	key     Key
	data    spill.RunData
	devOff  int64
	size    int64
	records int64
	digest  [32]byte // of the payload, computed at publish from memory

	refs int // in-flight readers holding the backing open
	gone bool
	prev *entry
	next *entry
}

// Store is the content-addressed blob store. All methods are safe for
// concurrent use; device time is never slept on while the lock is held.
type Store struct {
	dev       storage.Device
	blockSize int64
	budget    int64
	backing   spill.Backing

	mu      sync.Mutex
	entries map[Key]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	nextOff int64
	nextID  int
	stats   Stats
}

// NewStore builds a memo store over cfg.Device.
func NewStore(cfg Config) (*Store, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("memo: store requires a device")
	}
	if cfg.BlockSize < 0 {
		return nil, fmt.Errorf("memo: block size must be non-negative, got %d", cfg.BlockSize)
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("memo: budget must be non-negative, got %d", cfg.Budget)
	}
	if cfg.Backing == nil {
		cfg.Backing = spill.MemBacking{}
	}
	return &Store{
		dev:       cfg.Device,
		blockSize: cfg.BlockSize,
		budget:    cfg.Budget,
		backing:   cfg.Backing,
		entries:   make(map[Key]*entry),
	}, nil
}

// Device returns the device charged for memo IO.
func (s *Store) Device() storage.Device { return s.dev }

// Stats snapshots the cache counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// lruUnlink removes e from the LRU list. Caller holds s.mu.
func (s *Store) lruUnlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lruPush makes e the most recently used. Caller holds s.mu.
func (s *Store) lruPush(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// dropLocked removes e from the index and LRU and returns its backing
// for closing — deferred while readers still hold it. Caller holds s.mu.
func (s *Store) dropLocked(e *entry) spill.RunData {
	delete(s.entries, e.key)
	s.lruUnlink(e)
	e.gone = true
	s.stats.Entries--
	s.stats.Bytes -= e.size
	if e.refs == 0 {
		return e.data
	}
	return nil
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
	s.lruUnlink(e)
	s.lruPush(e)
	e.refs++
	s.mu.Unlock()

	payload, err := s.readPayload(e)
	if err == nil && sha256.Sum256(payload) != e.digest {
		err = fmt.Errorf("memo: entry %x: payload digest mismatch (torn write)", k[:4])
		s.mu.Lock()
		s.stats.Torn++
		s.mu.Unlock()
	}
	if err == nil && check != nil {
		if err = check(payload, e.records); err != nil {
			err = fmt.Errorf("memo: entry %x: %w", k[:4], err)
		}
	}

	s.mu.Lock()
	e.refs--
	var toClose spill.RunData
	if err != nil {
		s.stats.ReadErrors++
		if !e.gone {
			toClose = s.dropLocked(e)
		}
	}
	if e.gone && e.refs == 0 && toClose == nil {
		toClose = e.data
	}
	if err == nil {
		s.stats.Hits++
	}
	s.mu.Unlock()
	if toClose != nil {
		toClose.Close()
	}
	if err != nil {
		return nil, 0, err
	}
	return payload, e.records, nil
}

// readPayload reserves the entry's device extent block by block (the
// fallible read path — injected faults surface here), sleeps once on
// the latest deadline, then copies the bytes out of the backing.
func (s *Store) readPayload(e *entry) ([]byte, error) {
	deadline := s.dev.Clock().Now()
	for off := int64(0); off < e.size; off += s.blockSize {
		n := s.blockSize
		if rem := e.size - off; n > rem {
			n = rem
		}
		dl, err := storage.TryReserve(s.dev, e.devOff+off, n)
		if err != nil {
			return nil, fmt.Errorf("memo: read entry %x: %w", e.key[:4], err)
		}
		if dl > deadline {
			deadline = dl
		}
	}
	s.dev.Clock().SleepUntil(deadline)
	buf := make([]byte, e.size)
	if err := readFull(e.data, buf); err != nil {
		return nil, fmt.Errorf("memo: read entry %x: %w", e.key[:4], err)
	}
	return buf, nil
}

// readFull fills buf from data at offset 0, looping over short reads.
func readFull(data spill.RunData, buf []byte) error {
	off := int64(0)
	for len(buf) > 0 {
		n, err := data.ReadAt(buf, off)
		if n > 0 {
			buf = buf[n:]
			off += int64(n)
			continue
		}
		if err != nil {
			return err
		}
		return fmt.Errorf("memo: backing returned no progress at offset %d", off)
	}
	return nil
}

// Put publishes payload under k, charging the device write path. The
// digest is computed from payload here — before the fallible backing
// write — so a tear that lands only a prefix is caught at the next Get.
// Replacing an existing key drops the old entry. An error leaves the
// cache unchanged (beyond counters); callers skip publication and move
// on — a failed Put never fails the job.
func (s *Store) Put(k Key, payload []byte, records int64) error {
	if int64(len(payload)) > s.budget && s.budget > 0 {
		// Larger than the whole budget: storing it would immediately
		// evict everything including itself. Count it as a write miss.
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		return fmt.Errorf("memo: payload %d bytes exceeds budget %d", len(payload), s.budget)
	}
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()

	data, err := s.backing.NewRun(id)
	if err != nil {
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		return fmt.Errorf("memo: allocate entry: %w", err)
	}
	digest := sha256.Sum256(payload)
	if err := writeFull(data, payload); err != nil {
		data.Close()
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		return fmt.Errorf("memo: write entry %x: %w", k[:4], err)
	}

	size := int64(len(payload))
	s.mu.Lock()
	base := s.nextOff
	s.nextOff += size
	e := &entry{key: k, data: data, devOff: base, size: size, records: records, digest: digest}
	var closers []spill.RunData
	if old, ok := s.entries[k]; ok {
		if c := s.dropLocked(old); c != nil {
			closers = append(closers, c)
		}
	}
	s.entries[k] = e
	s.lruPush(e)
	s.stats.Entries++
	s.stats.Bytes += size
	s.stats.Stored++
	for s.budget > 0 && s.stats.Bytes > s.budget && s.tail != nil && s.tail != e {
		victim := s.tail
		if c := s.dropLocked(victim); c != nil {
			closers = append(closers, c)
		}
		s.stats.Evicted++
	}
	s.mu.Unlock()
	for _, c := range closers {
		c.Close()
	}

	// Charge the device write path for the published extent, block by
	// block, after the metadata is in place — the sleep happens off-lock.
	deadline := s.dev.Clock().Now()
	for off := int64(0); off < size; off += s.blockSize {
		n := s.blockSize
		if rem := size - off; n > rem {
			n = rem
		}
		if dl := storage.ReserveWrite(s.dev, base+off, n); dl > deadline {
			deadline = dl
		}
	}
	s.dev.Clock().SleepUntil(deadline)
	return nil
}

// writeFull writes payload to data at offset 0, looping over short
// writes.
func writeFull(data spill.RunData, payload []byte) error {
	off := int64(0)
	for len(payload) > 0 {
		n, err := data.WriteAt(payload, off)
		if err != nil {
			return err
		}
		if n <= 0 {
			return fmt.Errorf("memo: backing accepted no bytes at offset %d", off)
		}
		payload = payload[n:]
		off += int64(n)
	}
	return nil
}

// Close releases every entry's backing storage.
func (s *Store) Close() error {
	s.mu.Lock()
	var closers []spill.RunData
	for _, e := range s.entries {
		e.gone = true
		if e.refs == 0 {
			closers = append(closers, e.data)
		}
	}
	s.entries = make(map[Key]*entry)
	s.head, s.tail = nil, nil
	s.stats.Entries = 0
	s.stats.Bytes = 0
	s.mu.Unlock()
	var first error
	for _, c := range closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
