package spill

import (
	"fmt"
	"os"
	"sync"

	"supmr/internal/metrics"
	"supmr/internal/storage"
)

// DefaultBlockSize is the IO granularity for run files: writes and
// reads are charged to the device in blocks of this size, so spill
// traffic looks like the large sequential requests a real spill path
// issues, not per-record dribble.
const DefaultBlockSize = 256 << 10

// Backing is where run payload bytes physically live. The simulated
// Device accounts the time; the backing holds the data. MemBacking
// keeps runs in ordinary heap slices (the default — the substrate is a
// simulation, so "disk" contents can live anywhere); FileBacking puts
// them in real temporary files for runs larger than the harness wants
// resident.
type Backing interface {
	// NewRun allocates storage for one run. id is unique per store.
	NewRun(id int) (RunData, error)
}

// RunData is the payload of a single run: random-access bytes written
// once and read back. WriteAt keeps io.WriterAt's contract — a short
// write returns an error. Close releases the storage.
type RunData interface {
	WriteAt(p []byte, off int64) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Close() error
}

// MemBacking stores run payloads in heap slices.
type MemBacking struct{}

// NewRun returns a growable in-memory run.
func (MemBacking) NewRun(int) (RunData, error) { return &memRun{}, nil }

type memRun struct {
	mu  sync.Mutex
	buf []byte
}

func (m *memRun) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(m.buf)) {
		if need > int64(cap(m.buf)) {
			grown := make([]byte, need, need+need/4)
			copy(grown, m.buf)
			m.buf = grown
		}
		m.buf = m.buf[:need]
	}
	copy(m.buf[off:], p)
	return len(p), nil
}

func (m *memRun) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.buf)) {
		return 0, fmt.Errorf("spill: read at %d past run end %d", off, len(m.buf))
	}
	n := copy(p, m.buf[off:])
	return n, nil
}

func (m *memRun) Close() error {
	m.mu.Lock()
	m.buf = nil
	m.mu.Unlock()
	return nil
}

// FileBacking stores run payloads in temporary files under Dir (the
// OS default temp dir when empty). Files are removed on Close.
type FileBacking struct {
	Dir string
}

// NewRun creates one temporary run file.
func (b FileBacking) NewRun(id int) (RunData, error) {
	f, err := os.CreateTemp(b.Dir, fmt.Sprintf("supmr-spill-%d-*.run", id))
	if err != nil {
		return nil, fmt.Errorf("spill: create run file: %w", err)
	}
	return &fileRun{f: f}, nil
}

type fileRun struct{ f *os.File }

func (r *fileRun) WriteAt(p []byte, off int64) (int, error) { return r.f.WriteAt(p, off) }
func (r *fileRun) ReadAt(p []byte, off int64) (int, error)  { return r.f.ReadAt(p, off) }
func (r *fileRun) Close() error {
	name := r.f.Name()
	err := r.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}

// StoreConfig configures a Store.
type StoreConfig struct {
	// Device charges spill IO time. Required. Use storage.NullDevice to
	// model a free spill path.
	Device storage.Device
	// BlockSize is the IO granularity in bytes (DefaultBlockSize when 0).
	BlockSize int64
	// Backing holds run payloads (MemBacking when nil).
	Backing Backing
}

// StoreStats summarizes a store's spill traffic.
type StoreStats struct {
	Runs    int   // runs written
	Bytes   int64 // total run payload bytes written
	Records int64 // total records written
}

// Store is a run store — a job's spill area, or the memo cache's
// entries: key-sorted runs, each occupying one contiguous device address
// range, laid out back to back and never reused. All IO is charged to the configured Device — writes through the write
// path (storage.ReserveWrite, invalidating any cache in front), reads
// through the normal read path — so spill traffic contends with ingest
// for the same bandwidth, exactly the bottleneck the budget models.
type Store struct {
	dev       storage.Device
	blockSize int64
	backing   Backing

	mu      sync.Mutex
	nextOff int64 // next free device byte (runs are laid out back to back)
	nextID  int
	open    map[int]RunData // backings not yet released, by run ID
	stats   StoreStats
	series  []metrics.SeriesPoint // cumulative Bytes over the device clock
}

// NewStore builds a spill store over cfg.Device.
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("spill: store requires a device")
	}
	if cfg.BlockSize < 0 {
		return nil, fmt.Errorf("spill: block size must be non-negative, got %d", cfg.BlockSize)
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Backing == nil {
		cfg.Backing = MemBacking{}
	}
	return &Store{dev: cfg.Device, blockSize: cfg.BlockSize, backing: cfg.Backing, open: make(map[int]RunData)}, nil
}

// Device returns the device charged for spill IO.
func (s *Store) Device() storage.Device { return s.dev }

// Stats snapshots the spill traffic counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Series returns the cumulative bytes-spilled samples, one per
// completed run, timestamped on the device clock.
func (s *Store) Series() []metrics.SeriesPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]metrics.SeriesPoint, len(s.series))
	copy(out, s.series)
	return out
}

// Close releases every run's backing storage that Release has not.
func (s *Store) Close() error {
	s.mu.Lock()
	open := s.open
	s.open = make(map[int]RunData)
	s.mu.Unlock()
	var first error
	for _, r := range open {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Release closes one run's backing storage ahead of the store's Close;
// the run must not be read afterwards. Releasing a run again is a
// no-op, so each backing is closed exactly once.
func (s *Store) Release(r *Run) error { return s.release(r.id) }

func (s *Store) release(id int) error {
	s.mu.Lock()
	data, ok := s.open[id]
	delete(s.open, id)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return data.Close()
}

// Run describes one completed key-sorted run.
type Run struct {
	id      int
	devOff  int64 // base offset in the device address space
	size    int64 // payload bytes
	records int64
	data    RunData
}

// Size returns the run's payload size in bytes.
func (r *Run) Size() int64 { return r.size }

// Records returns the number of records in the run.
func (r *Run) Records() int64 { return r.records }
