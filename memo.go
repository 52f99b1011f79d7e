package supmr

import (
	"supmr/internal/memo"
	"supmr/internal/spill"
	"supmr/internal/storage"
)

// This file exposes the content-addressed memo cache (internal/memo)
// through the public API: a MemoStore holds memoized per-chunk
// map/combine output keyed by chunk content hash, so re-running a job
// over input that mostly matches a previous run replays the cached
// output instead of mapping again. Enable it with Config.Memo; share
// one store across runs (or set EngineConfig.Memo to share it across
// engine submissions) to make re-runs incremental.

// MemoStats counts memo-store traffic: hits, misses, stored and
// evicted entries, torn writes detected on read-back, and current
// occupancy. See MemoStore.Stats.
type MemoStats = memo.Stats

// MemoConfig sizes a MemoStore.
type MemoConfig struct {
	// Device charges the cache's read and write IO; point it at the
	// ingest device so cache traffic contends for the same bandwidth.
	// Defaults to an infinitely fast device on Clock.
	Device Device
	// Clock backs the default device (default: wall clock). Ignored
	// when Device is set.
	Clock Clock
	// Budget caps the store's resident payload bytes; least-recently
	// used entries evict beyond it. Default 64 MiB.
	Budget int64
	// Faults, when set, injects the injector's fault plan into the
	// cache: device reservations fault under site "memo" and each
	// entry's payload under its own "memoN" site, so cache reads can
	// fail and cache writes can tear. A torn entry is detected via its
	// stored digest and treated as a miss — cache faults never corrupt
	// job output.
	Faults *FaultInjector
}

// MemoStore is a shared content-addressed cache of per-chunk
// map/combine output. Safe for concurrent use; one store may serve
// many runs, jobs and engine submissions. Close releases its entries.
type MemoStore struct {
	store *memo.Store
}

// NewMemoStore builds a memo store on the simulated storage substrate.
func NewMemoStore(cfg MemoConfig) (*MemoStore, error) {
	dev := cfg.Device
	if dev == nil {
		clk := cfg.Clock
		if clk == nil {
			clk = storage.NewRealClock()
		}
		dev = storage.NewNullDevice(clk)
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = 64 << 20
	}
	mc := memo.Config{Device: dev, Budget: budget}
	if cfg.Faults != nil {
		mc.Device = cfg.Faults.WrapDevice("memo", dev)
		mc.Backing = faultBacking{inj: cfg.Faults, inner: spill.MemBacking{}, prefix: "memo"}
	}
	st, err := memo.NewStore(mc)
	if err != nil {
		return nil, err
	}
	return &MemoStore{store: st}, nil
}

// Stats snapshots the store's counters and occupancy.
func (m *MemoStore) Stats() MemoStats { return m.store.Stats() }

// Close releases the store's entries. Runs using the store must have
// finished.
func (m *MemoStore) Close() error { return m.store.Close() }

// memoStoreFor resolves the store a memoized run uses: the config's
// explicit store, else the substrate's (engine) store, else a fresh
// private store living only for this run (returned as owned for the
// caller to close). Private stores inherit the config's fault plan so
// -memo solo runs exercise the same injection sites as shared stores.
func (c Config) memoStoreFor(sub runSubstrate) (st *MemoStore, owned bool, err error) {
	if c.MemoStore != nil {
		return c.MemoStore, false, nil
	}
	if sub.memo != nil {
		return sub.memo, false, nil
	}
	st, err = NewMemoStore(MemoConfig{
		Clock:  sub.clk,
		Budget: c.MemoBudget,
		Faults: c.Faults,
	})
	if err != nil {
		return nil, false, err
	}
	return st, true, nil
}
