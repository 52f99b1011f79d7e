package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"supmr"
	"supmr/internal/storage"
	gen "supmr/internal/workload"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

// workload is one named set of inputs and one configuration of the
// runtime. why records what it is there to show.
type workload struct {
	name  string
	why   string
	setup func(seed uint64, scale int64) (unit, error)
}

// workloads, in report order. scale divides every size (1 for real
// runs, 16 for the smoke test).
var workloads = []workload{
	{"wc-cpu", "word count over in-memory input: map and the flat combiner are ~all of the job, ingest none of it, so a map, container or allocation change shows here", setupWCCPU},
	{"wc-disk", "word count on a throttled 3-disk RAID-0: the paper's scenario, ingest-bound with map hidden under reads, so an ingest or prefetch change moves it and a map speed-up must not", setupWCDisk},
	{"sort-mem", "sort of unique 10-byte keys in memory: run-sort and the p-way merge dominate, the paper's second claim", setupSortMem},
	{"sort-ooc", "sort under a memory budget with egress: spill, streaming merge and output writes on one device, the same layers as sort-mem used differently", setupSortOOC},
	{"wc-nodes4", "word count on a simulated 4-node cluster: partitioning, framing and the in-node combiner, today several times slower than single-node", setupWCNodes},
	{"wc-memo-append", "word count re-run with a fresh 256 KiB appended each time on a warm memo store: content-defined chunking, cache get/put and the re-reducing merge", setupWCMemo},
	{"engine-mix", "six mixed submissions from two clients on one shared engine: the scheduler, shared worker pool and shared chunk freelist under concurrency", setupEngineMix},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// unit is a set-up workload: something that can run one timed
// iteration, verified, and push the same input through the driver chain.
type unit interface {
	iterate(v variant) iterOut
	chain(tr *tracer, parent int) (chainOut, error)
	inputBytes() int64
	// remaining is how many more iterations the pre-generated inputs
	// allow (only the append workload runs out).
	remaining() int
	// config is the configuration of the unit's (first) job.
	config() supmr.Config
	describe() map[string]any
	close()
}

// roleDev counts the bytes one role (ingest, spill, egress) moves
// through a device that other roles may share, from outside the device.
type roleDev struct {
	storage.Device
	read, written atomic.Int64
}

func (d *roleDev) Reserve(off, n int64) time.Duration {
	d.read.Add(n)
	return d.Device.Reserve(off, n)
}

func (d *roleDev) ReserveWrite(off, n int64) time.Duration {
	d.written.Add(n)
	return storage.ReserveWrite(d.Device, off, n)
}

// roles are the per-role views of one workload's device.
type roles struct {
	dev                   storage.Device
	ingest, spill, egress *roleDev
}

func newRoles(dev storage.Device) *roles {
	return &roles{dev: dev, ingest: &roleDev{Device: dev}, spill: &roleDev{Device: dev}, egress: &roleDev{Device: dev}}
}

// ioCounts is a reading (or a difference of two readings) of the roles.
type ioCounts struct {
	ingestRead, spillWrite, spillRead, egressWrite int64
	busy                                           time.Duration
}

func (r *roles) snapshot() ioCounts {
	return ioCounts{
		ingestRead: r.ingest.read.Load(), spillWrite: r.spill.written.Load(),
		spillRead: r.spill.read.Load(), egressWrite: r.egress.written.Load(),
		busy: r.dev.Stats().BusyTime,
	}
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{a.ingestRead - b.ingestRead, a.spillWrite - b.spillWrite,
		a.spillRead - b.spillRead, a.egressWrite - b.egressWrite, a.busy - b.busy}
}

// measured wraps the timed region of one iteration with the readings
// taken outside it: allocation and device counters before and after,
// output verification afterwards.
func measured(devs *roles, run func() iterOut) iterOut {
	var m0, m1 runtime.MemStats
	io0 := devs.snapshot()
	runtime.ReadMemStats(&m0)
	out := run()
	runtime.ReadMemStats(&m1)
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	out.io = devs.snapshot().sub(io0)
	return out
}

// verified runs the deferred output check of a finished run.
func verified(out iterOut) iterOut {
	if out.err == nil && out.verify != nil {
		out.err = out.verify()
	}
	out.verify = nil
	return out
}

// soloUnit is a workload of one job per iteration.
type soloUnit struct {
	m     member
	devs  *roles
	next  int // iteration index: which pre-generated input comes next
	limit int // inputs available; 0 when every iteration reuses one input
	done  func()
}

func (u *soloUnit) iterate(v variant) iterOut {
	i := u.next
	u.next++
	return verified(measured(u.devs, func() iterOut { return u.m.exec(i, v) }))
}

func (u *soloUnit) chain(tr *tracer, parent int) (chainOut, error) {
	i := u.next
	u.next++
	return u.m.chain(i, tr, parent)
}

func (u *soloUnit) inputBytes() int64 { return u.m.bytes() }

func (u *soloUnit) remaining() int {
	if u.limit == 0 {
		return 1 << 30
	}
	return u.limit - u.next
}

func (u *soloUnit) config() supmr.Config { return u.m.config() }

func (u *soloUnit) describe() map[string]any {
	return describeJob(u.m.name(), u.m.bytes(), u.m.config())
}

func (u *soloUnit) close() {
	if u.done != nil {
		u.done()
	}
}

// batchUnit is the engine workload: one iteration drains a fixed batch
// of submissions through one shared engine from closed-loop clients,
// each sending its next job only when its previous one returned.
type batchUnit struct {
	eng     *supmr.Engine
	members []member
	clients int
	devs    *roles
}

func (u *batchUnit) iterate(v variant) iterOut {
	clients := u.clients
	if v.serial {
		clients = 1
	}
	out := measured(u.devs, func() iterOut {
		queue := make(chan int, len(u.members))
		for k := range u.members {
			queue <- k
		}
		close(queue)
		batch := iterOut{name: "batch", subs: make([]iterOut, len(u.members)), start: clk.Now()}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range queue {
					batch.subs[k] = u.members[k].exec(0, v)
				}
			}()
		}
		wg.Wait()
		batch.dur = clk.Now() - batch.start
		return batch
	})
	for k := range out.subs {
		out.subs[k] = verified(out.subs[k])
		out.err = errors.Join(out.err, out.subs[k].err)
	}
	return out
}

func (u *batchUnit) chain(tr *tracer, parent int) (chainOut, error) {
	var total chainOut
	for _, m := range u.members {
		c, err := m.chain(0, tr, parent)
		if err != nil {
			return total, err
		}
		total.add(c)
	}
	return total, nil
}

func (u *batchUnit) inputBytes() int64 {
	var n int64
	for _, m := range u.members {
		n += m.bytes()
	}
	return n
}

func (u *batchUnit) remaining() int { return 1 << 30 }

func (u *batchUnit) config() supmr.Config { return u.members[0].config() }

func (u *batchUnit) describe() map[string]any {
	subs := make([]map[string]any, len(u.members))
	for k, m := range u.members {
		subs[k] = describeJob(m.name(), m.bytes(), m.config())
	}
	return map[string]any{"clients": u.clients, "engine": "defaults", "submissions": subs}
}

func (u *batchUnit) close() { u.eng.Close() }

// scaled divides a size, keeping it a multiple of the text generator's
// 4 KiB block so inputs end on a word boundary.
func scaled(n, scale int64) int64 { return max(n/scale/4096*4096, 4096) }

func fixedInput(f supmr.Input, want string) func(int) (supmr.Input, string) {
	return func(int) (supmr.Input, string) { return f, want }
}

// wordCountJob builds a word count over text on the roles' ingest view.
func wordCountJob(name string, text []byte, devs *roles, cfg supmr.Config) (*job[string, int64], error) {
	counts := countWords(text)
	f, err := supmr.NewByteFile(name, text, devs.ingest)
	if err != nil {
		return nil, err
	}
	cfg.Runtime, cfg.Clock = supmr.RuntimeSupMR, clk
	return &job[string, int64]{
		label: "wordcount", app: supmr.WordCountJob(),
		cont:  func() supmr.Container[string, int64] { return supmr.WordCountContainer(64) },
		input: fixedInput(f, digestCounts(counts, sortedKeys(counts), nil)),
		size:  int64(len(text)), cfg: cfg,
	}, nil
}

// sortJob builds a sort over tera records on the roles' ingest view.
func sortJob(name string, tera []byte, devs *roles, cfg supmr.Config) (*job[string, uint64], error) {
	want, check := sortReference(tera)
	if n := int64(len(tera) / gen.TeraRecordSize); !check.Ordered || check.Records != n {
		return nil, fmt.Errorf("sort reference is not a sorted permutation of %d records", n)
	}
	f, err := supmr.NewByteFile(name, tera, devs.ingest)
	if err != nil {
		return nil, err
	}
	cfg.Runtime, cfg.Clock, cfg.Boundary = supmr.RuntimeSupMR, clk, supmr.CRLFRecords
	return &job[string, uint64]{
		label: "sort", app: supmr.SortJob(), cont: supmr.SortContainer,
		input: fixedInput(f, want), size: int64(len(tera)), cfg: cfg,
	}, nil
}

func setupWCCPU(seed uint64, scale int64) (unit, error) {
	devs := newRoles(storage.NewNullDevice(clk))
	j, err := wordCountJob("wc-cpu.txt", textBytes(int64(seed), scaled(32*mib, scale)), devs,
		supmr.Config{ChunkBytes: scaled(mib, scale)})
	if err != nil {
		return nil, err
	}
	return &soloUnit{m: j, devs: devs}, nil
}

// throttledRAID is the ingest-bound device: three members striped at
// 64 KiB, each capping a single stream at a third of its bandwidth, so a
// lone reader cannot saturate the array and extra IO lanes can.
func throttledRAID(memberBW float64) (storage.Device, error) {
	members := make([]*storage.Disk, 3)
	for m := range members {
		d, err := storage.NewDisk(storage.DiskConfig{
			Name: fmt.Sprintf("member%d", m), Bandwidth: memberBW, StreamBandwidth: memberBW / 3,
		}, clk)
		if err != nil {
			return nil, err
		}
		members[m] = d
	}
	return storage.NewRAID0(members, 64*kib)
}

func setupWCDisk(seed uint64, scale int64) (unit, error) {
	raid, err := throttledRAID(32 * mib)
	if err != nil {
		return nil, err
	}
	devs := newRoles(raid)
	j, err := wordCountJob("wc-disk.txt", textBytes(int64(seed)+1, scaled(8*mib, scale)), devs,
		supmr.Config{ChunkBytes: scaled(mib, scale), IOLanes: 2, PrefetchDepth: 2})
	if err != nil {
		return nil, err
	}
	return &soloUnit{m: j, devs: devs}, nil
}

func setupSortMem(seed uint64, scale int64) (unit, error) {
	devs := newRoles(storage.NewNullDevice(clk))
	j, err := sortJob("sort-mem.dat", teraBytes(seed+2, 800_000/scale), devs,
		supmr.Config{ChunkBytes: scaled(mib, scale)})
	if err != nil {
		return nil, err
	}
	return &soloUnit{m: j, devs: devs}, nil
}

func setupSortOOC(seed uint64, scale int64) (unit, error) {
	devs := newRoles(storage.NewNullDevice(clk))
	j, err := sortJob("sort-ooc.dat", teraBytes(seed+3, 200_000/scale), devs, supmr.Config{
		ChunkBytes: scaled(mib, scale), MemoryBudget: mib / scale, SpillDevice: devs.spill,
		EgressLanes: 2, EgressDevice: devs.egress,
	})
	if err != nil {
		return nil, err
	}
	j.assert = func(s *supmr.Stats) error {
		if s.SpilledRuns == 0 {
			return errors.New("nothing spilled: the out-of-core path did not run")
		}
		return nil
	}
	return &soloUnit{m: j, devs: devs}, nil
}

func setupWCNodes(seed uint64, scale int64) (unit, error) {
	devs := newRoles(storage.NewNullDevice(clk))
	j, err := wordCountJob("wc-nodes4.txt", textBytes(int64(seed)+4, scaled(8*mib, scale)), devs,
		supmr.Config{ChunkBytes: scaled(256*kib, scale), Nodes: 4})
	if err != nil {
		return nil, err
	}
	j.assert = func(s *supmr.Stats) error {
		if s.ShuffleFrames == 0 {
			return errors.New("no frames shuffled: the multi-node path did not run")
		}
		return nil
	}
	return &soloUnit{m: j, devs: devs}, nil
}

// memoDeltas is how many appended deltas set-up generates; each
// iteration of the append workload consumes one.
const memoDeltas = 64

func setupWCMemo(seed uint64, scale int64) (unit, error) {
	devs := newRoles(storage.NewNullDevice(clk))
	baseSize, deltaSize := scaled(24*mib, scale), scaled(256*kib, scale)
	base := textBytes(int64(seed)+5, baseSize)
	// The deltas come from a different stream than the base, so every
	// delta is new content.
	deltas := textBytes(int64(seed)+6, memoDeltas*deltaSize)
	baseCounts := countWords(base)
	baseKeys := sortedKeys(baseCounts)
	files := make([]supmr.Input, memoDeltas)
	wants := make([]string, memoDeltas)
	for d := range files {
		delta := deltas[int64(d)*deltaSize : int64(d+1)*deltaSize]
		// The file is base followed by the delta, served by a fill: no
		// copy is made, in set-up or in the timed region.
		f, err := storage.NewFile(fmt.Sprintf("wc-memo-append.%d.txt", d), baseSize+deltaSize, 0, func(off int64, p []byte) {
			if off < baseSize {
				n := copy(p, base[off:])
				p, off = p[n:], off+int64(n)
			}
			if len(p) > 0 {
				copy(p, delta[off-baseSize:])
			}
		}, devs.ingest)
		if err != nil {
			return nil, err
		}
		files[d] = f
		wants[d] = digestCounts(baseCounts, baseKeys, countWords(delta))
	}
	store, err := supmr.NewMemoStore(supmr.MemoConfig{Clock: clk, Budget: 1 << 30})
	if err != nil {
		return nil, err
	}
	j := &job[string, int64]{
		label: "wordcount", app: supmr.WordCountJob(),
		cont:  func() supmr.Container[string, int64] { return supmr.WordCountContainer(64) },
		input: func(i int) (supmr.Input, string) { return files[i], wants[i] },
		size:  baseSize + deltaSize,
		cfg: supmr.Config{Runtime: supmr.RuntimeSupMR, Clock: clk, ChunkBytes: scaled(256*kib, scale),
			Memo: true, MemoStore: store, MemoKeySpace: "bench:wordcount"},
	}
	warm := false
	j.assert = func(s *supmr.Stats) error {
		// The first run over a cold store has nothing to hit.
		if warm && s.MemoHits == 0 {
			return errors.New("no memo hits on a warm store: the incremental path did not run")
		}
		warm = true
		return nil
	}
	return &soloUnit{m: j, devs: devs, limit: memoDeltas, done: func() { store.Close() }}, nil
}

func setupEngineMix(seed uint64, scale int64) (unit, error) {
	devs := newRoles(storage.NewNullDevice(clk))
	eng := supmr.NewEngine(supmr.EngineConfig{Clock: clk})
	text := textBytes(int64(seed)+7, scaled(6*mib, scale))
	tera := teraBytes(seed+8, 60_000/scale)
	chunk := scaled(256*kib, scale)
	tenants := [2]string{"tenant-a", "tenant-b"}
	// Submissions alternate between the two tenants.
	cfgFor := func(k int) supmr.Config {
		return supmr.Config{ChunkBytes: chunk, Engine: eng, Tenant: tenants[k%2]}
	}
	textFile, err := supmr.NewByteFile("engine-mix.txt", text, devs.ingest)
	if err != nil {
		return nil, err
	}
	// Grep for the eight most frequent words: nearly every line matches.
	patterns := make([]string, 8)
	for r := range patterns {
		patterns[r] = gen.Word(r)
	}
	grep := supmr.GrepJob(patterns...)
	wc, err := wordCountJob("engine-mix.txt", text, devs, cfgFor(0))
	if err != nil {
		eng.Close()
		return nil, err
	}
	srt, err := sortJob("engine-mix.dat", tera, devs, cfgFor(1))
	if err != nil {
		eng.Close()
		return nil, err
	}
	grepCfg, histCfg := cfgFor(2), cfgFor(3)
	grepCfg.Runtime, grepCfg.Clock = supmr.RuntimeSupMR, clk
	histCfg.Runtime, histCfg.Clock = supmr.RuntimeSupMR, clk
	hist := supmr.HistogramJob()
	members := []member{
		wc, srt,
		&job[string, int64]{label: "grep", app: grep, cont: grep.NewContainer,
			input: fixedInput(textFile, grepReference(text, patterns)), size: int64(len(text)), cfg: grepCfg},
		&job[int, int64]{label: "histogram", app: hist,
			cont:  func() supmr.Container[int, int64] { return hist.NewContainer(8) },
			input: fixedInput(textFile, histogramReference(text)), size: int64(len(text)), cfg: histCfg},
		wc, srt,
	}
	return &batchUnit{eng: eng, members: members, clients: 2, devs: devs}, nil
}
