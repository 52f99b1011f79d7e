package supmr

import (
	"fmt"
	"time"

	"supmr/internal/apps"
	"supmr/internal/hdfs"
	"supmr/internal/netsim"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

// This file exposes the simulated experiment environment: clocks,
// disks/RAID arrays, workload generators, and the HDFS cluster of the
// Fig. 7 case study — everything needed to reproduce the paper's
// experiments through the public API.

// Clock abstracts time for devices and measurements.
type Clock = storage.Clock

// NewClock returns a wall clock; device waits really sleep, so ingest
// genuinely overlaps computation.
func NewClock() Clock { return storage.NewRealClock() }

// Device is a simulated block device.
type Device = storage.Device

// File is a simulated file on a device.
type File = storage.File

// NewTestbedRAID builds the paper's 3-disk RAID-0 storage with aggregate
// bandwidth 384 MB/s scaled by factor (use small factors, e.g. 1.0/256,
// to make wall-clock experiments fast while preserving every ratio).
func NewTestbedRAID(clock Clock, factor float64) (Device, error) {
	return storage.TestbedRAID(clock, factor)
}

// NewDisk builds a single simulated disk with the given sequential
// bandwidth (bytes/sec) and seek latency.
func NewDisk(name string, bandwidth float64, seek time.Duration, clock Clock) (Device, error) {
	return storage.NewDisk(storage.DiskConfig{Name: name, Bandwidth: bandwidth, SeekTime: seek}, clock)
}

// NewFastDevice returns an infinitely fast device (input effectively in
// memory).
func NewFastDevice(clock Clock) Device { return storage.NewNullDevice(clock) }

// TeraFile generates a terasort-style input of the given number of
// 100-byte \r\n-terminated records on dev, deterministically from seed.
func TeraFile(name string, records int64, seed uint64, dev Device) (*File, error) {
	return workload.TeraGen{Seed: seed}.File(name, records, dev)
}

// TextFile generates a Zipf-word text input of size bytes on dev,
// deterministically from seed.
func TextFile(name string, size int64, seed int64, dev Device) (*File, error) {
	return workload.TextGen{Seed: seed}.File(name, size, dev)
}

// TextFiles generates count text files of fileSize bytes each — the
// many-small-files word count input shape for intra-file chunking.
func TextFiles(prefix string, count int, fileSize int64, seed int64, dev Device) ([]Input, error) {
	set, err := workload.TextGen{Seed: seed}.FileSet(prefix, count, fileSize, dev)
	if err != nil {
		return nil, err
	}
	inputs := make([]Input, set.Len())
	for i := range inputs {
		inputs[i] = set.At(i)
	}
	return inputs, nil
}

// TextFill returns the deterministic text generator's fill function for
// creating HDFS files or custom storage layouts.
func TextFill(seed int64) func(off int64, p []byte) {
	return workload.TextGen{Seed: seed}.Fill()
}

// TeraFill returns the deterministic terasort generator's fill function.
func TeraFill(seed uint64) func(off int64, p []byte) {
	return workload.TeraGen{Seed: seed}.Fill()
}

// NewByteFile places an in-memory buffer on an arbitrary (possibly
// throttled or cached) device.
func NewByteFile(name string, data []byte, dev Device) (*File, error) {
	return storage.NewFile(name, int64(len(data)), 0, func(off int64, p []byte) {
		copy(p, data[off:])
	}, dev)
}

// MemoryFile wraps an in-memory buffer as an Input on an infinitely
// fast device.
func MemoryFile(name string, data []byte, clock Clock) Input {
	return storage.BytesFile(name, data, storage.NewNullDevice(clock))
}

// HDFS is the simulated distributed file system of the case study.
type HDFS = hdfs.Cluster

// HDFSFile is a file stored in the simulated HDFS.
type HDFSFile = hdfs.File

// HDFSConfig describes a simulated HDFS deployment. HDFS files serve
// the two-phase reads of the multi-lane ingest path, so a job run with
// Config.IOLanes > 1 fetches the blocks of each ingest chunk from
// their datanodes in parallel instead of block-by-block.
type HDFSConfig struct {
	Nodes     int           // datanodes (case study: 32)
	BlockSize int64         // HDFS block size (classic: 64 MB)
	DiskBW    float64       // per-datanode disk bandwidth, bytes/sec
	LinkBW    float64       // shared front link bandwidth, bytes/sec
	Latency   time.Duration // link latency
	// AccessBW, when positive, gives every datanode a dedicated access
	// port of this bandwidth in front of the shared link; concurrent
	// reads from one datanode share its port.
	AccessBW float64
	// Faults, when set, injects the injector's fault plan into the
	// cluster: datanode disks become fallible (sites "hdfs-dn0", ...)
	// and the shared link takes latency spikes (site "hdfs-link").
	// Share the job's injector (Config.Faults) so the fault cap and
	// counters are global.
	Faults *FaultInjector
}

// NewHDFS builds the case study's storage: nodes datanodes behind one
// shared link of LinkBW bytes/sec (1 Gbit ethernet = 125e6).
func NewHDFS(cfg HDFSConfig, clock Clock) (*HDFS, error) {
	link, err := netsim.NewLink(cfg.LinkBW, cfg.Latency, clock)
	if err != nil {
		return nil, err
	}
	hc := hdfs.Config{
		Nodes:     cfg.Nodes,
		BlockSize: cfg.BlockSize,
		DiskBW:    cfg.DiskBW,
		Link:      link,
		AccessBW:  cfg.AccessBW,
		Clock:     clock,
	}
	if inj := cfg.Faults; inj != nil {
		hc.Link = inj.WrapDevice("hdfs-link", link)
		hc.WrapDevice = func(site string, dev Device) Device {
			return inj.WrapDevice("hdfs-"+site, dev)
		}
	}
	return hdfs.NewCluster(hc)
}

// GigabitLinkBW is 1 Gbit ethernet in bytes/sec.
const GigabitLinkBW = netsim.GigabitEthernet

// The paper's two target applications plus the extra demo apps, exposed
// for examples and tools. Each app documents which container §V-B
// prescribes for it.

// WordCountJob returns the word count application (hash container with
// combiner).
func WordCountJob() apps.WordCount { return apps.WordCount{} }

// SortJob returns the terasort-style sort application (unlocked
// key-range container).
func SortJob() apps.Sort { return apps.Sort{} }

// HistogramJob returns the byte-histogram application (array container).
func HistogramJob() apps.Histogram { return apps.Histogram{} }

// InvertedIndexJob returns the inverted index application (hash
// container without combiner; implements the set_data() chunk callback).
func InvertedIndexJob() *apps.InvertedIndex { return &apps.InvertedIndex{} }

// NewCachedDevice wraps dev with an LRU block cache of capacity blocks
// of blockSize bytes — the page-cache/MixApart-style layer (§VII) that
// makes re-reads (e.g. iterative jobs) free of device time.
func NewCachedDevice(dev Device, blockSize int64, capacity int) (Device, error) {
	return storage.NewCache(dev, blockSize, capacity)
}

// KMeansJob builds the iterative K-means application over Dim-byte
// points (Phoenix's kmeans benchmark; each iteration is one SupMR job).
func KMeansJob(k, dim int) *apps.KMeans {
	km := &apps.KMeans{K: k, Dim: dim}
	km.InitCentroids(1)
	return km
}

// KMeansResult reports a K-means driver run.
type KMeansResult struct {
	Iterations int
	Moved      float64 // last max centroid movement
	Sizes      []int64 // final cluster sizes
	Waves      int     // total map waves across iterations
}

// RunKMeans drives Lloyd's algorithm over file until the largest
// centroid movement falls below km.Epsilon (default 1e-3) or maxIters
// (default 20) iterations have run. Every iteration is one ordinary
// RunFile job under cfg — on a pool of its own solo, one submission when
// cfg.Engine is set — that re-streams the input (wrap the device with
// NewCachedDevice to make iterations after the first compute-bound).
// cfg.Context cancellation aborts the driver mid-run.
func RunKMeans(km *apps.KMeans, file Input, cfg Config, maxIters int) (*KMeansResult, error) {
	if km.K <= 0 || km.Dim <= 0 {
		return nil, fmt.Errorf("supmr: kmeans requires positive K and Dim (got %d, %d)", km.K, km.Dim)
	}
	cfg.Boundary = km.Boundary()
	cfg, _, err := cfg.resolve(oneFile)
	if err != nil {
		return nil, err
	}
	if len(km.Centroids) != km.K {
		km.InitCentroids(1)
	}
	eps := km.Epsilon
	if eps <= 0 {
		eps = 1e-3
	}
	if maxIters <= 0 {
		maxIters = 20
	}
	res := &KMeansResult{}
	for res.Iterations < maxIters && (res.Iterations == 0 || res.Moved >= eps) {
		rep, err := RunFile[int, apps.ClusterAccum](km, file, km.NewContainer(), cfg)
		if err != nil {
			return nil, fmt.Errorf("supmr: kmeans iteration %d: %w", res.Iterations, err)
		}
		res.Iterations++
		res.Waves += rep.Stats.MapWaves
		res.Moved = km.Step(rep.Pairs)
		res.Sizes = make([]int64, km.K)
		for _, p := range rep.Pairs {
			if p.Key >= 0 && p.Key < km.K {
				res.Sizes[p.Key] = p.Val.N
			}
		}
	}
	return res, nil
}

// GrepJob returns a string-match application over the given patterns
// (the Phoenix string-match benchmark).
func GrepJob(patterns ...string) apps.Grep { return apps.Grep{Patterns: patterns} }

// LinearRegressionJob returns the Phoenix linear-regression application
// (array container over six statistic cells; Fit solves the model).
func LinearRegressionJob() apps.LinearRegression { return apps.LinearRegression{} }

// PrefixPartJob returns round 1 of the 2-round prefix-sum pipeline:
// per-block partial sums over self-indexed records (block records per
// block). Chain its egressed output into PrefixTotalJob via a DAG.
func PrefixPartJob(block int64) apps.PrefixPart { return apps.PrefixPart{Block: block} }

// PrefixTotalJob returns round 2 of the prefix-sum pipeline: running
// prefix totals over round 1's "block\tsum" output lines, for blocks
// total blocks.
func PrefixTotalJob(blocks int64) apps.PrefixTotal { return apps.PrefixTotal{Blocks: blocks} }

// SeqFile generates the prefix-sum input: records self-indexed 16-byte
// numeric records on dev, deterministically from seed.
func SeqFile(name string, records int64, seed int64, dev Device) (*File, error) {
	return workload.SeqGen{Seed: seed}.File(name, records, dev)
}

// WordCountContainer returns the container word count uses (the flat
// combiner).
func WordCountContainer(shards int) Container[string, int64] {
	return WordCountJob().NewContainer(shards)
}

// WordCountMapContainer returns word count's previous map-backed
// combining container — the -flatcombiner=off ablation path.
func WordCountMapContainer(shards int) Container[string, int64] {
	return WordCountJob().NewMapContainer(shards)
}

// SortContainer returns the unlocked container sort uses.
func SortContainer() Container[string, uint64] {
	return SortJob().NewContainer()
}
