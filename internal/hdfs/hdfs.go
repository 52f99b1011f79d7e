// Package hdfs simulates the distributed file system of the Fig. 7 case
// study: files are striped in fixed-size blocks across the datanodes of a
// 32-node scale-out cluster, and every byte a client ingests crosses the
// single shared 1 Gbit link the cluster sits behind. The client plays the
// role of libhdfs: it locates a file's blocks via the namenode metadata
// and reads them from the owning datanodes directly into memory.
//
// Datanode disks can serve blocks in parallel (that is the point of
// scale-out storage), but the shared link caps aggregate ingest at
// ~125 MB/s — which is why the case study sees high utilization during
// ingest yet only a 7-second total speedup: the map phase is a small
// fraction of a long, link-bound ingest.
package hdfs

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"supmr/internal/netsim"
	"supmr/internal/storage"
)

// Config describes a simulated HDFS cluster.
type Config struct {
	Nodes     int     // number of datanodes (case study: 32)
	BlockSize int64   // HDFS block size in bytes (classic: 64 MB)
	DiskBW    float64 // per-datanode disk bandwidth, bytes/sec
	// Link is the shared link every fetched byte crosses (a netsim.Link,
	// possibly wrapped by the fault layer).
	Link storage.Device
	// AccessBW, when positive, gives every datanode its own access port
	// of this bandwidth in front of Link: a block crosses the port and
	// the shared link at once, and concurrent reads from one datanode
	// share its port.
	AccessBW float64
	Clock    storage.Clock
	// WrapDevice, when set, wraps each datanode's disk before use — the
	// fault-injection / instrumentation seam. site is the datanode name
	// ("dn0", "dn1", ...).
	WrapDevice func(site string, dev storage.Device) storage.Device
}

// Cluster is the simulated HDFS: namenode metadata plus datanodes.
type Cluster struct {
	cfg   Config
	nodes []*DataNode

	mu    sync.Mutex
	files map[string]*File
}

// DataNode owns a local disk serving block reads and, under AccessBW,
// the access port its blocks leave through.
type DataNode struct {
	id   int
	disk storage.Device
	port *netsim.Link // nil without AccessBW
}

// NewCluster builds the cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("hdfs: cluster needs at least one datanode, got %d", cfg.Nodes)
	}
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("hdfs: block size must be positive, got %d", cfg.BlockSize)
	}
	if cfg.Link == nil {
		return nil, fmt.Errorf("hdfs: cluster requires a link")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("hdfs: cluster requires a clock")
	}
	c := &Cluster{cfg: cfg, files: make(map[string]*File)}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("dn%d", i)
		disk, err := storage.NewDisk(storage.DiskConfig{
			Name:      name,
			Bandwidth: cfg.DiskBW,
		}, cfg.Clock)
		if err != nil {
			return nil, err
		}
		dn := &DataNode{id: i, disk: disk}
		if cfg.WrapDevice != nil {
			dn.disk = cfg.WrapDevice(name, disk)
		}
		if cfg.AccessBW > 0 {
			if dn.port, err = netsim.NewLink(cfg.AccessBW, 0, cfg.Clock); err != nil {
				return nil, err
			}
		}
		c.nodes = append(c.nodes, dn)
	}
	return c, nil
}

// Nodes returns the datanode count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// BlockSize returns the configured block size.
func (c *Cluster) BlockSize() int64 { return c.cfg.BlockSize }

// Link returns the shared link.
func (c *Cluster) Link() storage.Device { return c.cfg.Link }

// Create registers a file of the given size whose contents come from
// fill. Blocks are assigned to datanodes round-robin (the namenode's
// placement).
func (c *Cluster) Create(name string, size int64, fill storage.Fill) (*File, error) {
	if size < 0 {
		return nil, fmt.Errorf("hdfs: file %q size must be non-negative, got %d", name, size)
	}
	if fill == nil {
		return nil, fmt.Errorf("hdfs: file %q requires a fill function", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.files[name]; exists {
		return nil, fmt.Errorf("hdfs: file %q already exists", name)
	}
	f := &File{cluster: c, name: name, size: size, fill: fill}
	c.files[name] = f
	return f, nil
}

// Open looks up a file by name.
func (c *Cluster) Open(name string) (*File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q does not exist", name)
	}
	return f, nil
}

// List returns the names of all files, sorted.
func (c *Cluster) List() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.files))
	for n := range c.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// File is an HDFS file. It satisfies chunk.Input, so both runtimes can
// ingest straight from the distributed file system the way the SupMR
// case study does with libhdfs.
type File struct {
	cluster *Cluster
	name    string
	size    int64
	fill    storage.Fill
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.size }

// BlockCount returns the number of blocks the file occupies.
func (f *File) BlockCount() int64 {
	bs := f.cluster.cfg.BlockSize
	return (f.size + bs - 1) / bs
}

// NodeFor returns the datanode index owning block b (round-robin
// placement).
func (f *File) NodeFor(b int64) int { return int(b % int64(len(f.cluster.nodes))) }

// ReadAt reads file bytes at off into p. Each covered block is served by
// its owning datanode's disk (disks proceed in parallel: reservations on
// distinct nodes overlap) and then crosses the shared link, which is
// where the aggregate bandwidth cap comes from.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	wait, err := f.IssueReadAt(p, off)
	if err != nil {
		return 0, err
	}
	return wait()
}

// IssueReadAt is the two-phase read the multi-lane ingest path uses: the
// issue step locates and reserves every covered block on its datanode's
// disk — in block order, on the caller's goroutine, so the per-datanode
// request sequence (and any fault schedule on those disks) stays
// deterministic however many lanes run the waits. The returned wait
// moves the bytes across the network, sleeps until the slowest disk is
// done, and fills p. A non-nil error means a block reservation failed
// and no bytes will be delivered.
func (f *File) IssueReadAt(p []byte, off int64) (func() (int, error), error) {
	if off < 0 {
		return nil, fmt.Errorf("hdfs: negative offset %d reading %q", off, f.name)
	}
	if off >= f.size {
		return nil, io.EOF
	}
	n := min(int64(len(p)), f.size-off)
	wait, err := f.fetch(off, n)
	if err != nil {
		return nil, err
	}
	return func() (int, error) {
		wait()
		f.fill(off, p[:n])
		if n < int64(len(p)) {
			return int(n), io.EOF
		}
		return int(n), nil
	}, nil
}

// segments calls visit for each block segment of [off, off+n): block b,
// the segment's file offset at (also its extent on the owning datanode's
// disk) and its length.
func (f *File) segments(off, n int64, visit func(b, at, take int64) error) error {
	bs := f.cluster.cfg.BlockSize
	for at := off; at < off+n; {
		b := at / bs
		take := min((b+1)*bs, off+n) - at
		if err := visit(b, at, take); err != nil {
			return err
		}
		at += take
	}
	return nil
}

// fetch reserves every block segment of [off, off+n) on its datanode's
// disk and returns the wait that moves the bytes across the network.
// Distinct datanodes queue independently, so their reservations overlap;
// a failed reservation (fault injection) fails the whole fetch. The wait
// issues each segment on its datanode's access port and the range on
// the shared link — ports first, as the link may sleep its latency —
// and returns when the ports, the link and the slowest disk are all
// done: datanodes stream blocks while bytes cross the wire, so the
// times overlap rather than add.
func (f *File) fetch(off, n int64) (func(), error) {
	clock := f.cluster.cfg.Clock
	diskDeadline := clock.Now()
	if err := f.segments(off, n, func(b, at, take int64) error {
		dn := f.cluster.nodes[f.NodeFor(b)]
		d, err := storage.TryReserve(dn.disk, at, take)
		if err != nil {
			return fmt.Errorf("hdfs: fetch block %d of %q from dn%d: %w", b, f.name, dn.id, err)
		}
		diskDeadline = max(diskDeadline, d)
		return nil
	}); err != nil {
		return nil, err
	}
	return func() {
		var ports []func()
		_ = f.segments(off, n, func(b, _, take int64) error {
			if port := f.cluster.nodes[f.NodeFor(b)].port; port != nil {
				ports = append(ports, port.Issue(0, take))
			}
			return nil
		})
		storage.Issue(f.cluster.cfg.Link, off, n)()
		for _, wait := range ports {
			wait()
		}
		clock.SleepUntil(diskDeadline)
	}, nil
}

// CopyToLocal models the baseline of the case study: before computing,
// the original runtime copies the whole file from all the nodes onto the
// compute node's local storage. Bytes cross the shared link and are
// written to dst (a local device); the returned local file serves the
// subsequent computation. progress, if non-nil, is called after each
// copied extent with cumulative bytes.
func (f *File) CopyToLocal(dst storage.Device, progress func(done int64)) (*storage.File, error) {
	const extent = 8 << 20
	clock := f.cluster.cfg.Clock
	for off := int64(0); off < f.size; off += extent {
		n := min(extent, f.size-off)
		wait, err := f.fetch(off, n)
		if err != nil {
			return nil, err
		}
		wait()
		// Write side: local device absorbs the extent.
		clock.SleepUntil(dst.Reserve(off, n))
		if progress != nil {
			progress(off + n)
		}
	}
	return storage.NewFile(f.name+".local", f.size, 0, f.fill, dst)
}
