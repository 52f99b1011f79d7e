package hdfs

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"supmr/internal/netsim"
	"supmr/internal/storage"
)

func testCluster(t *testing.T, nodes int, linkBW float64) *Cluster {
	t.Helper()
	clock := storage.NewRealClock()
	link, err := netsim.NewLink(linkBW, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Nodes: nodes, BlockSize: 1024, DiskBW: 1 << 30, Link: link, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func seqFill(off int64, p []byte) {
	for i := range p {
		p[i] = byte((off + int64(i)) % 251)
	}
}

func TestClusterValidation(t *testing.T) {
	clock := storage.NewFakeClock()
	link, _ := netsim.NewLink(1e6, 0, clock)
	bad := []Config{
		{Nodes: 0, BlockSize: 1024, DiskBW: 1, Link: link, Clock: clock},
		{Nodes: 1, BlockSize: 0, DiskBW: 1, Link: link, Clock: clock},
		{Nodes: 1, BlockSize: 1024, DiskBW: 1, Link: nil, Clock: clock},
		{Nodes: 1, BlockSize: 1024, DiskBW: 1, Link: link, Clock: nil},
	}
	for i, cfg := range bad {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestCreateOpenList(t *testing.T) {
	c := testCluster(t, 4, 1<<30)
	if _, err := c.Create("a.txt", 5000, seqFill); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("a.txt", 10, seqFill); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := c.Create("bad", -1, seqFill); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := c.Create("bad2", 10, nil); err == nil {
		t.Error("nil fill accepted")
	}
	if _, err := c.Open("a.txt"); err != nil {
		t.Error("Open failed for existing file")
	}
	if _, err := c.Open("missing"); err == nil {
		t.Error("Open succeeded for missing file")
	}
	if got := c.List(); len(got) != 1 || got[0] != "a.txt" {
		t.Errorf("List = %v", got)
	}
}

func TestBlockPlacement(t *testing.T) {
	c := testCluster(t, 4, 1<<30)
	f, err := c.Create("f", 10*1024, seqFill)
	if err != nil {
		t.Fatal(err)
	}
	if f.BlockCount() != 10 {
		t.Errorf("BlockCount = %d, want 10", f.BlockCount())
	}
	// Round-robin placement across 4 nodes.
	for b := int64(0); b < 10; b++ {
		if got, want := f.NodeFor(b), int(b%4); got != want {
			t.Errorf("NodeFor(%d) = %d, want %d", b, got, want)
		}
	}
}

func TestReadAtContent(t *testing.T) {
	c := testCluster(t, 4, 1<<30)
	f, err := c.Create("f", 5000, seqFill)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-block read.
	got := make([]byte, 2500)
	n, err := f.ReadAt(got, 700)
	if err != nil || n != 2500 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	want := make([]byte, 2500)
	seqFill(700, want)
	if !bytes.Equal(got, want) {
		t.Error("cross-block read content mismatch")
	}
	// EOF semantics.
	n, err = f.ReadAt(make([]byte, 100), 4950)
	if n != 50 || err != io.EOF {
		t.Errorf("short read = %d, %v", n, err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 5000); err != io.EOF {
		t.Errorf("read at EOF = %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestLinkCapsIngest(t *testing.T) {
	// 32 fast datanodes behind a slow link: read time must be set by the
	// link, not the disks.
	clock := storage.NewRealClock()
	link, err := netsim.NewLink(10<<20, 0, clock) // 10 MB/s
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Nodes: 32, BlockSize: 64 << 10, DiskBW: 1 << 30, Link: link, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Create("big", 1<<20, seqFill)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	buf := make([]byte, 1<<20)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	el := clock.Now() - start
	if el < 90*time.Millisecond || el > 250*time.Millisecond {
		t.Errorf("1MB over 10MB/s link took %v, want ~100ms", el)
	}
}

func TestCopyToLocal(t *testing.T) {
	c := testCluster(t, 8, 1<<30)
	f, err := c.Create("f", 20_000, seqFill)
	if err != nil {
		t.Fatal(err)
	}
	var progressCalls int
	var lastDone int64
	local, err := f.CopyToLocal(storage.NewNullDevice(storage.NewFakeClock()), func(done int64) {
		progressCalls++
		if done <= lastDone {
			t.Error("progress not monotone")
		}
		lastDone = done
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != 20_000 {
		t.Errorf("final progress = %d, want 20000", lastDone)
	}
	if progressCalls == 0 {
		t.Error("no progress callbacks")
	}
	if local.Size() != 20_000 {
		t.Errorf("local size = %d", local.Size())
	}
	// Local copy serves identical content.
	a := make([]byte, 1000)
	b := make([]byte, 1000)
	if _, err := f.ReadAt(a, 3000); err != nil {
		t.Fatal(err)
	}
	if _, err := local.ReadAt(b, 3000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("local copy content differs")
	}
}

func TestClusterAccessors(t *testing.T) {
	c := testCluster(t, 5, 1e6)
	if c.Nodes() != 5 || c.BlockSize() != 1024 || c.Link() == nil {
		t.Errorf("accessors wrong: nodes=%d bs=%d", c.Nodes(), c.BlockSize())
	}
}

func TestTopologyCluster(t *testing.T) {
	clock := storage.NewRealClock()
	link, err := netsim.NewLink(10<<20, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Nodes: 4, BlockSize: 256 << 10, DiskBW: 1 << 30, Link: link, AccessBW: 100 << 20, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Create("f", 1<<20, seqFill)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	buf := make([]byte, 1<<20)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	el := clock.Now() - start
	// 1 MB through the 10 MB/s shared link = ~100ms.
	if el < 90*time.Millisecond || el > 300*time.Millisecond {
		t.Errorf("access-port read took %v, want ~100ms", el)
	}
	if c.Link() != link {
		t.Error("Link() should return the shared link")
	}
	// Content still correct.
	want := make([]byte, 1<<20)
	seqFill(0, want)
	if !bytes.Equal(buf, want) {
		t.Error("access-port read content mismatch")
	}
}

func TestTopologyValidation(t *testing.T) {
	clock := storage.NewFakeClock()
	// No shared link is rejected, access ports or not.
	if _, err := NewCluster(Config{
		Nodes: 2, BlockSize: 1024, DiskBW: 1, AccessBW: 1e6, Clock: clock,
	}); err == nil {
		t.Error("cluster without network accepted")
	}
}

// TestAccessPortValidation checks the per-datanode access ports: each
// datanode gets one port of AccessBW, and a zero-byte read crosses
// neither its port nor the shared link.
func TestAccessPortValidation(t *testing.T) {
	clock := storage.NewFakeClock()
	link, err := netsim.NewLink(1e6, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(Config{
		Nodes: 0, BlockSize: 1024, DiskBW: 1, Link: link, AccessBW: 1e6, Clock: clock,
	}); err == nil {
		t.Error("zero datanodes with access ports accepted")
	}
	c, err := NewCluster(Config{
		Nodes: 2, BlockSize: 1024, DiskBW: 1e6, Link: link, AccessBW: 2e6, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dn := range c.nodes {
		if dn.port == nil || dn.port.Bandwidth() != 2e6 {
			t.Fatalf("dn%d has no 2e6 B/s access port", dn.id)
		}
	}
	// A zero-byte read crosses nothing.
	f, err := c.Create("f", 4096, seqFill)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	if n, err := f.ReadAt(nil, 0); n != 0 || err != nil {
		t.Errorf("zero-byte read = %d, %v", n, err)
	}
	if el := clock.Now() - start; el != 0 || c.nodes[0].port.Stats().Reads != 0 || link.Stats().Reads != 0 {
		t.Errorf("zero-byte read charged %v, port %+v, link %+v", el, c.nodes[0].port.Stats(), link.Stats())
	}
	if c.Nodes() != 2 || c.Link() == nil {
		t.Error("accessors wrong")
	}
}

// accessCluster builds a cluster whose datanodes sit behind access ports
// of accessBW in front of one shared link of linkBW, on the wall clock.
func accessCluster(t *testing.T, nodes int, blockSize int64, accessBW, linkBW float64) (*Cluster, storage.Clock) {
	t.Helper()
	clock := storage.NewRealClock()
	link, err := netsim.NewLink(linkBW, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Nodes: nodes, BlockSize: blockSize, DiskBW: 1 << 30, Link: link, AccessBW: accessBW, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, clock
}

func TestAccessPortUplinkBottleneck(t *testing.T) {
	c, clock := accessCluster(t, 4, 1<<20, 100<<20, 10<<20)
	f, err := c.Create("f", 4<<20, seqFill)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	if _, err := f.ReadAt(make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	el := clock.Now() - start
	// 1 MB at the 10 MB/s shared link = ~100ms (access port is 10x faster).
	if el < 90*time.Millisecond || el > 200*time.Millisecond {
		t.Errorf("uplink-bound transfer took %v, want ~100ms", el)
	}
}

func TestAccessPortBottleneck(t *testing.T) {
	c, clock := accessCluster(t, 2, 1<<20, 5<<20, 1<<30)
	f, err := c.Create("f", 2<<20, seqFill)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	if _, err := f.ReadAt(make([]byte, 1<<20), 1<<20); err != nil { // block 1, on dn1
		t.Fatal(err)
	}
	el := clock.Now() - start
	// 1 MB at the 5 MB/s access port = ~200ms (link is near-infinite).
	if el < 180*time.Millisecond || el > 400*time.Millisecond {
		t.Errorf("access-bound transfer took %v, want ~200ms", el)
	}
	if c.nodes[1].port.Stats().BytesRead != 1<<20 {
		t.Error("access port not accounted")
	}
}

func TestAccessPortSharedByConcurrentReads(t *testing.T) {
	// Two concurrent 1 MB reads of blocks on the same datanode share its
	// 5 MB/s port: together they move 2 MB through it, ~400ms. A port
	// that gave each read its full rate would deliver 10 MB/s and finish
	// both in ~200ms.
	c, clock := accessCluster(t, 1, 1<<20, 5<<20, 1<<30)
	f, err := c.Create("f", 2<<20, seqFill)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = f.ReadAt(make([]byte, 1<<20), int64(i)<<20)
		}()
	}
	wg.Wait()
	el := clock.Now() - start
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if el < 360*time.Millisecond || el > 700*time.Millisecond {
		t.Errorf("two concurrent 1MB reads through one 5MB/s port took %v, want ~400ms", el)
	}
	if got := c.nodes[0].port.Stats().BytesRead; got != 2<<20 {
		t.Errorf("port moved %d bytes, want %d", got, 2<<20)
	}
}

// flakyDN makes TryReserve fail at one datanode while plain Reserve
// stays infallible, mimicking the fault injector's wrapped device.
type flakyDN struct {
	storage.Device
	fail error
}

func (d *flakyDN) TryReserve(off, n int64) (time.Duration, error) {
	if d.fail != nil {
		return 0, d.fail
	}
	return d.Device.Reserve(off, n), nil
}

func TestWrapDeviceFaultFailsBlockFetch(t *testing.T) {
	clock := storage.NewRealClock()
	link, err := netsim.NewLink(1<<30, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("boom")
	var sites []string
	c, err := NewCluster(Config{
		Nodes: 3, BlockSize: 1024, DiskBW: 1 << 30, Link: link, Clock: clock,
		WrapDevice: func(site string, dev storage.Device) storage.Device {
			sites = append(sites, site)
			if site == "dn1" {
				return &flakyDN{Device: dev, fail: wantErr}
			}
			return dev
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 3 || sites[0] != "dn0" || sites[2] != "dn2" {
		t.Fatalf("wrap hook saw sites %v", sites)
	}
	f, err := c.Create("f", 4096, func(off int64, p []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	// Block 0 lives on dn0: reads confined to it still succeed.
	buf := make([]byte, 512)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read on healthy node failed: %v", err)
	}
	// Block 1 lives on dn1: the fetch must fail with the wrapped cause
	// and name the block and node.
	_, err = f.ReadAt(buf, 1024)
	if !errors.Is(err, wantErr) {
		t.Fatalf("read over faulty node: err = %v, want wrapped %v", err, wantErr)
	}
	for _, frag := range []string{"hdfs:", "block 1", "dn1"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
	// CopyToLocal crosses every node and must fail the same way.
	dst := storage.NewNullDevice(clock)
	if _, err := f.CopyToLocal(dst, nil); !errors.Is(err, wantErr) {
		t.Fatalf("CopyToLocal: err = %v, want wrapped %v", err, wantErr)
	}
}
