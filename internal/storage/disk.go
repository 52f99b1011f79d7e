package storage

import (
	"fmt"
	"sync"
	"time"
)

// Device models anything that takes time to serve reads: a disk, a
// RAID-0 array, a network link. Reserve books the service time for a
// request and returns the virtual/real completion deadline; callers then
// sleep on the device's clock until the deadline. Splitting reservation
// from sleeping lets RAID0 reserve on all member disks first and sleep
// once on the latest deadline. A link learns a flow's deadline only as
// later flows arrive, so it is booked through Issue instead.
type Device interface {
	// Reserve books service time for reading n bytes at byte offset off
	// and returns the completion deadline on the device clock.
	Reserve(off, n int64) time.Duration
	// Clock returns the clock the device schedules against.
	Clock() Clock
	// Bandwidth returns the nominal sequential read bandwidth in
	// bytes per second.
	Bandwidth() float64
	// Stats returns a snapshot of cumulative device counters.
	Stats() DeviceStats
}

// DeviceStats are cumulative counters for a device.
type DeviceStats struct {
	BytesRead    int64         // total payload bytes served to readers
	Reads        int64         // number of read requests
	BytesWritten int64         // total payload bytes accepted from writers
	Writes       int64         // number of write requests
	Seeks        int64         // requests that paid a seek penalty
	BusyTime     time.Duration // total time the device was occupied
}

// Writer is implemented by devices that model a write path: ReserveWrite
// books service time for writing n bytes at offset off, exactly as
// Reserve does for reads (same bandwidth, same FIFO queue, same seek
// accounting), and returns the completion deadline. The spill layer
// writes intermediate runs through it so spill IO is bandwidth-accounted
// against the same device serving ingest.
type Writer interface {
	ReserveWrite(off, n int64) time.Duration
}

// ReserveWrite books write service time on dev, falling back to the read
// path for devices that do not model writes separately (the timing is
// identical; only the stats attribution differs).
func ReserveWrite(dev Device, off, n int64) time.Duration {
	if w, ok := dev.(Writer); ok {
		return w.ReserveWrite(off, n)
	}
	return dev.Reserve(off, n)
}

// Issuer is implemented by devices whose completion time is not fixed at
// booking, like a processor-sharing link: Issue books a read of n bytes
// at off and returns the wait that blocks until it is served.
type Issuer interface {
	Issue(off, n int64) (wait func())
}

// Issue books a read on dev and returns its wait, falling back to
// Reserve plus a sleep to the deadline for devices that know it at
// booking.
func Issue(dev Device, off, n int64) (wait func()) {
	if is, ok := dev.(Issuer); ok {
		return is.Issue(off, n)
	}
	deadline, clock := dev.Reserve(off, n), dev.Clock()
	return func() { clock.SleepUntil(deadline) }
}

// DiskConfig describes a simulated disk.
type DiskConfig struct {
	Name      string        // for diagnostics
	Bandwidth float64       // sequential read bandwidth, bytes/sec
	SeekTime  time.Duration // penalty for a discontiguous request
	// StreamBandwidth, when positive and below Bandwidth, caps the rate a
	// single request is delivered at: one outstanding request completes at
	// StreamBandwidth while the device as a whole still services queued
	// requests at Bandwidth. This models command-queued devices (NCQ
	// disks, multi-queue SSDs, RAID members behind a striping controller)
	// where a lone sequential reader cannot saturate the aggregate — the
	// gap the multi-lane ingest path exists to close. Zero (the default)
	// means a single request sees the full Bandwidth, the original
	// single-stream model.
	StreamBandwidth float64
}

// Disk is a single simulated spindle. Requests are serviced in FIFO
// order: each reservation begins when the previous one completes (or now,
// if the disk is idle) and lasts n/bandwidth, plus SeekTime when the
// request does not continue the previous request's byte range.
type Disk struct {
	cfg   DiskConfig
	clock Clock

	mu       sync.Mutex
	busyTill time.Duration // when the last accepted request completes
	nextOff  int64         // offset one past the last served byte
	stats    DeviceStats
}

// NewDisk builds a disk from cfg scheduling against clock.
func NewDisk(cfg DiskConfig, clock Clock) (*Disk, error) {
	if cfg.Bandwidth <= 0 {
		return nil, fmt.Errorf("storage: disk %q bandwidth must be positive, got %v", cfg.Name, cfg.Bandwidth)
	}
	if cfg.SeekTime < 0 {
		return nil, fmt.Errorf("storage: disk %q seek time must be non-negative, got %v", cfg.Name, cfg.SeekTime)
	}
	if cfg.StreamBandwidth < 0 {
		return nil, fmt.Errorf("storage: disk %q stream bandwidth must be non-negative, got %v", cfg.Name, cfg.StreamBandwidth)
	}
	if clock == nil {
		return nil, fmt.Errorf("storage: disk %q requires a clock", cfg.Name)
	}
	return &Disk{cfg: cfg, clock: clock, nextOff: -1}, nil
}

// Clock returns the disk's scheduling clock.
func (d *Disk) Clock() Clock { return d.clock }

// Bandwidth returns the configured sequential bandwidth in bytes/sec.
func (d *Disk) Bandwidth() float64 { return d.cfg.Bandwidth }

// Name returns the configured device name.
func (d *Disk) Name() string { return d.cfg.Name }

// Reserve books the service time for n bytes at off and returns the
// completion deadline. n == 0 reserves no time and returns the current
// deadline horizon.
func (d *Disk) Reserve(off, n int64) time.Duration {
	return d.reserve(off, n, false)
}

// ReserveWrite books service time for writing n bytes at off. Writes
// share the read path's FIFO queue and head position: a spill write
// interleaved with ingest reads pays the same contention a real spindle
// would.
func (d *Disk) ReserveWrite(off, n int64) time.Duration {
	return d.reserve(off, n, true)
}

func (d *Disk) reserve(off, n int64, write bool) time.Duration {
	if n < 0 {
		panic(fmt.Sprintf("storage: negative request size %d on disk %q", n, d.cfg.Name))
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	now := d.clock.Now()
	start := d.busyTill
	if start < now {
		start = now
	}
	var service, seek time.Duration
	if n > 0 {
		if d.nextOff != off && d.nextOff >= 0 {
			seek = d.cfg.SeekTime
			d.stats.Seeks++
		} else if d.nextOff < 0 && d.cfg.SeekTime > 0 {
			// First request ever pays an initial seek.
			seek = d.cfg.SeekTime
			d.stats.Seeks++
		}
		service = seek + durationFor(n, d.cfg.Bandwidth)
		d.nextOff = off + n
		if write {
			d.stats.Writes++
			d.stats.BytesWritten += n
		} else {
			d.stats.Reads++
			d.stats.BytesRead += n
		}
		d.stats.BusyTime += service
	}
	// The device head is occupied for `service` at the aggregate
	// bandwidth; the next queued request can start then. The *caller's*
	// completion deadline may be later: a single stream drains at
	// StreamBandwidth, so a lone request finishes at the stream rate while
	// concurrent requests pipeline behind each other and together approach
	// the aggregate rate.
	d.busyTill = start + service
	complete := d.busyTill
	if n > 0 && d.cfg.StreamBandwidth > 0 && d.cfg.StreamBandwidth < d.cfg.Bandwidth {
		if c := start + seek + durationFor(n, d.cfg.StreamBandwidth); c > complete {
			complete = c
		}
	}
	return complete
}

// Stats returns a snapshot of the disk's counters.
func (d *Disk) Stats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// durationFor converts a byte count at a bandwidth into service time.
func durationFor(n int64, bytesPerSec float64) time.Duration {
	return time.Duration(float64(n) / bytesPerSec * float64(time.Second))
}

// NullDevice is a Device with infinite bandwidth: reservations complete
// immediately. Useful for isolating compute behaviour in tests and for
// the "input already in memory" configurations.
type NullDevice struct {
	clock Clock
	mu    sync.Mutex
	stats DeviceStats
}

// NewNullDevice returns an infinitely fast device on clock.
func NewNullDevice(clock Clock) *NullDevice { return &NullDevice{clock: clock} }

// Reserve accounts the read and completes immediately.
func (d *NullDevice) Reserve(off, n int64) time.Duration {
	d.mu.Lock()
	d.stats.Reads++
	d.stats.BytesRead += n
	d.mu.Unlock()
	return d.clock.Now()
}

// ReserveWrite accounts the write and completes immediately.
func (d *NullDevice) ReserveWrite(off, n int64) time.Duration {
	d.mu.Lock()
	d.stats.Writes++
	d.stats.BytesWritten += n
	d.mu.Unlock()
	return d.clock.Now()
}

// Clock returns the device clock.
func (d *NullDevice) Clock() Clock { return d.clock }

// Bandwidth reports a very large finite number to keep ratio arithmetic
// in callers well-defined.
func (d *NullDevice) Bandwidth() float64 { return 1 << 50 }

// Stats returns a snapshot of counters.
func (d *NullDevice) Stats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
