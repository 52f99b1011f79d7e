// Package netsim models the network substrate of the Fig. 7 case study:
// a 32-node scale-out storage system "connected with 1 Gbit ethernet
// behind one link". The essential behaviour is that every byte ingested
// from the distributed file system crosses ONE shared link, so aggregate
// ingest bandwidth is capped at link capacity (~125 MB/s) no matter how
// many datanodes serve blocks in parallel.
//
// A Link is a storage.Device with a processor-sharing discipline beside
// the disk's FIFO queue: concurrent transfers split capacity equally,
// converging to the same aggregate as FIFO but with realistic per-flow
// progress. Flow finish times are computed exactly at every arrival and
// departure, so link time is a pure function of when flows join, never
// of when their waiters wake. Multi-hop paths compose links through
// storage.Issue rather than charging one link from another.
package netsim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"supmr/internal/storage"
)

// Link is a shared, capacity-limited network link.
type Link struct {
	capacity float64 // bytes/sec
	latency  time.Duration
	clock    storage.Clock

	mu    sync.Mutex
	at    float64 // ns: the flows below have been served up to this instant
	busy  float64 // ns the link has had at least one flow
	flows []*flow
	stats storage.DeviceStats
}

// flow is one transfer in the processor-sharing set.
type flow struct {
	left float64 // ns of service left at full capacity
	end  float64 // ns: departure instant, once done
	done bool
}

// NewLink builds a link with the given capacity (bytes/sec) and one-way
// latency, scheduling against clock.
func NewLink(capacity float64, latency time.Duration, clock storage.Clock) (*Link, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("netsim: link capacity must be positive, got %v", capacity)
	}
	if latency < 0 {
		return nil, fmt.Errorf("netsim: link latency must be non-negative, got %v", latency)
	}
	if clock == nil {
		return nil, fmt.Errorf("netsim: link requires a clock")
	}
	return &Link{capacity: capacity, latency: latency, clock: clock}, nil
}

// Bandwidth returns the link capacity in bytes/sec.
func (l *Link) Bandwidth() float64 { return l.capacity }

// Clock returns the link's clock.
func (l *Link) Clock() storage.Clock { return l.clock }

// Stats returns a snapshot of the counters: a transfer counts as a read,
// and BusyTime is the time the link has had at least one flow.
func (l *Link) Stats() storage.DeviceStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.serve(float64(l.clock.Now()))
	s := l.stats
	s.BusyTime = time.Duration(math.Round(l.busy))
	return s
}

// Transfer moves n bytes across the link, blocking the caller until the
// flow's share of capacity has delivered them all.
func (l *Link) Transfer(n int64) { l.Issue(0, n)() }

// Reserve moves n bytes and returns when they are delivered. A
// processor-sharing finish is not known when a flow joins — later
// arrivals move it — so Reserve blocks; storage.Issue is the
// non-blocking form.
func (l *Link) Reserve(off, n int64) time.Duration {
	l.Issue(off, n)()
	return l.clock.Now()
}

// Issue starts an n-byte transfer and returns the wait that blocks until
// it is delivered. Latency is slept here, before the flow joins, so a
// flow still in flight to the link does not depress the share of flows
// that are moving bytes. A path of several links issues its latency-free
// hops first, then the hop with latency, and waits for all of them.
func (l *Link) Issue(_, n int64) (wait func()) {
	f := l.issue(n)
	return func() { l.wait(f) }
}

func (l *Link) issue(n int64) *flow {
	if n <= 0 {
		return &flow{done: true}
	}
	if l.latency > 0 {
		l.clock.SleepUntil(l.clock.Now() + l.latency)
	}
	return l.join(n, l.clock.Now())
}

// join adds an n-byte flow (n > 0) to the set at instant at.
func (l *Link) join(n int64, at time.Duration) *flow {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.serve(float64(at))
	f := &flow{left: float64(n) / l.capacity * float64(time.Second)}
	l.flows = append(l.flows, f)
	l.stats.Reads++
	l.stats.BytesRead += n
	return f
}

// wait sleeps to f's finish if no flow arrives after now, and again if
// one did and moved it.
func (l *Link) wait(f *flow) {
	for {
		l.mu.Lock()
		now := l.clock.Now()
		l.serve(float64(now))
		if f.done {
			l.mu.Unlock()
			return
		}
		// Until f leaves, every flow g is served at f's rate, so g takes
		// min(left_g, left_f) of the link's time before f is done. f is
		// not done at now, so it leaves after now even when rounding
		// says otherwise.
		finish := l.at
		for _, g := range l.flows {
			finish += math.Min(g.left, f.left)
		}
		l.mu.Unlock()
		l.clock.SleepUntil(max(time.Duration(math.Ceil(finish)), now+1))
	}
}

// serve advances the flow set to instant t event by event: between
// departures each of the k flows is served at capacity/k. Caller holds
// l.mu.
func (l *Link) serve(t float64) {
	for len(l.flows) > 0 {
		first := l.flows[0].left
		for _, g := range l.flows[1:] {
			first = math.Min(first, g.left)
		}
		k := float64(len(l.flows))
		end := l.at + first*k
		if end > t {
			if t > l.at {
				for _, g := range l.flows {
					g.left -= (t - l.at) / k
				}
				l.busy += t - l.at
				l.at = t
			}
			return
		}
		l.busy += end - l.at
		l.at = end
		kept := l.flows[:0]
		for _, g := range l.flows {
			if g.left == first {
				g.left, g.end, g.done = 0, end, true
				continue
			}
			g.left -= first
			kept = append(kept, g)
		}
		l.flows = kept
	}
	if t > l.at {
		l.at = t
	}
}

// GigabitEthernet is the capacity of the case study's 1 Gbit link in
// bytes per second.
const GigabitEthernet = 125e6

// Fabric models the inter-node network of a multi-node SupMR cluster:
// every node owns a duplex port — an egress link it sends shuffle
// frames through and an ingress link it receives them on. Transfers
// move in rounds: a round pays the port latency once, then every
// transfer joins src's egress and dst's ingress at one instant, so a
// round lasts latency + the busiest link's bytes / bandwidth.
type Fabric struct {
	egress  []*Link
	ingress []*Link
	latency time.Duration
	clock   storage.Clock
}

// Flow is one transfer of a fabric round: Bytes from node Src to node
// Dst.
type Flow struct {
	Src, Dst int
	Bytes    int64
}

// NewFabric builds an n-node fabric whose ports all run at bw bytes/sec
// with the given one-way latency (charged once per round).
func NewFabric(n int, bw float64, latency time.Duration, clock storage.Clock) (*Fabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netsim: fabric needs at least one node, got %d", n)
	}
	if latency < 0 {
		return nil, fmt.Errorf("netsim: fabric latency must be non-negative, got %v", latency)
	}
	f := &Fabric{latency: latency, clock: clock}
	for i := 0; i < n; i++ {
		eg, err := NewLink(bw, 0, clock)
		if err != nil {
			return nil, err
		}
		in, err := NewLink(bw, 0, clock)
		if err != nil {
			return nil, err
		}
		f.egress = append(f.egress, eg)
		f.ingress = append(f.ingress, in)
	}
	return f, nil
}

// Nodes returns the number of ports.
func (f *Fabric) Nodes() int { return len(f.egress) }

// Egress returns node i's send link.
func (f *Fabric) Egress(i int) *Link { return f.egress[i] }

// Ingress returns node i's receive link.
func (f *Fabric) Ingress(i int) *Link { return f.ingress[i] }

// Transfer moves n bytes from src to dst: a round of one flow. Loopback
// (src == dst) is free: local-partition data never crosses the wire.
func (f *Fabric) Transfer(src, dst int, n int64) error {
	return f.Round([]Flow{{Src: src, Dst: dst, Bytes: n}})
}

// Round moves every flow at once and returns when all are delivered.
// It checks every endpoint before any time passes, sleeps the port
// latency once if any flow crosses a link, then joins each crossing
// flow to src's egress and dst's ingress at one instant; loopback and
// empty flows are free. Flows meeting on a port share it.
func (f *Fabric) Round(flows []Flow) error {
	crosses := false
	for _, t := range flows {
		if t.Src < 0 || t.Src >= len(f.egress) {
			return fmt.Errorf("netsim: fabric src %d out of range [0,%d)", t.Src, len(f.egress))
		}
		if t.Dst < 0 || t.Dst >= len(f.ingress) {
			return fmt.Errorf("netsim: fabric dst %d out of range [0,%d)", t.Dst, len(f.ingress))
		}
		crosses = crosses || (t.Src != t.Dst && t.Bytes > 0)
	}
	if !crosses {
		return nil
	}
	if f.latency > 0 {
		f.clock.SleepUntil(f.clock.Now() + f.latency)
	}
	type joined struct {
		l *Link
		f *flow
	}
	at, waits := f.clock.Now(), make([]joined, 0, 2*len(flows))
	for _, t := range flows {
		if t.Src != t.Dst && t.Bytes > 0 {
			waits = append(waits,
				joined{f.egress[t.Src], f.egress[t.Src].join(t.Bytes, at)},
				joined{f.ingress[t.Dst], f.ingress[t.Dst].join(t.Bytes, at)})
		}
	}
	for _, w := range waits {
		w.l.wait(w.f)
	}
	return nil
}
