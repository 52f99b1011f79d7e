package netsim

import (
	"sync"
	"testing"
	"time"

	"supmr/internal/faults"
	"supmr/internal/storage"
)

func TestLinkValidation(t *testing.T) {
	clock := storage.NewFakeClock()
	if _, err := NewLink(0, 0, clock); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewLink(1e6, -time.Second, clock); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := NewLink(1e6, 0, nil); err == nil {
		t.Error("nil clock accepted")
	}
}

func TestLinkSingleFlowRate(t *testing.T) {
	clock := storage.NewRealClock()
	l, err := NewLink(10<<20, 0, clock) // 10 MB/s
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	l.Transfer(1 << 20) // 1 MB -> ~100ms
	el := clock.Now() - start
	if el < 90*time.Millisecond || el > 200*time.Millisecond {
		t.Errorf("1MB over 10MB/s took %v, want ~100ms", el)
	}
	s := l.Stats()
	if s.BytesRead != 1<<20 || s.Reads != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLinkFairSharing(t *testing.T) {
	// Two concurrent transfers of equal size should finish in about the
	// time one transfer of double size would take — aggregate capacity
	// is conserved.
	clock := storage.NewRealClock()
	l, err := NewLink(20<<20, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Transfer(1 << 20)
		}()
	}
	wg.Wait()
	el := clock.Now() - start
	// 2 MB total over 20 MB/s = ~100ms.
	if el < 90*time.Millisecond || el > 250*time.Millisecond {
		t.Errorf("2x1MB concurrent over 20MB/s took %v, want ~100ms", el)
	}
}

func TestLinkLatency(t *testing.T) {
	clock := storage.NewRealClock()
	l, err := NewLink(1<<30, 30*time.Millisecond, clock)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	l.Transfer(1024)
	el := clock.Now() - start
	if el < 30*time.Millisecond {
		t.Errorf("transfer returned before latency elapsed: %v", el)
	}
}

func TestLinkZeroBytes(t *testing.T) {
	clock := storage.NewRealClock()
	l, err := NewLink(1e6, time.Hour, clock) // huge latency must NOT be paid
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		l.Transfer(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Transfer(0) blocked")
	}
	if l.Stats().Reads != 0 {
		t.Error("zero transfer counted")
	}
}

func TestGigabitConstant(t *testing.T) {
	if GigabitEthernet != 125e6 {
		t.Errorf("1 Gbit = %v B/s, want 125e6", GigabitEthernet)
	}
}

func TestLinkDelayerStretchesTransfers(t *testing.T) {
	// A link wrapped by the device fault layer takes latency spikes
	// through the same seam as a disk: one decision per transfer, slept
	// before the flow joins.
	clock := storage.NewFakeClock()
	mk := func(plan faults.Plan) (time.Duration, int64) {
		l, err := NewLink(1e9, 0, clock)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(plan, clock)
		dev := inj.WrapDevice("link", l)
		start := clock.Now()
		storage.Issue(dev, 0, 1<<20)()
		return clock.Now() - start, inj.Counters().Snapshot().LatencySpikes
	}
	base, _ := mk(faults.Plan{})
	slow, spikes := mk(faults.Plan{Latency: 5 * time.Millisecond, LatencyEvery: 1})
	if spikes != 1 {
		t.Fatalf("delay charged %d times, want 1", spikes)
	}
	if got := slow - base; got < 5*time.Millisecond {
		t.Fatalf("transfer stretched by %v, want >= 5ms", got)
	}
	// A plan without latency must not add time.
	if same, _ := mk(faults.Plan{LatencyEvery: 1}); same != base {
		t.Fatalf("zero delay changed transfer time: %v vs %v", same, base)
	}
}

func TestLinkBandwidthCharge(t *testing.T) {
	// Exact single-flow arithmetic on the virtual clock: n bytes over a
	// c B/s link must charge n/c seconds plus one latency, regardless of
	// how many quanta the processor-sharing loop integrates over.
	clock := storage.NewFakeClock()
	l, err := NewLink(1e6, 10*time.Millisecond, clock)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	l.Transfer(500_000) // 0.5s of wire time
	el := clock.Now() - start
	want := 510 * time.Millisecond
	if d := el - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("500kB over 1MB/s + 10ms latency charged %v, want %v", el, want)
	}
	// A second transfer accumulates; stats count both.
	l.Transfer(250_000)
	s := l.Stats()
	if s.BytesRead != 750_000 || s.Reads != 2 {
		t.Errorf("stats = %+v, want 750000 bytes / 2 transfers", s)
	}
}

func TestLinkStalledFlowDoesNotDepressShare(t *testing.T) {
	// Regression for the flow-accounting drift: a transfer stuck in its
	// injected delay must not count as an active flow, so a concurrent
	// clean transfer keeps the full link to itself. Before the fix the
	// clean 1 MB below ran at half rate (~200ms) for the duration of the
	// stall; fixed it finishes in ~100ms.
	clock := storage.NewRealClock()
	l, err := NewLink(10<<20, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Only the first transfer goes through the fault wrapper and stalls;
	// the second (clean) flow uses the bare link.
	stalled := faults.New(faults.Plan{Latency: 300 * time.Millisecond, LatencyEvery: 1}, clock).WrapDevice("link", l)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the stalled flow: 300ms delay, then 1 MB
		defer wg.Done()
		storage.Issue(stalled, 0, 1<<20)()
	}()
	time.Sleep(20 * time.Millisecond) // let it enter the stall
	start := clock.Now()
	l.Transfer(1 << 20) // clean flow, issued mid-stall
	el := clock.Now() - start
	wg.Wait()
	if el > 170*time.Millisecond {
		t.Errorf("clean 1MB during a stalled flow took %v, want ~100ms (full share)", el)
	}
	if got := l.Stats().BytesRead; got != 2<<20 {
		t.Errorf("bytes conserved: moved %d, want %d", got, 2<<20)
	}
}

func TestLinkConcurrentFairnessConvergesToAggregate(t *testing.T) {
	// Four concurrent transfers share the link; total wall time must be
	// the aggregate serialization time.
	clock := storage.NewRealClock()
	l, err := NewLink(40<<20, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Transfer(1 << 20)
		}()
	}
	wg.Wait()
	el := clock.Now() - start
	// 4 MB over 40 MB/s = ~100ms aggregate.
	if el < 90*time.Millisecond || el > 300*time.Millisecond {
		t.Errorf("4x1MB concurrent over 40MB/s took %v, want ~100ms", el)
	}
	s := l.Stats()
	if s.BytesRead != 4<<20 || s.Reads != 4 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFabricTransferRate(t *testing.T) {
	clock := storage.NewFakeClock()
	f, err := NewFabric(3, 1e6, 10*time.Millisecond, clock)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	if err := f.Transfer(0, 2, 500_000); err != nil {
		t.Fatal(err)
	}
	el := clock.Now() - start
	want := 510 * time.Millisecond // 0.5s wire + 10ms egress latency
	if d := el - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("fabric transfer charged %v, want %v", el, want)
	}
	if got := f.Egress(0).Stats().BytesRead; got != 500_000 {
		t.Errorf("egress bytes = %d, want 500000", got)
	}
	if got := f.Ingress(2).Stats().BytesRead; got != 500_000 {
		t.Errorf("ingress bytes = %d, want 500000", got)
	}
	if got := f.Ingress(1).Stats().BytesRead; got != 0 {
		t.Errorf("uninvolved port charged %d bytes", got)
	}
}

func TestFabricLoopbackFree(t *testing.T) {
	clock := storage.NewFakeClock()
	f, err := NewFabric(2, 1, time.Hour, clock) // 1 B/s: any wire charge would hang the virtual clock forward
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	if err := f.Transfer(1, 1, 1<<20); err != nil {
		t.Fatal(err)
	}
	if el := clock.Now() - start; el != 0 {
		t.Errorf("loopback charged %v, want 0", el)
	}
	if got := f.Egress(1).Stats().BytesRead; got != 0 {
		t.Errorf("loopback counted %d egress bytes", got)
	}
}

func TestFabricValidation(t *testing.T) {
	clock := storage.NewFakeClock()
	if _, err := NewFabric(0, 1e6, 0, clock); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewFabric(2, 0, 0, clock); err == nil {
		t.Error("zero bandwidth accepted")
	}
	f, err := NewFabric(2, 1e6, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Transfer(-1, 0, 10); err == nil {
		t.Error("negative src accepted")
	}
	if err := f.Transfer(0, 2, 10); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if err := f.Transfer(0, 1, 0); err != nil {
		t.Error("zero bytes should be a no-op")
	}
	if f.Nodes() != 2 {
		t.Errorf("Nodes() = %d, want 2", f.Nodes())
	}
}

func TestFabricRound(t *testing.T) {
	// 2^20 B/s ports and loads in units of 2^14 bytes: every link's load
	// drains in a whole number of 1/64 s, so the closed form is exact.
	const bw, unit, latency = 1 << 20, 1 << 14, 7 * time.Millisecond
	clock := storage.NewFakeClock()
	f, err := NewFabric(4, bw, latency, clock)
	if err != nil {
		t.Fatal(err)
	}
	// An uneven all-to-all: node s sends (s+1)*(d+2) units to each other
	// node d, plus a loopback and an empty flow that must cost nothing.
	var flows []Flow
	var egress, ingress [4]int64
	for s := range 4 {
		for d := range 4 {
			if d == s {
				continue
			}
			n := int64((s+1)*(d+2)) * unit
			flows = append(flows, Flow{Src: s, Dst: d, Bytes: n})
			egress[s] += n
			ingress[d] += n
		}
	}
	flows = append(flows, Flow{Src: 2, Dst: 2, Bytes: 1 << 30}, Flow{Src: 0, Dst: 1})
	busiest := int64(0)
	for i := range 4 {
		busiest = max(busiest, egress[i], ingress[i])
	}
	start := clock.Now()
	if err := f.Round(flows); err != nil {
		t.Fatal(err)
	}
	want := latency + time.Duration(busiest/unit)*time.Second/64
	if el := clock.Now() - start; el != want {
		t.Errorf("round took %v, want latency + busiest link %d B / %d B/s = %v", el, busiest, bw, want)
	}
	for i := range 4 {
		if got := f.Egress(i).Stats().BytesRead; got != egress[i] {
			t.Errorf("egress %d moved %d bytes, want %d", i, got, egress[i])
		}
		if got := f.Ingress(i).Stats().BytesRead; got != ingress[i] {
			t.Errorf("ingress %d moved %d bytes, want %d", i, got, ingress[i])
		}
	}

	// The ingress flow joins after the latency, with the egress flow:
	// while the latency is slept, dst's ingress carries nothing.
	var one *Fabric
	inFlight := -1
	spy := &sleepSpy{FakeClock: clock, before: func() {
		if inFlight < 0 {
			in := one.Ingress(1)
			in.mu.Lock()
			inFlight = len(in.flows)
			in.mu.Unlock()
		}
	}}
	if one, err = NewFabric(2, bw, latency, spy); err != nil {
		t.Fatal(err)
	}
	start = clock.Now()
	if err := one.Round([]Flow{{Src: 0, Dst: 1, Bytes: 4 * unit}}); err != nil {
		t.Fatal(err)
	}
	if el, want := clock.Now()-start, latency+time.Second/16; el != want {
		t.Errorf("one-flow round took %v, want %v", el, want)
	}
	if inFlight != 0 {
		t.Errorf("%d flow(s) on the ingress during the latency, want 0", inFlight)
	}

	// A bad endpoint anywhere fails the round before any time passes.
	start = clock.Now()
	if err := f.Round([]Flow{{Src: 0, Dst: 1, Bytes: unit}, {Src: 0, Dst: 4, Bytes: unit}}); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if el := clock.Now() - start; el != 0 || f.Egress(0).Stats().BytesRead != egress[0] {
		t.Errorf("a rejected round charged %v and moved bytes", el)
	}
}

// sleepSpy is a FakeClock that calls before ahead of every sleep.
type sleepSpy struct {
	*storage.FakeClock
	before func()
}

func (c *sleepSpy) SleepUntil(t time.Duration) {
	c.before()
	c.FakeClock.SleepUntil(t)
}
