package netsim

import (
	"math"
	"math/big"
	"testing"
	"time"

	"supmr/internal/storage"
)

// arrival is one flow of a fixed schedule: n bytes joining at instant at.
type arrival struct {
	at time.Duration
	n  int64
}

// runSchedule issues every arrival at its instant on a fake clock, then
// waits for the flows in the given order, and returns each flow's
// departure instant in ns plus the link's final stats. Arrivals must be
// in time order.
func runSchedule(t testing.TB, capacity float64, arr []arrival, waitOrder []int) ([]float64, storage.DeviceStats) {
	t.Helper()
	clock := storage.NewFakeClock()
	l, err := NewLink(capacity, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]*flow, len(arr))
	for i, a := range arr {
		clock.Advance(a.at - clock.Now())
		flows[i] = l.issue(a.n)
	}
	for _, i := range waitOrder {
		l.wait(flows[i])
	}
	ends := make([]float64, len(flows))
	for i, f := range flows {
		if !f.done {
			t.Fatalf("flow %d not done after its wait", i)
		}
		ends[i] = f.end
	}
	return ends, l.Stats()
}

func TestLinkClosedFormSchedule(t *testing.T) {
	// 1 MB/s. A (1 MB) runs alone for 0.2 s, shares with B (0.5 MB) until
	// C (0.1 MB) joins at 0.4 s; C needs 0.1 s of service at a third of
	// the link and leaves at 0.7 s, B's last 0.3 s at half leaves at
	// 1.3 s, A's last 0.3 s alone at 1.6 s. D (0.25 MB) arrives to an
	// idle link at 2 s. A FIFO link would finish A at 1 s instead.
	arr := []arrival{
		{0, 1_000_000},
		{200 * time.Millisecond, 500_000},
		{400 * time.Millisecond, 100_000},
		{2 * time.Second, 250_000},
	}
	want := []time.Duration{1600 * time.Millisecond, 1300 * time.Millisecond, 700 * time.Millisecond, 2250 * time.Millisecond}
	wantBusy := 1850 * time.Millisecond
	// The departures are a function of the arrivals alone: waiting in
	// arrival order, in reverse, or last-first gives the same instants.
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	var first []float64
	for run, order := range orders {
		ends, s := runSchedule(t, 1e6, arr, order)
		for i, end := range ends {
			if d := end - float64(want[i]); math.Abs(d) > 1 {
				t.Errorf("run %d: flow %d departed at %.3fns, want %v (off by %.3fns)", run, i, end, want[i], d)
			}
		}
		if d := s.BusyTime - wantBusy; d < -time.Nanosecond || d > time.Nanosecond {
			t.Errorf("run %d: BusyTime = %v, want %v", run, s.BusyTime, wantBusy)
		}
		if s.Reads != 4 || s.BytesRead != 1_850_000 {
			t.Errorf("run %d: stats = %+v", run, s)
		}
		if first == nil {
			first = ends
			continue
		}
		for i := range ends {
			if ends[i] != first[i] {
				t.Errorf("run %d: flow %d departed at %vns, run 0 at %vns", run, i, ends[i], first[i])
			}
		}
	}
}

// referenceDepartures replays a schedule event by event in exact
// rational arithmetic: between consecutive arrivals and departures each
// of the k active flows drains at capacity/k bytes per second. It
// returns every flow's departure instant in ns.
func referenceDepartures(capacity int64, arr []arrival) []*big.Rat {
	type active struct {
		i    int
		left *big.Rat // bytes
	}
	perNs := new(big.Rat).SetFrac64(capacity, int64(time.Second)) // bytes per ns
	out := make([]*big.Rat, len(arr))
	now := new(big.Rat)
	var set []active
	next := 0
	for next < len(arr) || len(set) > 0 {
		if len(set) == 0 {
			now.SetInt64(int64(arr[next].at))
		}
		for next < len(arr) && new(big.Rat).SetInt64(int64(arr[next].at)).Cmp(now) <= 0 {
			set = append(set, active{next, new(big.Rat).SetInt64(arr[next].n)})
			next++
		}
		k := new(big.Rat).SetInt64(int64(len(set)))
		rate := new(big.Rat).Quo(perNs, k) // bytes per ns per flow
		least := set[0].left
		for _, a := range set[1:] {
			if a.left.Cmp(least) < 0 {
				least = a.left
			}
		}
		step := new(big.Rat).Quo(least, rate) // ns until the smallest leaves
		if next < len(arr) {
			gap := new(big.Rat).Sub(new(big.Rat).SetInt64(int64(arr[next].at)), now)
			if gap.Cmp(step) < 0 {
				step = gap
			}
		}
		served := new(big.Rat).Mul(step, rate)
		now.Add(now, step)
		kept := set[:0]
		for _, a := range set {
			a.left.Sub(a.left, served)
			if a.left.Sign() <= 0 {
				out[a.i] = new(big.Rat).Set(now)
				continue
			}
			kept = append(kept, a)
		}
		set = kept
	}
	return out
}

func FuzzLinkVsReference(f *testing.F) {
	f.Add([]byte{0, 10, 200, 5, 40, 3})
	f.Add([]byte{0, 255, 0, 255, 0, 255, 0, 1})
	f.Add([]byte{9, 1, 0, 2, 1, 3, 250, 7, 0, 9, 3, 60})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each flow is two bytes: the gap since the previous arrival in
		// ms and the size in KB (1..256). At most 16 flows.
		var arr []arrival
		at := time.Duration(0)
		for i := 0; i+1 < len(data) && len(arr) < 16; i += 2 {
			at += time.Duration(data[i]) * time.Millisecond
			arr = append(arr, arrival{at, (int64(data[i+1]) + 1) * 1000})
		}
		if len(arr) == 0 {
			return
		}
		const capacity = 1_000_000
		order := make([]int, len(arr))
		for i := range order {
			order[i] = len(arr) - 1 - i
		}
		ends, _ := runSchedule(t, capacity, arr, order)
		ref := referenceDepartures(capacity, arr)
		for i, end := range ends {
			want, _ := ref[i].Float64()
			if math.Abs(end-want) > 1 {
				t.Fatalf("flow %d of %v departed at %.3fns, reference %.3fns", i, arr, end, want)
			}
		}
	})
}
