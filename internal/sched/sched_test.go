package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supmr/internal/exec"
	"supmr/internal/metrics"
)

// step drives one job's serial operation stream against the scheduler:
// each op acquires a slot, reports its start on grants, then waits for
// the test to finish it via gate before releasing with cost.
func driveJob(t *Ticket, s *Scheduler, n int, cost time.Duration, grants chan<- string, gate <-chan struct{}, done chan<- error) {
	for i := 0; i < n; i++ {
		if err := s.Acquire(context.Background(), t); err != nil {
			done <- err
			return
		}
		grants <- t.Name()
		<-gate
		s.Release(t, cost)
	}
	done <- nil
}

// waitPending polls until n operations are queued for a slot.
func waitPending(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Waiting() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pending ops (have %d)", n, s.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOperationInterleaving is the acceptance-criteria schedule: a long
// job saturating the (single-slot) scheduler must not FIFO-block a
// short job submitted later — the short job's operations start
// interleaved between the long job's remaining operations, finishing
// long before the long job drains.
func TestOperationInterleaving(t *testing.T) {
	s := New(Config{OpSlots: 1})
	long := s.Register("long", 1)
	short := s.Register("short", 1)

	grants := make(chan string)
	gate := make(chan struct{})
	done := make(chan error, 2)

	const longOps, shortOps = 10, 3
	go driveJob(long, s, longOps, time.Millisecond, grants, gate, done)

	// Let the long job start (and only then submit the short one: the
	// FIFO-blocking scenario).
	order := []string{<-grants}

	go driveJob(short, s, shortOps, time.Millisecond, grants, gate, done)
	waitPending(t, s, 1) // the short job's first op is queued behind the running wave

	started := map[string]int{"long": 1}
	for len(order) < longOps+shortOps {
		gate <- struct{}{} // finish the running op
		next := <-grants
		order = append(order, next)
		started[next]++
		// While the peer of the now-running op still has work, wait for
		// its next op to queue so the schedule reflects contention, not
		// test timing. (Once the short job drains, the long job's ops are
		// granted without ever pending.)
		peerOps, peerDone := longOps, started["long"]
		if next == "long" {
			peerOps, peerDone = shortOps, started["short"]
		}
		if peerDone < peerOps {
			waitPending(t, s, 1)
		}
	}
	gate <- struct{}{} // finish the final op
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("driver failed: %v", err)
		}
	}

	// The short job's last op must start before the long job's drain:
	// under whole-job FIFO it would start at index >= longOps.
	lastShort := -1
	for i, name := range order {
		if name == "short" {
			lastShort = i
		}
	}
	if lastShort < 0 {
		t.Fatalf("short job never ran: %v", order)
	}
	if lastShort >= longOps {
		t.Fatalf("short job FIFO-blocked behind the long job: order %v", order)
	}
	// With equal weights and equal costs the schedule alternates while
	// both jobs have pending work: the short job's ops are spread out,
	// not clumped at the end of the long job's stream.
	if order[1] != "short" {
		t.Fatalf("first op after contention began should be the short job's (least virtual time), got %v", order)
	}
}

// TestWeightedShares pins the weighted fair queue: with both jobs
// continuously backlogged, a weight-3 job receives ~3x the operations
// of a weight-1 job over an observation window. Each job runs two
// concurrent op streams on one ticket (as a real job does with a map
// wave and an async spill drain) so the backlog is sustained — with
// one serial stream per job, only the peer is ever pending at release
// time and the schedule degenerates to alternation regardless of
// weight.
func TestWeightedShares(t *testing.T) {
	s := New(Config{OpSlots: 1})
	heavy := s.Register("heavy", 3)
	light := s.Register("light", 1)

	grants := make(chan string)
	gate := make(chan struct{})
	done := make(chan error, 4)
	const perStream = 8
	for i := 0; i < 2; i++ {
		go driveJob(heavy, s, perStream, time.Millisecond, grants, gate, done)
		go driveJob(light, s, perStream, time.Millisecond, grants, gate, done)
	}

	const window = 12
	counts := map[string]int{}
	var order []string
	for i := 0; i < window; i++ {
		name := <-grants
		counts[name]++
		order = append(order, name)
		// Hold the running op until the other three streams have their
		// next op queued, so every dispatch in the window chooses among a
		// full backlog.
		if i < window-1 {
			waitPending(t, s, 3)
		}
		gate <- struct{}{}
	}
	// Drain: let the rest run unobserved.
	go func() {
		for range grants {
			gate <- struct{}{}
		}
	}()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("driver failed: %v", err)
		}
	}
	close(grants)

	if counts["heavy"] < 2*counts["light"] {
		t.Fatalf("weight-3 job got %d ops vs weight-1's %d over %v — want >= 2x", counts["heavy"], counts["light"], order)
	}
	if counts["light"] == 0 {
		t.Fatalf("weight-1 job starved: %v", order)
	}
}

func TestAcquireCancellation(t *testing.T) {
	s := New(Config{OpSlots: 1})
	a := s.Register("a", 1)
	b := s.Register("b", 1)
	if err := s.Acquire(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("job abandoned")
	ctx, cancel := context.WithCancelCause(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Acquire(ctx, b) }()
	waitPending(t, s, 1)
	cancel(cause)
	if err := <-errc; !errors.Is(err, cause) {
		t.Fatalf("cancelled Acquire returned %v, want %v", err, cause)
	}
	if s.Waiting() != 0 {
		t.Fatalf("cancelled waiter left in queue (%d pending)", s.Waiting())
	}
	s.Release(a, time.Millisecond)
	// The slot must still be grantable after the cancelled wait.
	if err := s.Acquire(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	s.Release(b, 0)
}

func TestAdmissionBacklogBound(t *testing.T) {
	a := NewAdmission(1, 1)
	if err := a.Enter(context.Background()); err != nil {
		t.Fatalf("first Enter: %v", err)
	}
	// Second submission queues (backlog slot 1 of 1).
	entered := make(chan error, 1)
	go func() { entered <- a.Enter(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, pending := a.Stats(); pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second Enter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Third submission must be rejected, not queued.
	if err := a.Enter(context.Background()); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("backlog overflow returned %v, want ErrBacklogFull", err)
	}
	a.Leave()
	if err := <-entered; err != nil {
		t.Fatalf("queued Enter: %v", err)
	}
	a.Leave()
	if active, pending := a.Stats(); active != 0 || pending != 0 {
		t.Fatalf("after all Leaves: active=%d pending=%d", active, pending)
	}
}

func TestAdmissionEnterCancellation(t *testing.T) {
	a := NewAdmission(1, 4)
	if err := a.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- a.Enter(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, pending := a.Stats(); pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Enter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Enter returned %v", err)
	}
	a.Leave()
	if active, pending := a.Stats(); active != 0 || pending != 0 {
		t.Fatalf("after Leave: active=%d pending=%d", active, pending)
	}
}

func TestBudgetCarve(t *testing.T) {
	b := NewBudget(1000, 4) // guaranteed share: 250

	// A greedy first job cannot drain the reserve below later jobs'
	// guarantees.
	g1, rel1 := b.Carve(10_000)
	if g1 != 250 {
		t.Fatalf("greedy first grant = %d, want its share + spare = 250", g1)
	}
	g2, rel2 := b.Carve(100)
	if g2 != 100 {
		t.Fatalf("small want granted %d, want 100", g2)
	}
	g3, rel3 := b.Carve(10_000)
	if g3 < 250 {
		t.Fatalf("third grant = %d, below the guaranteed share", g3)
	}
	var total int64 = g1 + g2 + g3
	g4, rel4 := b.Carve(10_000)
	total += g4
	if total > 1000 {
		t.Fatalf("grants total %d, exceeding the global budget", total)
	}
	if g4 < 250 {
		t.Fatalf("fourth grant = %d, below the guaranteed share", g4)
	}
	rel1()
	rel1() // idempotent
	rel2()
	rel3()
	rel4()
	if got := b.Remaining(); got != 1000 {
		t.Fatalf("remaining after all releases = %d, want 1000", got)
	}

	// Unbudgeted jobs and nil budgets grant in full.
	if g, rel := b.Carve(0); g != 0 {
		t.Fatalf("want=0 granted %d", g)
	} else {
		rel()
	}
	var nb *Budget
	if g, rel := nb.Carve(123); g != 123 {
		t.Fatalf("nil budget granted %d, want full request", g)
	} else {
		rel()
	}
}

// TestBudgetConcurrent hammers Carve/release from many goroutines and
// checks the invariant that outstanding grants never exceed the total.
func TestBudgetConcurrent(t *testing.T) {
	const total = 1 << 20
	b := NewBudget(total, 8)
	var (
		mu  sync.Mutex
		out int64
		max int64
	)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(want int64) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				g, rel := b.Carve(want)
				mu.Lock()
				out += g
				if out > max {
					max = out
				}
				mu.Unlock()
				mu.Lock()
				out -= g
				mu.Unlock()
				rel()
			}
		}(int64(1000 + i*7919))
	}
	wg.Wait()
	if max > total {
		t.Fatalf("outstanding grants peaked at %d > total %d", max, total)
	}
	if b.Remaining() != total {
		t.Fatalf("remaining = %d after all releases, want %d", b.Remaining(), total)
	}
}

// TestJobPoolSpansExcludeSiblings: two jobs on one shared pool each see
// only their own activity spans — the per-job trace an engine builds.
func TestJobPoolSpansExcludeSiblings(t *testing.T) {
	pool := exec.NewLocal(2)
	defer pool.Close()
	s := New(Config{})
	a := NewJobPool(pool, s, JobConfig{Name: "a"})
	defer a.Close()
	b := NewJobPool(pool, s, JobConfig{Name: "b"})
	defer b.Close()
	var wg sync.WaitGroup
	for _, j := range []*JobPool{a, b} {
		wg.Add(1)
		go func(j *JobPool) {
			defer wg.Done()
			j.ForEach("map", metrics.StateUser, 4, func(int) error { time.Sleep(time.Millisecond); return nil })
			j.GoIO("ingest", metrics.StateIOWait, func() error { time.Sleep(time.Millisecond); return nil }).Wait()
		}(j)
	}
	// Only a's extra wave, never b's.
	wg.Wait()
	a.ForEach("reduce", metrics.StateSys, 2, func(int) error { time.Sleep(time.Millisecond); return nil })
	count := func(j *JobPool) (user, sys, io int) {
		for _, sp := range j.Record().Spans(exec.Mark{}) {
			switch {
			case sp.User == 1:
				user++
			case sp.Sys == 1:
				sys++
			case sp.IOWait == 1:
				io++
			}
		}
		return
	}
	if u, s, io := count(a); u == 0 || u > 2 || s == 0 || s > 2 || io != 1 {
		t.Errorf("job a spans: %d user, %d sys, %d io; want 1..2, 1..2, 1", u, s, io)
	}
	if u, s, io := count(b); u == 0 || u > 2 || s != 0 || io != 1 {
		t.Errorf("job b spans: %d user, %d sys, %d io; want 1..2, 0, 1", u, s, io)
	}
	if n := len(pool.Record().Spans(exec.Mark{})); n != 0 {
		t.Errorf("the shared pool's own record holds %d spans of its jobs", n)
	}
}

// TestJobPoolWorkersCap: a job capped at one worker on a four-worker
// pool reports a width of 1 and never has two of its tasks in flight;
// an uncapped job on the same pool runs them side by side.
func TestJobPoolWorkersCap(t *testing.T) {
	pool := exec.NewLocal(4)
	defer pool.Close()
	s := New(Config{})
	peak := func(cap int) (width int, most int64) {
		j := NewJobPool(pool, s, JobConfig{Name: "j", Workers: cap})
		defer j.Close()
		var inFlight, high atomic.Int64
		if _, err := j.ForEach("map", metrics.StateUser, 16, func(int) error {
			n := inFlight.Add(1)
			for {
				h := high.Load()
				if n <= h || high.CompareAndSwap(h, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return j.Workers(), high.Load()
	}
	if w, most := peak(1); w != 1 || most != 1 {
		t.Errorf("cap 1: width %d, %d tasks in flight at once; want 1 and 1", w, most)
	}
	if w, most := peak(0); w != 4 || most < 2 {
		t.Errorf("uncapped: width %d, %d tasks in flight at once; want 4 and more than 1", w, most)
	}
	if w, _ := peak(9); w != 4 {
		t.Errorf("cap 9 on 4 workers: width %d, want the pool's 4", w)
	}
}
