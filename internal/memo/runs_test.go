package memo

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"supmr/internal/spill"
	"supmr/internal/storage"
)

// countingBacking records every Close of every run it hands out, by
// run ID, and lets a test hold a run's reads at a gate.
type countingBacking struct {
	mu     sync.Mutex
	closes []int // Close calls per run ID

	// gate, when set, runs at the start of every ReadAt; it may block.
	gate func(id int)
}

type countingRun struct {
	spill.RunData
	b  *countingBacking
	id int
}

func (b *countingBacking) NewRun(id int) (spill.RunData, error) {
	inner, err := spill.MemBacking{}.NewRun(id)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	for len(b.closes) <= id {
		b.closes = append(b.closes, 0)
	}
	b.mu.Unlock()
	return &countingRun{RunData: inner, b: b, id: id}, nil
}

func (r *countingRun) ReadAt(p []byte, off int64) (int, error) {
	if r.b.gate != nil {
		r.b.gate(r.id)
	}
	return r.RunData.ReadAt(p, off)
}

func (r *countingRun) Close() error {
	r.b.mu.Lock()
	r.b.closes[r.id]++
	r.b.mu.Unlock()
	return r.RunData.Close()
}

// closesOf returns how many times run id has been closed.
func (b *countingBacking) closesOf(id int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closes[id]
}

// tally returns how many runs were made, how many are still open, and
// how many were closed more than once.
func (b *countingBacking) tally() (made, open, twice int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.closes {
		switch {
		case c == 0:
			open++
		case c > 1:
			twice++
		}
	}
	return len(b.closes), open, twice
}

// TestStoreReleasesEveryRun: across hundreds of Puts that evict under
// the budget and replace live keys, the backings left open are exactly
// the resident entries, and Close closes every backing exactly once.
func TestStoreReleasesEveryRun(t *testing.T) {
	b := &countingBacking{}
	s, err := NewStore(Config{Device: storage.NewNullDevice(storage.NewFakeClock()), Budget: 4 << 10, Backing: b})
	if err != nil {
		t.Fatal(err)
	}
	const puts = 600
	for i := 0; i < puts; i++ {
		k := keyOf(fmt.Sprintf("k%d", i%53))
		if err := s.Put(k, bytes.Repeat([]byte{byte(i)}, 40+i%300), int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if _, _, err := s.Get(keyOf(fmt.Sprintf("k%d", (i*5)%53))); err != nil {
				t.Fatal(err)
			}
		}
		made, open, twice := b.tally()
		if st := s.Stats(); open != st.Entries || twice != 0 {
			t.Fatalf("after put %d: %d of %d backings open, %d closed twice; %d entries resident", i, open, made, twice, st.Entries)
		}
	}
	st := s.Stats()
	if replaced := st.Stored - st.Evicted - int64(st.Entries); st.Evicted == 0 || replaced == 0 {
		t.Fatalf("stats = %+v: want LRU evictions and same-key replacements both exercised", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if made, _, _ := b.tally(); made != puts {
		t.Fatalf("%d backings made for %d puts", made, puts)
	}
	for id := range puts {
		if n := b.closesOf(id); n != 1 {
			t.Fatalf("run %d closed %d times", id, n)
		}
	}
}

// TestEvictedWhileReadReleasedOnReturn: an entry evicted while a Get is
// reading it keeps its backing until that Get returns, and the Get
// still gets the payload it asked for.
func TestEvictedWhileReadReleasedOnReturn(t *testing.T) {
	entered, resume := make(chan struct{}), make(chan struct{})
	b := &countingBacking{gate: func(id int) {
		if id == 0 {
			entered <- struct{}{}
			<-resume
		}
	}}
	s, err := NewStore(Config{Device: storage.NewNullDevice(storage.NewFakeClock()), Budget: 300, Backing: b})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	held := bytes.Repeat([]byte("h"), 100)
	if err := s.Put(keyOf("held"), held, 1); err != nil { // run 0
		t.Fatal(err)
	}
	type result struct {
		payload []byte
		err     error
	}
	done := make(chan result)
	go func() {
		p, _, err := s.Get(keyOf("held"))
		done <- result{p, err}
	}()
	<-entered
	for i := 0; i < 3; i++ { // three more 100-byte entries push "held" out
		if err := s.Put(keyOf(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{byte(i)}, 100), 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Evicted != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want the held entry evicted", st)
	}
	if n := b.closesOf(0); n != 0 {
		t.Fatalf("held run closed %d times while its Get was reading", n)
	}
	close(resume)
	r := <-done
	if r.err != nil || !bytes.Equal(r.payload, held) {
		t.Fatalf("held Get = %d bytes, %v; want its payload", len(r.payload), r.err)
	}
	if _, open, twice := b.tally(); open != 3 || twice != 0 {
		t.Fatalf("after the Get returned: %d backings open, %d closed twice; want the 3 resident", open, twice)
	}
	if n := b.closesOf(0); n != 1 {
		t.Fatalf("held run closed %d times after its Get returned, want 1", n)
	}
}
