package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"supmr/internal/kv"
	"supmr/internal/spill"
	"supmr/internal/storage"
)

func newStore(t *testing.T, budget int64) *Store {
	t.Helper()
	s, err := NewStore(Config{Device: storage.NewNullDevice(storage.NewFakeClock()), Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func keyOf(s string) Key { return Key(sha256.Sum256([]byte(s))) }

func TestStoreRoundtrip(t *testing.T) {
	s := newStore(t, 0)
	payload := bytes.Repeat([]byte("abc123"), 10_000)
	if err := s.Put(keyOf("k1"), payload, 7); err != nil {
		t.Fatal(err)
	}
	got, records, err := s.Get(keyOf("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) || records != 7 {
		t.Fatalf("roundtrip mismatch: %d bytes, %d records", len(got), records)
	}
	if miss, _, err := s.Get(keyOf("absent")); err != nil || miss != nil {
		t.Fatalf("absent key: payload=%v err=%v, want clean miss", miss != nil, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stored != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != int64(len(payload)) {
		t.Fatalf("resident bytes = %d, want %d", st.Bytes, len(payload))
	}
}

func TestStoreChargesDevice(t *testing.T) {
	clk := storage.NewFakeClock()
	dev, err := storage.NewDisk(storage.DiskConfig{Name: "m", Bandwidth: 1 << 20}, clk)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 1<<19) // half the bandwidth: ~0.5 virtual s per pass
	if err := s.Put(keyOf("k"), payload, 1); err != nil {
		t.Fatal(err)
	}
	afterPut := clk.Now()
	if afterPut <= 0 {
		t.Fatal("Put charged no device time")
	}
	if _, _, err := s.Get(keyOf("k")); err != nil {
		t.Fatal(err)
	}
	if clk.Now() <= afterPut {
		t.Fatal("Get charged no device time")
	}
}

func TestLRUEviction(t *testing.T) {
	s := newStore(t, 100)
	pay := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	for i := 0; i < 3; i++ {
		if err := s.Put(keyOf(fmt.Sprintf("k%d", i)), pay(40), 1); err != nil {
			t.Fatal(err)
		}
	}
	// 3x40 > 100: k0 (least recent) must be gone, k1/k2 resident.
	if p, _, _ := s.Get(keyOf("k0")); p != nil {
		t.Fatal("k0 survived eviction")
	}
	for _, k := range []string{"k1", "k2"} {
		if p, _, err := s.Get(keyOf(k)); err != nil || p == nil {
			t.Fatalf("%s evicted or unreadable (err=%v)", k, err)
		}
	}
	// Touch k1, then add k3: k2 is now least recent and must go.
	if _, _, err := s.Get(keyOf("k1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyOf("k3"), pay(40), 1); err != nil {
		t.Fatal(err)
	}
	if p, _, _ := s.Get(keyOf("k2")); p != nil {
		t.Fatal("k2 survived eviction despite being least recent")
	}
	if p, _, err := s.Get(keyOf("k1")); err != nil || p == nil {
		t.Fatalf("recently-used k1 evicted (err=%v)", err)
	}
	if st := s.Stats(); st.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", st.Evicted)
	}
	if err := s.Put(keyOf("huge"), pay(200), 1); err == nil {
		t.Fatal("over-budget payload accepted")
	}
}

// tornBacking persists only a prefix of every write but reports full
// success — the silent tear the digest check must catch.
type tornBacking struct{ keep int }

func (b tornBacking) NewRun(id int) (spill.RunData, error) {
	inner, _ := spill.MemBacking{}.NewRun(id)
	return tornRun{inner: inner, keep: b.keep}, nil
}

type tornRun struct {
	inner spill.RunData
	keep  int
}

func (r tornRun) WriteAt(p []byte, off int64) (int, error) {
	q := p
	if len(q) > r.keep {
		q = q[:r.keep]
	}
	if _, err := r.inner.WriteAt(q, off); err != nil {
		return 0, err
	}
	// Pad the tail so reads see zeros where the tear lost data.
	if len(p) > len(q) {
		if _, err := r.inner.WriteAt(make([]byte, len(p)-len(q)), off+int64(len(q))); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}
func (r tornRun) ReadAt(p []byte, off int64) (int, error) { return r.inner.ReadAt(p, off) }
func (r tornRun) Close() error                            { return r.inner.Close() }

func TestTornWriteDetectedAsMiss(t *testing.T) {
	s, err := NewStore(Config{
		Device:  storage.NewNullDevice(storage.NewFakeClock()),
		Backing: tornBacking{keep: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte("payload!"), 100)
	if err := s.Put(keyOf("k"), payload, 1); err != nil {
		t.Fatalf("the tear is silent; Put must succeed: %v", err)
	}
	got, _, err := s.Get(keyOf("k"))
	if err == nil {
		t.Fatalf("torn entry read back without error (%d bytes)", len(got))
	}
	st := s.Stats()
	if st.Torn != 1 || st.ReadErrors != 1 {
		t.Fatalf("stats = %+v, want Torn=1 ReadErrors=1", st)
	}
	// The damaged entry must be evicted: the next Get is a clean miss.
	if p, _, err := s.Get(keyOf("k")); err != nil || p != nil {
		t.Fatalf("damaged entry not evicted: payload=%v err=%v", p != nil, err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after eviction, want 0", st.Entries)
	}
}

func TestPutReplacesExisting(t *testing.T) {
	s := newStore(t, 0)
	if err := s.Put(keyOf("k"), []byte("old"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyOf("k"), []byte("newer"), 2); err != nil {
		t.Fatal(err)
	}
	got, records, err := s.Get(keyOf("k"))
	if err != nil || string(got) != "newer" || records != 2 {
		t.Fatalf("got %q records=%d err=%v", got, records, err)
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != 5 {
		t.Fatalf("stats = %+v, want 1 entry of 5 bytes", st)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := newStore(t, 10_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keyOf(fmt.Sprintf("k%d", i%20))
				if i%3 == 0 {
					payload := bytes.Repeat([]byte{byte(i)}, 100+i)
					if err := s.Put(k, payload, int64(i)); err != nil {
						t.Error(err)
						return
					}
				} else if _, _, err := s.Get(k); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCacheRoundtripAndKeySpaces(t *testing.T) {
	s := newStore(t, 0)
	c, err := NewCache[string, int64](s, "wordcount")
	if err != nil {
		t.Fatal(err)
	}
	pairs := []kv.Pair[string, int64]{{Key: "alpha", Val: 3}, {Key: "beta", Val: 1}, {Key: "gamma", Val: 9}}
	sum := sha256.Sum256([]byte("chunk content"))
	if err := c.Put(c.Key(sum), pairs); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(c.Key(sum))
	if err != nil || !ok {
		t.Fatalf("hit failed: ok=%v err=%v", ok, err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("got %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, got[i], pairs[i])
		}
	}
	// A different key space must not see the entry.
	other, err := NewCache[string, int64](s, "grep:ERROR")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := other.Get(other.Key(sum)); ok || err != nil {
		t.Fatalf("cross-space hit: ok=%v err=%v", ok, err)
	}
}

func TestCacheRejectsUncodableTypes(t *testing.T) {
	s := newStore(t, 0)
	if _, err := NewCache[string, []string](s, "invindex"); err == nil {
		t.Fatal("[]string values have no codec; NewCache must refuse")
	}
}

func TestCacheEmptyPairs(t *testing.T) {
	s := newStore(t, 0)
	c, err := NewCache[string, int64](s, "wc")
	if err != nil {
		t.Fatal(err)
	}
	k := c.Key(sha256.Sum256([]byte("empty chunk")))
	if err := c.Put(k, nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(k)
	if err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty entry: pairs=%d ok=%v err=%v", len(got), ok, err)
	}
}

// wcPayload frames word-count records in the run format by hand, so
// tests control payload bytes and announced record count separately.
func wcPayload(recs ...kv.Pair[string, int64]) []byte {
	var b []byte
	for _, r := range recs {
		b = binary.AppendUvarint(b, uint64(len(r.Key)))
		b = append(b, r.Key...)
		b = binary.AppendUvarint(b, 8)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Val))
	}
	return b
}

// bytesSink records what Replay hands a kv.BytesEmitter; keys are
// copied because they alias the payload only during the call.
type bytesSink struct {
	pairs    []kv.Pair[string, int64]
	viaBytes int
}

func (s *bytesSink) Emit(k string, v int64) {
	s.pairs = append(s.pairs, kv.Pair[string, int64]{Key: k, Val: v})
}

func (s *bytesSink) EmitBytes(k []byte, v int64) {
	s.viaBytes++
	s.Emit(string(k), v)
}

// TestCacheWrongRecordCountIsAMiss: a digest-valid payload whose record
// count disagrees with the entry is rejected by Get and Fetch alike,
// counted as a read error (not a hit) and evicted.
func TestCacheWrongRecordCountIsAMiss(t *testing.T) {
	payload := wcPayload(kv.Pair[string, int64]{Key: "alpha", Val: 3}, kv.Pair[string, int64]{Key: "beta", Val: 1})
	for _, announced := range []int64{1, 3, 0, -1, 1 << 40} {
		for _, via := range []string{"get", "fetch"} {
			s := newStore(t, 0)
			c, err := NewCache[string, int64](s, "wc")
			if err != nil {
				t.Fatal(err)
			}
			k := c.Key(sha256.Sum256([]byte("chunk")))
			if err := s.Put(k, payload, announced); err != nil {
				t.Fatal(err)
			}
			var ok bool
			if via == "get" {
				_, ok, err = c.Get(k)
			} else {
				_, ok, err = c.Fetch(k)
			}
			if ok || !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s, %d announced for 2 records: ok=%v err=%v, want a malformed-entry miss", via, announced, ok, err)
			}
			if st := s.Stats(); st.Hits != 0 || st.ReadErrors != 1 || st.Entries != 0 {
				t.Fatalf("%s, %d announced: stats = %+v, want Hits=0 ReadErrors=1 Entries=0", via, announced, st)
			}
			if _, ok, err := c.Fetch(k); ok || err != nil {
				t.Fatalf("rejected entry not evicted: ok=%v err=%v", ok, err)
			}
		}
	}
}

// TestCacheRejectsForeignValueType: a well-framed payload published by
// a job with another value type under the same key fails the codec at
// fetch time, so it can never fail a later Replay.
func TestCacheRejectsForeignValueType(t *testing.T) {
	s := newStore(t, 0)
	strs, err := NewCache[string, string](s, "shared")
	if err != nil {
		t.Fatal(err)
	}
	ints, err := NewCache[string, int64](s, "shared")
	if err != nil {
		t.Fatal(err)
	}
	k := strs.Key(sha256.Sum256([]byte("chunk")))
	if err := strs.Put(k, []kv.Pair[string, string]{{Key: "a", Val: "not eight bytes!"}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ints.Fetch(k); ok || !errors.Is(err, ErrMalformed) {
		t.Fatalf("foreign entry fetched: ok=%v err=%v", ok, err)
	}
}

// TestCacheFetchReplay: Fetch returns the encoded entry, and Replay
// decodes exactly Get's pairs — through EmitBytes when the sink accepts
// byte keys, through Emit otherwise.
func TestCacheFetchReplay(t *testing.T) {
	s := newStore(t, 0)
	c, err := NewCache[string, int64](s, "wc")
	if err != nil {
		t.Fatal(err)
	}
	pairs := []kv.Pair[string, int64]{{Key: "", Val: -4}, {Key: "alpha", Val: 3}, {Key: "beta", Val: 1}}
	k := c.Key(sha256.Sum256([]byte("chunk")))
	if err := c.Put(k, pairs); err != nil {
		t.Fatal(err)
	}
	e, ok, err := c.Fetch(k)
	if err != nil || !ok {
		t.Fatalf("fetch: ok=%v err=%v", ok, err)
	}
	if e.Records != int64(len(pairs)) || !bytes.Equal(e.Payload, wcPayload(pairs...)) {
		t.Fatalf("entry = %d records, %d bytes; want the published run-format bytes", e.Records, len(e.Payload))
	}
	var fast bytesSink
	if err := c.Replay(e, &fast); err != nil {
		t.Fatal(err)
	}
	if fast.viaBytes != len(pairs) {
		t.Errorf("%d of %d records took the byte-key path", fast.viaBytes, len(pairs))
	}
	var slow []kv.Pair[string, int64]
	err = c.Replay(e, kv.EmitFunc[string, int64](func(k string, v int64) {
		slow = append(slow, kv.Pair[string, int64]{Key: k, Val: v})
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if fast.pairs[i] != p || slow[i] != p {
			t.Fatalf("record %d: bytes path %+v, emit path %+v, want %+v", i, fast.pairs[i], slow[i], p)
		}
	}
	// Integer keys have no byte form: Replay must decode them even when
	// the sink offers EmitBytes.
	ic, err := NewCache[int64, int64](s, "hist")
	if err != nil {
		t.Fatal(err)
	}
	ik := ic.Key(sha256.Sum256([]byte("chunk")))
	if err := ic.Put(ik, []kv.Pair[int64, int64]{{Key: 7, Val: 9}}); err != nil {
		t.Fatal(err)
	}
	ie, ok, err := ic.Fetch(ik)
	if err != nil || !ok {
		t.Fatalf("int fetch: ok=%v err=%v", ok, err)
	}
	var got kv.Pair[int64, int64]
	if err := ic.Replay(ie, kv.EmitFunc[int64, int64](func(k, v int64) { got = kv.Pair[int64, int64]{Key: k, Val: v} })); err != nil || got.Key != 7 || got.Val != 9 {
		t.Fatalf("int replay = %+v, %v", got, err)
	}
}

// TestCacheFetchCutsPieces: Fetch's checking pass cuts the entry every
// PieceRecords records, and the pieces replay, in order, exactly the
// entry's records.
func TestCacheFetchCutsPieces(t *testing.T) {
	s := newStore(t, 0)
	c, err := NewCache[string, int64](s, "wc")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, PieceRecords, 2 * PieceRecords, 2*PieceRecords + 452} {
		pairs := make([]kv.Pair[string, int64], n)
		for i := range pairs {
			pairs[i] = kv.Pair[string, int64]{Key: fmt.Sprintf("w%06d", i), Val: int64(i)}
		}
		k := c.Key(sha256.Sum256([]byte(fmt.Sprint(n))))
		if err := c.Put(k, pairs); err != nil {
			t.Fatal(err)
		}
		e, ok, err := c.Fetch(k)
		if err != nil || !ok {
			t.Fatalf("%d records: fetch ok=%v err=%v", n, ok, err)
		}
		if want := max(1, (n+PieceRecords-1)/PieceRecords); e.Pieces() != want {
			t.Fatalf("%d records cut into %d pieces, want %d", n, e.Pieces(), want)
		}
		var got bytesSink
		for j := 0; j < e.Pieces(); j++ {
			if err := c.Replay(e.Piece(j), &got); err != nil {
				t.Fatalf("%d records, piece %d: %v", n, j, err)
			}
		}
		if len(got.pairs) != n {
			t.Fatalf("%d records: the pieces replayed %d", n, len(got.pairs))
		}
		for i, p := range pairs {
			if got.pairs[i] != p {
				t.Fatalf("%d records: pair %d replayed as %+v, want %+v", n, i, got.pairs[i], p)
			}
		}
	}
}

// FuzzCacheReplay drives the one record decoder, spill.Replay, which
// the shuffle's receive path runs too, with arbitrary bytes and an
// arbitrary announced count: it never panics, and either returns
// an ErrMalformed error or emits exactly the announced records from no
// more bytes than the payload holds. A payload built from the fuzzed
// fields round-trips through Put and Replay, and every strict prefix of
// it is rejected.
func FuzzCacheReplay(f *testing.F) {
	f.Add([]byte{}, int64(0), "", int64(0))
	f.Add([]byte{0, 0}, int64(1), "the", int64(48211))
	f.Add(wcPayload(kv.Pair[string, int64]{Key: "alpha", Val: 3}, kv.Pair[string, int64]{Key: "beta", Val: 1}), int64(2), "zipf", int64(-7))
	f.Add([]byte{200}, int64(1), "k", int64(1))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}, int64(1), "k", int64(1))
	f.Add([]byte{5, 'a', 'b'}, int64(1), "k", int64(1))
	f.Add([]byte{1, 'a', 3, 1, 2, 3}, int64(1), "k", int64(1)) // value is not 8 bytes
	f.Fuzz(func(t *testing.T, data []byte, announced int64, key string, val int64) {
		s, err := NewStore(Config{Device: storage.NewNullDevice(storage.NewFakeClock())})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c, err := NewCache[string, int64](s, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		var sink bytesSink
		err = c.Replay(Entry{Payload: data, Records: announced}, &sink)
		switch {
		case err != nil && !errors.Is(err, ErrMalformed):
			t.Fatalf("untyped error: %v", err)
		case err == nil && int64(len(sink.pairs)) != announced:
			t.Fatalf("emitted %d records, entry announced %d", len(sink.pairs), announced)
		}
		var keyBytes int
		for _, p := range sink.pairs {
			keyBytes += len(p.Key)
		}
		if keyBytes+8*len(sink.pairs) > len(data) {
			t.Fatalf("emitted %d key bytes and %d values from a %d-byte payload", keyBytes, len(sink.pairs), len(data))
		}

		pairs := []kv.Pair[string, int64]{{Key: key, Val: val}, {Key: key + "~", Val: announced}}
		k := c.Key(sha256.Sum256(data))
		if err := c.Put(k, pairs); err != nil {
			t.Fatal(err)
		}
		e, ok, err := c.Fetch(k)
		if err != nil || !ok {
			t.Fatalf("fetch of a fresh Put: ok=%v err=%v", ok, err)
		}
		var back bytesSink
		if err := c.Replay(e, &back); err != nil || len(back.pairs) != 2 || back.pairs[0] != pairs[0] || back.pairs[1] != pairs[1] {
			t.Fatalf("round trip = %+v, %v; want %+v", back.pairs, err, pairs)
		}
		for cut := 0; cut < len(e.Payload); cut++ {
			err := c.Replay(Entry{Payload: e.Payload[:cut], Records: e.Records}, spill.Discard[string, int64]{})
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("payload truncated to %d of %d bytes replayed: err=%v", cut, len(e.Payload), err)
			}
		}
	})
}
