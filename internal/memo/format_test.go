package memo_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/memo"
	"supmr/internal/shuffle"
	"supmr/internal/spill"
	"supmr/internal/storage"
)

// keepBacking is a memory backing that keeps every run it hands out,
// so a test can read a run's raw bytes.
type keepBacking struct{ runs []spill.RunData }

func (b *keepBacking) NewRun(id int) (spill.RunData, error) {
	r, err := spill.MemBacking{}.NewRun(id)
	b.runs = append(b.runs, r)
	return r, err
}

// pinApp is the least App a Spiller needs: pairs arrive drained.
type pinApp[K comparable, V any] struct{ less kv.Less[K] }

func (pinApp[K, V]) Map([]byte, kv.Emitter[K, V]) {}
func (pinApp[K, V]) Reduce(_ K, vals []V) V       { return vals[0] }
func (a pinApp[K, V]) Less(x, y K) bool           { return a.less(x, y) }
func lessOrdered[T string | uint64](a, b T) bool  { return a < b }

// threeEncodings encodes pairs three ways — as a spill run (the raw
// backing bytes), as a memo entry (the payload Cache.Put publishes, as
// Store.Get returns it) and as the payload of a shuffle frame — and
// fails unless all three are the same bytes, which it returns.
func threeEncodings[K comparable, V any](t *testing.T, pairs []kv.Pair[K, V], less kv.Less[K]) []byte {
	t.Helper()
	dev := storage.NewNullDevice(storage.NewFakeClock())

	back := &keepBacking{}
	runs, err := spill.NewStore(spill.StoreConfig{Device: dev, BlockSize: 16, Backing: back})
	if err != nil {
		t.Fatal(err)
	}
	defer runs.Close()
	sp, err := spill.NewSpiller(runs, 1, kv.App[K, V](pinApp[K, V]{less}))
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(nil, exec.Config{Workers: 1, IOWorkers: 1})
	defer pool.Close()
	sp.SpillAsync(pairs, pool)
	if err := sp.Join(); err != nil {
		t.Fatal(err)
	}
	run := make([]byte, sp.BytesSpilled())
	if err := spill.ReadFull(back.runs[0], run, 0); err != nil {
		t.Fatal(err)
	}

	st, err := memo.NewStore(memo.Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache, err := memo.NewCache[K, V](st, "pin")
	if err != nil {
		t.Fatal(err)
	}
	k := cache.Key(sha256.Sum256([]byte("chunk")))
	if err := cache.Put(k, pairs); err != nil {
		t.Fatal(err)
	}
	entry, records, err := st.Get(k)
	if err != nil || records != int64(len(pairs)) {
		t.Fatalf("memo entry: %d records, %v", records, err)
	}

	kc, _ := spill.CodecFor[K]()
	vc, _ := spill.CodecFor[V]()
	var payload []byte
	for _, p := range pairs {
		payload = shuffle.AppendRecord(payload, kc.Append(nil, p.Key), vc.Append(nil, p.Val))
	}
	frame, err := shuffle.DecodeFrame(shuffle.EncodeFrame(nil, 0, 1, len(pairs), payload))
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(run, entry) || !bytes.Equal(run, frame.Payload) {
		t.Fatalf("one record format, three encodings:\nspill run     %x\nmemo entry    %x\nshuffle frame %x", run, entry, frame.Payload)
	}
	return run
}

// TestOneRecordFormat: a spill run, a memo entry and a shuffle frame
// payload carry the same pairs as the same bytes, and those bytes are
// the documented framing.
func TestOneRecordFormat(t *testing.T) {
	words := threeEncodings(t, []kv.Pair[string, int64]{{Key: "", Val: -4}, {Key: "alpha", Val: 3}, {Key: "beta", Val: 1 << 40}},
		lessOrdered[string])
	want := "00" + "08" + "fcffffffffffffff" +
		"05" + hex.EncodeToString([]byte("alpha")) + "08" + "0300000000000000" +
		"04" + hex.EncodeToString([]byte("beta")) + "08" + "0000000000010000"
	if got := hex.EncodeToString(words); got != want {
		t.Fatalf("record bytes = %s, want %s", got, want)
	}

	// Byte slices are not comparable, so []byte rides as the value.
	long := bytes.Repeat([]byte("x"), 200) // a two-byte length prefix, across several blocks
	threeEncodings(t, []kv.Pair[uint64, []byte]{{Key: 1, Val: nil}, {Key: 7, Val: []byte("seven")}, {Key: 1 << 63, Val: long}},
		lessOrdered[uint64])
}
