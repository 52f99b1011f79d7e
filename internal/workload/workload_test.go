package workload

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"supmr/internal/storage"
)

func TestTeraRecordStructure(t *testing.T) {
	g := TeraGen{Seed: 1}
	var rec [TeraRecordSize]byte
	g.Record(0, rec[:])
	if rec[TeraRecordSize-2] != '\r' || rec[TeraRecordSize-1] != '\n' {
		t.Error("record not \\r\\n terminated")
	}
	for i := 0; i < TeraKeySize; i++ {
		if !strings.ContainsRune(keyAlphabet, rune(rec[i])) {
			t.Errorf("key byte %d = %q not in alphabet", i, rec[i])
		}
	}
}

func TestTeraRecordDeterministic(t *testing.T) {
	g := TeraGen{Seed: 7}
	var a, b [TeraRecordSize]byte
	g.Record(12345, a[:])
	g.Record(12345, b[:])
	if a != b {
		t.Error("same (seed, index) produced different records")
	}
	g2 := TeraGen{Seed: 8}
	g2.Record(12345, b[:])
	if a == b {
		t.Error("different seeds produced identical records")
	}
}

func TestTeraFillRandomAccessConsistency(t *testing.T) {
	// Property: Fill(off, p) matches the same bytes produced by a full
	// sequential fill, for any offset/length.
	g := TeraGen{Seed: 3}
	const records = 50
	whole := make([]byte, records*TeraRecordSize)
	g.Fill()(0, whole)

	f := func(offRaw, nRaw uint16) bool {
		off := int64(offRaw) % int64(len(whole))
		n := int(nRaw)%500 + 1
		if off+int64(n) > int64(len(whole)) {
			n = len(whole) - int(off)
		}
		part := make([]byte, n)
		g.Fill()(off, part)
		return bytes.Equal(part, whole[off:off+int64(n)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseTeraRecords(t *testing.T) {
	g := TeraGen{Seed: 2}
	buf := make([]byte, 10*TeraRecordSize)
	g.Fill()(0, buf)
	var keys []string
	n, err := ParseTeraRecords(buf, func(rec []byte) {
		keys = append(keys, string(rec[:TeraKeySize]))
	})
	if err != nil || n != 10 {
		t.Fatalf("parsed %d records, err %v", n, err)
	}
	if len(keys) != 10 {
		t.Fatalf("got %d keys", len(keys))
	}
	for _, k := range keys {
		if len(k) != TeraKeySize {
			t.Errorf("key %q has length %d", k, len(k))
		}
	}
	// Misaligned buffers are rejected.
	if _, err := ParseTeraRecords(buf[:150], func([]byte) {}); err == nil {
		t.Error("misaligned buffer should error")
	}
	// Corrupted terminator detected.
	bad := append([]byte(nil), buf...)
	bad[TeraRecordSize-1] = 'X'
	if _, err := ParseTeraRecords(bad, func([]byte) {}); err == nil {
		t.Error("corrupt terminator should error")
	}
}

func TestUint64KeyPreservesOrder(t *testing.T) {
	f := func(a, b [8]byte) bool {
		cmp := bytes.Compare(a[:], b[:])
		ka, kb := Uint64Key(a[:]), Uint64Key(b[:])
		switch {
		case cmp < 0:
			return ka < kb
		case cmp > 0:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTeraFile(t *testing.T) {
	clock := storage.NewFakeClock()
	f, err := TeraGen{Seed: 1}.File("t", 100, storage.NewNullDevice(clock))
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 100*TeraRecordSize {
		t.Errorf("file size %d, want %d", f.Size(), 100*TeraRecordSize)
	}
}

func TestWordDeterministicAndDistinct(t *testing.T) {
	seen := make(map[string]int)
	for r := 0; r < 5000; r++ {
		w := Word(r)
		if w == "" {
			t.Fatalf("rank %d produced empty word", r)
		}
		if prev, dup := seen[w]; dup {
			t.Fatalf("ranks %d and %d both map to %q", prev, r, w)
		}
		seen[w] = r
	}
	if Word(3) != Word(3) {
		t.Error("Word not deterministic")
	}
}

func TestTextBlockEndsAtWordBoundary(t *testing.T) {
	g := TextGen{Seed: 5}
	block := make([]byte, g.block())
	for bi := int64(0); bi < 20; bi++ {
		g.fillBlock(bi, block)
		last := block[len(block)-1]
		if last != '\n' && last != ' ' {
			t.Errorf("block %d ends mid-word with %q", bi, last)
		}
	}
}

func TestTextFillRandomAccessConsistency(t *testing.T) {
	g := TextGen{Seed: 9}
	whole := make([]byte, 5*DefaultTextBlock)
	g.Fill()(0, whole)
	part := make([]byte, 1000)
	g.Fill()(3000, part)
	if !bytes.Equal(part, whole[3000:4000]) {
		t.Error("random-access text differs from sequential text")
	}
}

func TestTextZipfSkew(t *testing.T) {
	// The most frequent word should dominate: Zipf text is very skewed.
	g := TextGen{Seed: 11}
	buf := make([]byte, 256<<10)
	g.Fill()(0, buf)
	counts := make(map[string]int)
	total := 0
	Tokenize(buf, func(w []byte) {
		counts[string(w)]++
		total++
	})
	if total == 0 {
		t.Fatal("no words generated")
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if ratio := float64(max) / float64(total); ratio < 0.05 {
		t.Errorf("top word frequency %.3f, want skewed (>0.05)", ratio)
	}
	if len(counts) < 100 {
		t.Errorf("vocabulary too small: %d distinct words", len(counts))
	}
}

func TestTokenize(t *testing.T) {
	var words []string
	Tokenize([]byte("  foo bar\nbaz\tqux  "), func(w []byte) {
		words = append(words, string(w))
	})
	want := []string{"foo", "bar", "baz", "qux"}
	if len(words) != len(want) {
		t.Fatalf("got %v, want %v", words, want)
	}
	for i := range want {
		if words[i] != want[i] {
			t.Fatalf("got %v, want %v", words, want)
		}
	}
	// Trailing word without separator.
	words = nil
	Tokenize([]byte("tail"), func(w []byte) { words = append(words, string(w)) })
	if len(words) != 1 || words[0] != "tail" {
		t.Errorf("trailing word: %v", words)
	}
	// Empty input.
	Tokenize(nil, func(w []byte) { t.Error("callback on empty input") })
}

func TestFileSetGeneration(t *testing.T) {
	clock := storage.NewFakeClock()
	dev := storage.NewNullDevice(clock)
	set, err := TextGen{Seed: 1}.FileSet("part", 5, 1024, dev)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 5 || set.TotalSize() != 5*1024 {
		t.Errorf("fileset len=%d total=%d", set.Len(), set.TotalSize())
	}
	if set.At(3).Name() != "part-3" {
		t.Errorf("name = %q, want part-3", set.At(3).Name())
	}
	// Distinct files should have distinct content (different sub-seeds).
	a := make([]byte, 256)
	b := make([]byte, 256)
	if _, err := set.At(0).ReadAt(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := set.At(1).ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("files 0 and 1 have identical content")
	}
}

func TestValidateSorted(t *testing.T) {
	feed := func(keys []string) func() (string, bool) {
		i := 0
		return func() (string, bool) {
			if i >= len(keys) {
				return "", false
			}
			k := keys[i]
			i++
			return k, true
		}
	}
	ok := ValidateSorted(feed([]string{"a", "b", "b", "c"}))
	if !ok.Ordered || ok.Records != 4 || ok.FirstKey != "a" || ok.LastKey != "c" {
		t.Errorf("sorted check = %+v", ok)
	}
	bad := ValidateSorted(feed([]string{"b", "a"}))
	if bad.Ordered {
		t.Error("out-of-order keys reported ordered")
	}
	// Checksum is order-independent: permutations match.
	s1 := ValidateSorted(feed([]string{"x", "y", "z"}))
	s2 := ValidateSorted(feed([]string{"z", "x", "y"}))
	if s1.Sum != s2.Sum {
		t.Error("checksum should be order-independent")
	}
	// Different multisets differ (overwhelmingly likely).
	s3 := ValidateSorted(feed([]string{"x", "y", "q"}))
	if s3.Sum == s1.Sum {
		t.Error("different key sets share a checksum")
	}
	empty := ValidateSorted(feed(nil))
	if !empty.Ordered || empty.Records != 0 {
		t.Errorf("empty check = %+v", empty)
	}
}
