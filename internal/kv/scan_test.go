package kv_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"testing"

	"supmr/internal/kv"
	"supmr/internal/workload"
)

// referenceWords is the byte-at-a-time tokenizer ScanWords replaced: it
// returns each word's [start, end) offsets.
func referenceWords(buf []byte) [][2]int {
	var out [][2]int
	start := -1
	for i, c := range buf {
		if c == ' ' || c == '\n' || c == '\r' || c == '\t' {
			if start >= 0 {
				out = append(out, [2]int{start, i})
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, [2]int{start, len(buf)})
	}
	return out
}

// paddedPrefix is a word's first 8 bytes, zero-padded, little-endian.
func paddedPrefix(w []byte) uint64 {
	var b [8]byte
	copy(b[:], w)
	return binary.LittleEndian.Uint64(b[:])
}

// scanAll cuts buf with ScanWords in batches of size batch.
func scanAll(buf []byte, batch int) []kv.Word {
	var words []kv.Word
	out := make([]kv.Word, batch)
	for pos := 0; pos < len(buf); {
		n, next := kv.ScanWords(buf, pos, out)
		if n == 0 && next != len(buf) {
			panic(fmt.Sprintf("ScanWords stalled at %d of %d", next, len(buf)))
		}
		words = append(words, out[:n]...)
		pos = next
	}
	return words
}

func checkScan(t *testing.T, buf []byte, batch int) {
	t.Helper()
	want := referenceWords(buf)
	got := scanAll(buf, batch)
	if len(got) != len(want) {
		t.Fatalf("batch %d: %d words, reference %d (input %q)", batch, len(got), len(want), buf)
	}
	for i, w := range got {
		if int(w.Off) != want[i][0] || int(w.Off+w.Len) != want[i][1] {
			t.Fatalf("batch %d: word %d at [%d,%d), reference [%d,%d) (input %q)",
				batch, i, w.Off, w.Off+w.Len, want[i][0], want[i][1], buf)
		}
		word := buf[w.Off : w.Off+w.Len]
		if w.Hash != kv.KeyHash(word) {
			t.Fatalf("word %q: scan hash %#x, KeyHash %#x", word, w.Hash, kv.KeyHash(word))
		}
		if p := paddedPrefix(word); w.Prefix != p || kv.KeyPrefix(word) != p {
			t.Fatalf("word %q: scan prefix %#x, KeyPrefix %#x, want %#x", word, w.Prefix, kv.KeyPrefix(word), p)
		}
	}
}

// scanSeeds cover every separator, separator runs, bytes ≥ 0x80 and
// NUL (word bytes, not separators), words of 7/8/9/16/17 bytes, a word
// ending inside the input's last 8 bytes, and empty input.
var scanSeeds = []string{
	"",
	"the quick brown fox",
	"a\rb\tc\nd e",
	"  \t\r\n  lead and trail \n\n\t ",
	"\xff\x80\xc3\xa9t\xe9 caf\xc3\xa9 \x80 \x00 a\x00b",
	"1234567 12345678 123456789 1234567890123456 12345678901234567",
	"xxxxxxxxxxxxxxxxxxxxxxxx yyyyyyy",
	"0123456789abcdef tail",
	"ab ab\x00 ab",
	"!\x0b\x0c\x08 ! !!",
}

func TestScanWordsMatchesReference(t *testing.T) {
	for _, s := range scanSeeds {
		for _, batch := range []int{1, 2, 64} {
			checkScan(t, []byte(s), batch)
		}
	}
	text := make([]byte, 64<<10)
	workload.TextGen{Seed: 3}.Fill()(0, text)
	checkScan(t, text, 256)
}

// Every cut agrees with the reference at every split edge: a prefix of
// the input must not read past its end or cut differently near it.
func TestScanWordsSplitEdges(t *testing.T) {
	s := []byte("ab 12345678 x 123456789abcdefgh\tz\r\nlast")
	for end := 0; end <= len(s); end++ {
		checkScan(t, s[:end:end], 3)
	}
}

func FuzzScanWordsVsReference(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScan(t, data[:len(data):len(data)], 5)
	})
}

func TestKeyHashSeparatesLengthAndBytes(t *testing.T) {
	keys := []string{"", "a", "ab", "ab\x00", "ab\x00\x00\x00\x00\x00\x00",
		"abcdefgh", "abcdefgh\x00", "abcdefghXbcdefgh", "abcdefghYbcdefgh",
		"abcdefghijklmnoX", "abcdefghijklmnoY"}
	seen := make(map[uint64]string)
	for _, k := range keys {
		h := kv.KeyHash([]byte(k))
		if prev, dup := seen[h]; dup {
			t.Errorf("KeyHash(%q) == KeyHash(%q)", k, prev)
		}
		seen[h] = k
	}
}

// ShortKeyHash is KeyHash's short form: from a key's prefix and length
// it must give KeyHash of the key at every length from 0 to 8, over
// bytes that include 0x00 and ones at or above 0x80.
func TestShortKeyHashIsKeyHash(t *testing.T) {
	alphabet := []byte{0x00, 0x01, 'a', 'z', 0x7f, 0x80, 0xc3, 0xff}
	for n := 0; n <= 8; n++ {
		for i := range 64 {
			key := make([]byte, n)
			for j := range key {
				key[j] = alphabet[(i*7+j*(i+3))%len(alphabet)]
			}
			if got, want := kv.ShortKeyHash(kv.KeyPrefix(key), n), kv.KeyHash(key); got != want {
				t.Fatalf("key %q: ShortKeyHash %#x, KeyHash %#x", key, got, want)
			}
		}
	}
}

// BenchmarkKeyHash compares the flat container's hash with maphash on
// the short keys the memo fold replays.
func BenchmarkKeyHash(b *testing.B) {
	seed := maphash.MakeSeed()
	for _, n := range []int{4, 8, 12, 16} {
		key := bytes.Repeat([]byte("k"), n)
		b.Run(fmt.Sprintf("KeyHash/%d", n), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += kv.KeyHash(key)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("maphash.Bytes/%d", n), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += maphash.Bytes(seed, key)
			}
			_ = sink
		})
	}
}

func BenchmarkScanWords(b *testing.B) {
	text := make([]byte, 1<<20)
	workload.TextGen{Seed: 7}.Fill()(0, text)
	out := make([]kv.Word, 256)
	b.SetBytes(int64(len(text)))
	words := 0
	for i := 0; i < b.N; i++ {
		for pos := 0; pos < len(text); {
			var n int
			n, pos = kv.ScanWords(text, pos, out)
			words += n
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word")
}
