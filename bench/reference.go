package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"supmr"
	"supmr/internal/storage"
	gen "supmr/internal/workload"
)

// This file holds everything the benchmark knows independently of the
// program under test: how inputs are generated from the seed, and what
// the correct output of each application over those inputs is. The
// references are plain single-goroutine Go (a map and a sort); they
// share no code with the runtimes they check.

// materialize generates size bytes of a generator's stream into memory,
// once, in set-up. Generators are pure functions of the offset, so the
// buffer is filled in parallel pieces; the program under test only ever
// sees these bytes.
func materialize(fill storage.Fill, size int64) []byte {
	buf := make([]byte, size)
	// Pieces are multiples of both generators' units (4096-byte text
	// blocks, 100-byte records) so no unit is generated twice.
	const piece = 25 * 4096 * 8
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for off := int64(0); off < size; off += piece {
		end := min(off+piece, size)
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			fill(off, buf[off:end])
			<-sem
		}()
	}
	wg.Wait()
	return buf
}

func textBytes(seed int64, size int64) []byte {
	return materialize(gen.TextGen{Seed: seed}.Fill(), size)
}

func teraBytes(seed uint64, records int64) []byte {
	return materialize(gen.TeraGen{Seed: seed}.Fill(), records*gen.TeraRecordSize)
}

// lineHash accumulates "key\tvalue\n" lines into a SHA-256, the
// rendering every output digest in this repository uses.
type lineHash struct {
	h   hash.Hash
	buf []byte
}

func newLineHash() *lineHash { return &lineHash{h: sha256.New(), buf: make([]byte, 0, 64<<10)} }

func (l *lineHash) flush() {
	l.h.Write(l.buf)
	l.buf = l.buf[:0]
}

func (l *lineHash) room() {
	if len(l.buf) > 60<<10 {
		l.flush()
	}
}

func (l *lineHash) sum() string {
	l.flush()
	return hex.EncodeToString(l.h.Sum(nil))
}

// appendKey renders a key or value the way fmt's %v does for the types
// the bundled applications use.
func appendKey[T any](dst []byte, v T) []byte {
	switch x := any(v).(type) {
	case string:
		return append(dst, x...)
	case int:
		return strconv.AppendInt(dst, int64(x), 10)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case uint64:
		return strconv.AppendUint(dst, x, 10)
	default:
		return fmt.Appendf(dst, "%v", v)
	}
}

func appendLine[K, V any](dst []byte, k K, v V) []byte {
	dst = appendKey(dst, k)
	dst = append(dst, '\t')
	dst = appendKey(dst, v)
	return append(dst, '\n')
}

// renderPairs renders pairs as output text, one line per pair.
func renderPairs[K comparable, V any](pairs []supmr.Pair[K, V]) []byte {
	var out []byte
	for _, p := range pairs {
		out = appendLine(out, p.Key, p.Val)
	}
	return out
}

// digestPairs hashes pairs without allocating per pair, so checking an
// iteration's output costs little next to producing it.
func digestPairs[K comparable, V any](pairs []supmr.Pair[K, V]) string {
	l := newLineHash()
	for _, p := range pairs {
		l.buf = appendLine(l.buf, p.Key, p.Val)
		l.room()
	}
	return l.sum()
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\r' || c == '\t' }

// countWords is the reference word count: whitespace-separated tokens
// into a map.
func countWords(text []byte) map[string]int64 {
	counts := make(map[string]int64)
	start := -1
	for i, c := range text {
		if isSpace(c) {
			if start >= 0 {
				counts[string(text[start:i])]++
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		counts[string(text[start:])]++
	}
	return counts
}

// sortedKeys lists a count map's keys in output order.
func sortedKeys(counts map[string]int64) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// digestCounts renders base+delta in key order. keys is sortedKeys(base),
// computed once, so the per-delta references of the append workload cost
// a merge walk instead of a sort of the whole vocabulary.
func digestCounts(base map[string]int64, keys []string, delta map[string]int64) string {
	var fresh []string
	for k := range delta {
		if _, ok := base[k]; !ok {
			fresh = append(fresh, k)
		}
	}
	sort.Strings(fresh)
	l := newLineHash()
	for len(keys) > 0 || len(fresh) > 0 {
		var k string
		if len(fresh) == 0 || (len(keys) > 0 && keys[0] < fresh[0]) {
			k, keys = keys[0], keys[1:]
		} else {
			k, fresh = fresh[0], fresh[1:]
		}
		l.buf = appendLine(l.buf, k, base[k]+delta[k])
		l.room()
	}
	return l.sum()
}

// sortReference parses the 100-byte records, sorts them by key and
// returns the digest of the expected output plus a valsort-style
// summary. Keys are ten bytes: eight compared as an integer, two more
// as a tiebreak.
func sortReference(tera []byte) (string, gen.SortChecksum) {
	type rec struct {
		hi  uint64
		lo  uint16
		off int32
	}
	n := len(tera) / gen.TeraRecordSize
	recs := make([]rec, n)
	for i := range recs {
		r := tera[i*gen.TeraRecordSize:]
		recs[i] = rec{binary.BigEndian.Uint64(r), binary.BigEndian.Uint16(r[8:]), int32(i)}
	}
	slices.SortFunc(recs, func(a, b rec) int {
		if a.hi != b.hi {
			if a.hi < b.hi {
				return -1
			}
			return 1
		}
		return int(a.lo) - int(b.lo)
	})
	l := newLineHash()
	i := 0
	check := gen.ValidateSorted(func() (string, bool) {
		if i >= n {
			return "", false
		}
		r := tera[int(recs[i].off)*gen.TeraRecordSize:]
		i++
		key := string(r[:gen.TeraKeySize])
		// The sort application's value is the first eight payload bytes.
		l.buf = appendLine(l.buf, key, binary.BigEndian.Uint64(r[gen.TeraKeySize:]))
		l.room()
		return key, true
	})
	return l.sum(), check
}

// grepReference counts, per pattern, the lines that contain it.
func grepReference(text []byte, patterns []string) string {
	counts := make(map[string]int64)
	for len(text) > 0 {
		line := text
		if nl := bytes.IndexByte(text, '\n'); nl >= 0 {
			line, text = text[:nl], text[nl+1:]
		} else {
			text = nil
		}
		for _, p := range patterns {
			if bytes.Contains(line, []byte(p)) {
				counts[p]++
			}
		}
	}
	return digestCounts(counts, sortedKeys(counts), nil)
}

// histogramReference counts byte values.
func histogramReference(data []byte) string {
	var counts [256]int64
	for _, b := range data {
		counts[b]++
	}
	l := newLineHash()
	for v, c := range counts {
		if c > 0 {
			l.buf = appendLine(l.buf, v, c)
		}
	}
	return l.sum()
}
