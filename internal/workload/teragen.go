// Package workload generates the paper's two benchmark inputs
// deterministically and with random access: terasort-style fixed-width
// records for the sort application and Zipf-distributed text for word
// count, plus many-small-file sets for intra-file chunking. Generators
// expose storage.Fill functions so inputs of any size exist without being
// materialized in memory.
package workload

import (
	"encoding/binary"
	"fmt"

	"supmr/internal/storage"
)

// Terasort record geometry. The paper notes each key-value pair in the
// sort input is terminated with \r\n; we use the classic 100-byte record:
// a 10-byte key, an 88-byte payload, and the 2-byte terminator.
const (
	TeraRecordSize  = 100
	TeraKeySize     = 10
	TeraPayloadSize = TeraRecordSize - TeraKeySize - 2
)

// TeraGen produces terasort-style records. Record i is a pure function of
// (Seed, i), so any byte range of the input can be generated on demand.
type TeraGen struct {
	Seed uint64
}

// splitmix64 is a strong 64-bit mixer; each call advances the state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// keyAlphabet is the printable alphabet terasort keys draw from.
const keyAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

// Record writes the 100-byte record with index idx into dst, which must
// have length >= TeraRecordSize.
func (g TeraGen) Record(idx int64, dst []byte) {
	state := g.Seed ^ uint64(idx)*0x9e3779b97f4a7c15
	r1 := splitmix64(&state)
	r2 := splitmix64(&state)
	// 10-byte printable key.
	for i := 0; i < TeraKeySize; i++ {
		var bits uint64
		if i < 5 {
			bits = r1 >> (i * 12)
		} else {
			bits = r2 >> ((i - 5) * 12)
		}
		dst[i] = keyAlphabet[bits%uint64(len(keyAlphabet))]
	}
	// Payload: record index in decimal (useful for debugging) padded with
	// a repeating filler derived from the index, terasort-style.
	pay := dst[TeraKeySize : TeraKeySize+TeraPayloadSize]
	n := copy(pay, fmt.Sprintf("%020d", idx))
	fill := byte('A' + idx%26)
	for i := n; i < len(pay); i++ {
		pay[i] = fill
	}
	dst[TeraRecordSize-2] = '\r'
	dst[TeraRecordSize-1] = '\n'
}

// Fill returns a storage.Fill producing the concatenated record stream.
func (g TeraGen) Fill() storage.Fill {
	return func(off int64, p []byte) {
		var rec [TeraRecordSize]byte
		for len(p) > 0 {
			idx := off / TeraRecordSize
			in := off % TeraRecordSize
			g.Record(idx, rec[:])
			n := copy(p, rec[in:])
			p = p[n:]
			off += int64(n)
		}
	}
}

// File creates a simulated terasort input of exactly records records on
// dev.
func (g TeraGen) File(name string, records int64, dev storage.Device) (*storage.File, error) {
	return storage.NewFile(name, records*TeraRecordSize, 0, g.Fill(), dev)
}

// ParseTeraRecords walks a buffer of whole \r\n-terminated records,
// invoking fn with each record (terminator included). It returns the
// number of records seen and an error if the buffer does not consist of
// whole records — chunk boundary adjustment guarantees it always does.
func ParseTeraRecords(buf []byte, fn func(record []byte)) (int64, error) {
	if len(buf)%TeraRecordSize != 0 {
		return 0, fmt.Errorf("workload: buffer of %d bytes is not a whole number of %d-byte records", len(buf), TeraRecordSize)
	}
	var n int64
	for off := 0; off < len(buf); off += TeraRecordSize {
		rec := buf[off : off+TeraRecordSize]
		if rec[TeraRecordSize-2] != '\r' || rec[TeraRecordSize-1] != '\n' {
			return n, fmt.Errorf("workload: record %d missing \\r\\n terminator", n)
		}
		fn(rec)
		n++
	}
	return n, nil
}

// Uint64Key packs the first 8 bytes of a terasort key into a uint64 that
// preserves lexicographic order, letting the sort app compare keys with
// one integer comparison.
func Uint64Key(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// SortChecksum summarizes a sorted output the way terasort's valsort
// does: it verifies the keys are non-decreasing and folds every key
// into an order-independent checksum, so a baseline run and a SupMR run
// can be compared without materializing both outputs.
type SortChecksum struct {
	Records  int64
	Sum      uint64 // order-independent key checksum
	Ordered  bool   // keys non-decreasing
	FirstKey string
	LastKey  string
}

// ValidateSorted checks ordering over a stream of keys delivered in
// output order via next (which returns "", false at the end).
func ValidateSorted(next func() (string, bool)) SortChecksum {
	out := SortChecksum{Ordered: true}
	prev := ""
	for {
		k, ok := next()
		if !ok {
			return out
		}
		if out.Records == 0 {
			out.FirstKey = k
		} else if k < prev {
			out.Ordered = false
		}
		out.LastKey = k
		prev = k
		out.Records++
		// Order-independent fold: sum of mixed key hashes.
		var h uint64 = 1469598103934665603
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= 1099511628211
		}
		out.Sum += h
	}
}
