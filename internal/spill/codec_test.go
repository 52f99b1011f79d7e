package spill

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// declaresPastEnd reports whether a field at the front of data
// declares more bytes than data has left: a whole-buffer cut must
// refuse it as malformed.
func declaresPastEnd(data []byte) bool {
	for range 2 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return false
		}
		if u > uint64(len(data)-n) {
			return true
		}
		data = data[n+int(u):]
	}
	return false
}

// FuzzRecordCut: cutting from any prefix of a buffer, bounded by the
// whole buffer, either reports that the prefix ends inside the record
// or returns exactly what cutting the whole buffer returns. Every
// failure is one of the two typed errors, and a malformed record —
// a length past the bound among them — is refused without allocating.
func FuzzRecordCut(f *testing.F) {
	f.Add(AppendRecord(nil, []byte("ASCII12345"), []byte("teragen-style payload")), uint16(7))
	f.Add(AppendRecord(AppendRecord(nil, nil, nil), []byte("the"), []byte{8, 0, 0, 0, 0, 0, 0, 0}), uint16(2))
	f.Add([]byte{200}, uint16(1))
	f.Add([]byte{5, 'a', 'b'}, uint16(3))
	f.Add([]byte{1, 'a', 9, 'b'}, uint16(4))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}, uint16(10))
	f.Add([]byte{0xff, 0xfb, 0xb9, 0xb9, 0xb9, 0xb9, 0xb9, 0xff, 0xff, 0x01}, uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, splitRaw uint16) {
		bound := int64(len(data))
		key, val, n, err := CutRecord(data, bound)
		switch err {
		case nil:
			if n > len(data) || n < len(key)+len(val)+2 {
				t.Fatalf("record of %d+%d field bytes cut as %d of %d bytes", len(key), len(val), n, len(data))
			}
		case ErrShortRecord:
		case ErrBadRecord:
			if a := testing.AllocsPerRun(10, func() { CutRecord(data, bound) }); a != 0 {
				t.Fatalf("refusing a malformed record allocated %v times", a)
			}
		default:
			t.Fatalf("untyped error: %v", err)
		}
		if declaresPastEnd(data) && err != ErrBadRecord {
			t.Fatalf("a length past the bound cut as (%d, %v), want ErrBadRecord", n, err)
		}

		split := int(splitRaw) % (len(data) + 1)
		pk, pv, pn, perr := CutRecord(data[:split], bound)
		if perr == ErrShortRecord {
			return
		}
		if perr != err || pn != n || !bytes.Equal(pk, key) || !bytes.Equal(pv, val) {
			t.Fatalf("prefix of %d bytes cut as (%q, %q, %d, %v); whole buffer as (%q, %q, %d, %v)",
				split, pk, pv, pn, perr, key, val, n, err)
		}
	})
}
