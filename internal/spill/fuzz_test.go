package spill

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"supmr/internal/storage"
)

// rawRun wraps arbitrary bytes as a completed run so the decoder can be
// driven directly against hostile input.
func rawRun(data []byte) (*Store, *Run) {
	clock := storage.NewFakeClock()
	s, _ := NewStore(StoreConfig{Device: storage.NewNullDevice(clock), BlockSize: 32})
	return s, &Run{size: int64(len(data)), data: &memRun{buf: data}}
}

// seedRecords frames records with the run encoding, for round-trip
// seeds.
func seedRecords(recs [][2][]byte) []byte {
	var b []byte
	for _, r := range recs {
		b = binary.AppendUvarint(b, uint64(len(r[0])))
		b = append(b, r[0]...)
		b = binary.AppendUvarint(b, uint64(len(r[1])))
		b = append(b, r[1]...)
	}
	return b
}

// FuzzRunDecode feeds arbitrary bytes to the run decoder: it must
// terminate with io.EOF or a decode error, never panic, and never
// return more payload than the run holds.
func FuzzRunDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0}) // one empty-key empty-val record
	f.Add(seedRecords([][2][]byte{
		{[]byte("ASCII12345"), []byte("teragen-style payload")},
		{[]byte("the"), []byte{8, 0, 0, 0, 0, 0, 0, 0}},
	}))
	// Truncated length prefix and oversized length claims.
	f.Add([]byte{200})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1})
	f.Add([]byte{5, 'a', 'b'})
	// A ten-byte prefix decoding to a length >= 2^63 (found by this fuzzer).
	f.Add([]byte{0xff, 0xfb, 0xb9, 0xb9, 0xb9, 0xb9, 0xb9, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, run := rawRun(data)
		r := s.OpenRun(run)
		var payload int64
		for {
			key, val, err := r.ReadRecord()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // decode error on hostile input is the contract
			}
			payload += int64(len(key) + len(val))
			if payload > int64(len(data)) {
				t.Fatalf("decoded %d payload bytes from a %d-byte run", payload, len(data))
			}
		}
	})
}

// FuzzRunRoundTrip writes one two-record run through the real writer
// (tiny blocks, so records straddle block boundaries) and reads it
// back. Seeds are teragen-style 10-byte keys and Zipf-ish word-count
// records.
func FuzzRunRoundTrip(f *testing.F) {
	f.Add([]byte("~sHd0jDv6X"), []byte("00000000001111111111222222222233333333334444444444"), []byte("the"), int64(48211))
	f.Add([]byte("AsfAGHM5om"), []byte("teragen row payload"), []byte("zipf"), int64(1))
	f.Add([]byte{}, []byte{}, []byte{0xff, 0xfe}, int64(-7))
	f.Fuzz(func(t *testing.T, k1, v1, k2 []byte, count int64) {
		clock := storage.NewFakeClock()
		s, err := NewStore(StoreConfig{Device: storage.NewNullDevice(clock), BlockSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ci, err := CodecFor[int64]()
		if err != nil {
			t.Fatal(err)
		}
		v2 := ci.Append(nil, count)

		w, err := s.NewRun()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRecord(k1, v1); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRecord(k2, v2); err != nil {
			t.Fatal(err)
		}
		run, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}

		r := s.OpenRun(run)
		gk, gv, err := r.ReadRecord()
		if err != nil {
			t.Fatalf("record 1: %v", err)
		}
		if !bytes.Equal(gk, k1) || !bytes.Equal(gv, v1) {
			t.Fatalf("record 1 = (%q, %q), want (%q, %q)", gk, gv, k1, v1)
		}
		gk, gv, err = r.ReadRecord()
		if err != nil {
			t.Fatalf("record 2: %v", err)
		}
		if !bytes.Equal(gk, k2) {
			t.Fatalf("record 2 key = %q, want %q", gk, k2)
		}
		if got, err := ci.Decode(gv); err != nil || got != count {
			t.Fatalf("record 2 val = %d, %v, want %d", got, err, count)
		}
		if _, _, err := r.ReadRecord(); err != io.EOF {
			t.Fatalf("trailing read err = %v, want io.EOF", err)
		}
	})
}

// FuzzBlockDecode feeds arbitrary bytes to the block decoder — the
// typed run source, pulled in blocks of a fuzzed size over a fuzzed
// device block size — beside the record reader: the two must agree on
// every record, and where the record reader fails or the run table's
// count is off, the decoder must fail too, never panic or deliver more
// than the run holds. A second source decodes the values as int64, so
// any value that is not 8 bytes must surface as an error.
func FuzzBlockDecode(f *testing.F) {
	add := func(data []byte, block, dst uint8) { f.Add(data, block, dst) }
	add([]byte{}, 32, 4)
	add([]byte{0, 0}, 1, 1)
	add(seedRecords([][2][]byte{
		{[]byte("ASCII12345"), []byte("teragen-style payload")},
		{[]byte("the"), []byte{8, 0, 0, 0, 0, 0, 0, 0}},
		{[]byte("zipf"), []byte{1, 0, 0, 0, 0, 0, 0, 0}},
	}), 16, 2)
	add([]byte{200}, 32, 4)
	add([]byte{5, 'a', 'b'}, 2, 3)
	add([]byte{0xff, 0xfb, 0xb9, 0xb9, 0xb9, 0xb9, 0xb9, 0xff, 0xff, 0x01}, 4, 1)
	f.Fuzz(func(t *testing.T, data []byte, blockRaw, dstRaw uint8) {
		clock := storage.NewFakeClock()
		s, _ := NewStore(StoreConfig{Device: storage.NewNullDevice(clock), BlockSize: 1 + int64(blockRaw)})
		run := &Run{size: int64(len(data)), data: &memRun{buf: data}}

		// The record reader's view: the records, and whether the run
		// parses to its end.
		var want [][2]string
		clean, ints := false, true
		for r := s.OpenRun(run); ; {
			key, val, err := r.ReadRecord()
			if err == io.EOF {
				clean = true
				break
			}
			if err != nil {
				break
			}
			want = append(want, [2]string{string(key), string(val)})
			ints = ints && len(val) == 8
		}
		run.records = int64(len(want))
		if len(data)%2 == 1 && clean {
			run.records++ // a run table that disagrees with a clean payload
			clean = false
		}

		cs, _ := CodecFor[string]()
		ci, _ := CodecFor[int64]()
		strs := &runSource[string, string]{r: s.OpenRun(run), kc: cs, vc: cs}
		strs.work = strs.decode
		got, err := drainSource[string, string](strs, 1+int(dstRaw%32))
		if len(got) > len(want) {
			t.Fatalf("decoded %d records from a run of %d", len(got), len(want))
		}
		for i, p := range got {
			if p.Key != want[i][0] || p.Val != want[i][1] {
				t.Fatalf("record %d = (%q, %q), the record reader says (%q, %q)", i, p.Key, p.Val, want[i][0], want[i][1])
			}
		}
		if clean != (err == nil) {
			t.Fatalf("record reader clean=%v, block decoder err=%v", clean, err)
		}
		if clean && len(got) != len(want) {
			t.Fatalf("decoded %d of %d records without an error", len(got), len(want))
		}

		nums := &runSource[string, int64]{r: s.OpenRun(run), kc: cs, vc: ci}
		nums.work = nums.decode
		gotN, err := drainSource[string, int64](nums, 1+int(dstRaw%32))
		if (clean && ints) != (err == nil) {
			t.Fatalf("clean=%v all-8-byte-values=%v, int64 decoder err=%v", clean, ints, err)
		}
		for i, p := range gotN {
			if v, _ := ci.Decode([]byte(want[i][1])); p.Key != want[i][0] || p.Val != v {
				t.Fatalf("int64 record %d = %v, want (%q, %d)", i, p, want[i][0], v)
			}
		}
	})
}
