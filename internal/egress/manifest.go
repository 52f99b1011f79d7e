// Package egress materializes a job's merged output in parallel across
// the IO lanes: the encoded output stream is cut into fixed-size
// extents, each extent is written concurrently as its own IO-lane task
// (with per-lane byte attribution and whole-extent retry of torn
// writes), and a deterministic extent manifest stitches the pieces back
// together. Because extent boundaries are fixed byte ranges of the
// encoded stream — extent i covers [i*ExtentBytes, (i+1)*ExtentBytes)
// regardless of lane count or completion order — the materialized
// output is byte-identical to a serial writer at any lane count.
//
// The completed Output implements chunk.Input, so one job's egressed
// output can feed the next job's ingest pipeline (reads in flight,
// freelist, multi-lane fetch) without a round-trip through a
// materialized file; internal/dag chains jobs this way.
package egress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC-32C table used for extent and manifest
// checksums (the polynomial storage systems conventionally use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel every manifest/extent corruption error
// wraps: a truncated or bit-flipped manifest decodes to a typed error
// matching errors.Is(err, ErrCorrupt), never to silently wrong data.
var ErrCorrupt = errors.New("egress: corrupt")

// CorruptError reports a manifest or extent that failed validation.
type CorruptError struct {
	Reason string
}

// Error describes the corruption.
func (e *CorruptError) Error() string { return "egress: corrupt: " + e.Reason }

// Unwrap ties CorruptError to the ErrCorrupt sentinel.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

func corruptf(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// Extent describes one manifest entry: a fixed byte range of the
// output stream and the CRC-32C of its payload.
type Extent struct {
	Off int64  // byte offset of the extent in the stitched output
	Len int64  // payload length (ExtentBytes for all but the last)
	CRC uint32 // CRC-32C over the payload
}

// Manifest is the deterministic stitching recipe for a parallel egress:
// extent i covers output bytes [i*ExtentBytes, i*ExtentBytes+Len_i).
// The manifest is a pure function of the output bytes and ExtentBytes —
// independent of lane count, completion order and fault schedule — so
// two byte-identical outputs always carry byte-identical manifests.
type Manifest struct {
	ExtentBytes int64
	Total       int64 // sum of extent lengths
	Extents     []Extent
}

// manifestMagic versions the binary manifest encoding.
var manifestMagic = [4]byte{'S', 'M', 'X', '1'}

// Encode renders the manifest in its binary form: magic, uvarint
// ExtentBytes, uvarint Total, uvarint extent count, per-extent uvarint
// length + little-endian CRC-32C, and a trailing CRC-32C over all
// preceding bytes. Offsets are not stored; they are recomputed as
// running sums on decode.
func (m Manifest) Encode() []byte {
	buf := make([]byte, 0, 16+len(m.Extents)*9)
	buf = append(buf, manifestMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(m.ExtentBytes))
	buf = binary.AppendUvarint(buf, uint64(m.Total))
	buf = binary.AppendUvarint(buf, uint64(len(m.Extents)))
	for _, e := range m.Extents {
		buf = binary.AppendUvarint(buf, uint64(e.Len))
		buf = binary.LittleEndian.AppendUint32(buf, e.CRC)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// DecodeManifest parses and validates a binary manifest. Any
// truncation or bit flip yields a *CorruptError (wrapping ErrCorrupt);
// a nil error guarantees the returned manifest is internally
// consistent: all extents but the last are exactly ExtentBytes, the
// last is non-empty and no larger, offsets are the running sum, and
// the lengths sum to Total.
func DecodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	if len(b) < len(manifestMagic)+4 {
		return m, corruptf("manifest truncated at %d bytes", len(b))
	}
	body, foot := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(foot), crc32.Checksum(body, castagnoli); got != want {
		return m, corruptf("manifest checksum mismatch: stored %08x, computed %08x", got, want)
	}
	if [4]byte(body[:4]) != manifestMagic {
		return m, corruptf("bad manifest magic %q", body[:4])
	}
	rest := body[4:]
	next := func(field string) (int64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, corruptf("manifest %s field unreadable", field)
		}
		rest = rest[n:]
		if v > 1<<62 {
			return 0, corruptf("manifest %s %d out of range", field, v)
		}
		return int64(v), nil
	}
	var err error
	if m.ExtentBytes, err = next("extent-bytes"); err != nil {
		return Manifest{}, err
	}
	if m.Total, err = next("total"); err != nil {
		return Manifest{}, err
	}
	count, err := next("count")
	if err != nil {
		return Manifest{}, err
	}
	if m.ExtentBytes <= 0 && count > 0 {
		return Manifest{}, corruptf("manifest extent size %d with %d extents", m.ExtentBytes, count)
	}
	// Each extent needs at least 5 encoded bytes; reject counts the
	// remaining bytes cannot possibly hold before allocating.
	if count > int64(len(rest))/5 {
		return Manifest{}, corruptf("manifest claims %d extents in %d bytes", count, len(rest))
	}
	m.Extents = make([]Extent, 0, count)
	var off int64
	for i := int64(0); i < count; i++ {
		l, err := next("extent length")
		if err != nil {
			return Manifest{}, err
		}
		if len(rest) < 4 {
			return Manifest{}, corruptf("manifest truncated in extent %d checksum", i)
		}
		crc := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		switch {
		case i < count-1 && l != m.ExtentBytes:
			return Manifest{}, corruptf("extent %d length %d, want extent size %d", i, l, m.ExtentBytes)
		case i == count-1 && (l <= 0 || l > m.ExtentBytes):
			return Manifest{}, corruptf("last extent length %d, want 1..%d", l, m.ExtentBytes)
		}
		m.Extents = append(m.Extents, Extent{Off: off, Len: l, CRC: crc})
		off += l
	}
	if len(rest) != 0 {
		return Manifest{}, corruptf("%d trailing manifest bytes", len(rest))
	}
	if off != m.Total {
		return Manifest{}, corruptf("extent lengths sum to %d, manifest total %d", off, m.Total)
	}
	return m, nil
}
