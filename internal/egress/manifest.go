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
	"errors"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC-32C table used for extent checksums (the
// polynomial storage systems conventionally use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel every corruption error of an output wraps:
// an extent that reads back bit-flipped, or a stitched output whose
// length drifts from the manifest, is a typed error matching
// errors.Is(err, ErrCorrupt), never silently wrong data.
var ErrCorrupt = errors.New("egress: corrupt")

// CorruptError reports an extent or output that failed validation.
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
// two byte-identical outputs always carry equal manifests.
type Manifest struct {
	ExtentBytes int64
	Total       int64 // sum of extent lengths
	Extents     []Extent
}
