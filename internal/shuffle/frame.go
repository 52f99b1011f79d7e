// Package shuffle is the multi-node exchange layer: N simulated SupMR
// worker nodes each run the scale-up pipeline over their local ingest
// chunks, drain their containers into key-sorted runs, cut the runs at
// splitters sampled from them all, and send slice n of every run to node
// n as framed messages over netsim fabric links. Node n merges its
// slices through the standing MergeSources re-reduce path, so the nodes'
// outputs laid end to end are byte-identical to a single-node run.
package shuffle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"supmr/internal/spill"
)

// Frame layout — one framed run partition per wire transfer:
//
//	magic   [2]byte  "SF"
//	version byte     1
//	uvarint          source node
//	uvarint          partition (destination node)
//	uvarint          record count
//	uvarint          payload length in bytes
//	payload          records in the one record format, a spill run's:
//	                 uvarint keyLen, key, uvarint valLen, val, written
//	                 by spill.AppendRecord and cut by spill.CutRecord
//	crc32c  [4]byte  Castagnoli checksum of everything before it
//
// The checksum plus the explicit payload length mean a torn or
// truncated frame is always rejected with a typed error — a prefix of
// a valid frame can never decode as a valid frame.

// ErrTruncated reports a frame cut short: the declared header and
// payload lengths extend past the received bytes (a torn transfer).
var ErrTruncated = errors.New("shuffle: truncated frame")

// ErrCorrupt reports a structurally broken frame: bad magic or
// version, checksum mismatch, malformed record framing, or trailing
// garbage. Corruption is never silently accepted.
var ErrCorrupt = errors.New("shuffle: corrupt frame")

const (
	frameMagic0  = 'S'
	frameMagic1  = 'F'
	frameVersion = 1
)

// Frame is a decoded, checksum-verified shuffle message.
type Frame struct {
	Src     int    // sending node
	Part    int    // partition = destination node
	Records int    // record count in Payload
	Payload []byte // aliases the decoded buffer
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame appends one frame carrying payload (records pre-framed
// records) from node src for partition part, returning the extended
// buffer.
func EncodeFrame(dst []byte, src, part, records int, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, frameMagic0, frameMagic1, frameVersion)
	dst = binary.AppendUvarint(dst, uint64(src))
	dst = binary.AppendUvarint(dst, uint64(part))
	dst = binary.AppendUvarint(dst, uint64(records))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// AppendRecord appends one key/value record to a frame payload, in the
// spill run format.
func AppendRecord(payload, key, val []byte) []byte { return spill.AppendRecord(payload, key, val) }

// DecodeFrame parses and verifies exactly one frame occupying all of
// p. Truncation (including any torn prefix of a valid frame) returns
// ErrTruncated; structural damage returns ErrCorrupt. The returned
// payload aliases p.
func DecodeFrame(p []byte) (Frame, error) {
	var f Frame
	if len(p) < 3 {
		return f, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(p))
	}
	if p[0] != frameMagic0 || p[1] != frameMagic1 {
		return f, fmt.Errorf("%w: bad magic %q", ErrCorrupt, p[:2])
	}
	if p[2] != frameVersion {
		return f, fmt.Errorf("%w: version %d", ErrCorrupt, p[2])
	}
	rest := p[3:]
	var fields [4]uint64
	for i := range fields {
		v, n := binary.Uvarint(rest)
		if n == 0 {
			return f, fmt.Errorf("%w: header field %d", ErrTruncated, i)
		}
		if n < 0 {
			return f, fmt.Errorf("%w: header field %d overflows", ErrCorrupt, i)
		}
		fields[i] = v
		rest = rest[n:]
	}
	payloadLen := fields[3]
	if uint64(len(rest)) < payloadLen+4 {
		return f, fmt.Errorf("%w: %d of %d payload+crc bytes", ErrTruncated, len(rest), payloadLen+4)
	}
	if uint64(len(rest)) > payloadLen+4 {
		return f, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, uint64(len(rest))-payloadLen-4)
	}
	payload := rest[:payloadLen]
	want := binary.LittleEndian.Uint32(rest[payloadLen:])
	if got := crc32.Checksum(p[:len(p)-4], crcTable); got != want {
		return f, fmt.Errorf("%w: checksum %08x != %08x", ErrCorrupt, got, want)
	}
	f.Src = int(fields[0])
	f.Part = int(fields[1])
	f.Records = int(fields[2])
	f.Payload = payload
	return f, nil
}

// ReadRecord parses the next record from a frame payload, returning
// the key, value and remaining bytes. Records inside a
// checksum-verified frame can still be malformed only if the sender
// was broken, so framing errors here, a record the payload cuts short
// among them, are ErrCorrupt.
func ReadRecord(payload []byte) (key, val, rest []byte, err error) {
	key, val, n, err := spill.CutRecord(payload, int64(len(payload)))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: record framing: %w", ErrCorrupt, err)
	}
	return key, val, payload[n:], nil
}
