package apps

import (
	"unsafe"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/kv"
	"supmr/internal/workload"
)

// Sort is the terasort-style sort application: the input is fixed-width
// records terminated with \r\n, keys are effectively unique, and the
// large input set becomes an equally large intermediate set. Its map
// phase is trivial (extract the key) and its merge phase dominates —
// the opposite profile from word count, which is why the paper pairs
// them.
type Sort struct{}

var _ kv.App[string, uint64] = Sort{}

// Map parses whole records and emits (key, payload-fingerprint) pairs.
// Chunk boundary adjustment guarantees the split holds whole records.
// The split's keys are copied into one buffer and emitted as substrings
// of it: one allocation per split, not one per record. An emitter that
// implements kv.Grower is told the record count first.
func (Sort) Map(split []byte, emit kv.Emitter[string, uint64]) {
	const rs, ks = workload.TeraRecordSize, workload.TeraKeySize
	// Tolerate a trailing partial record only at true end of input by
	// truncating to whole records; boundary adjustment makes this a
	// no-op in practice.
	whole := split[:len(split)-len(split)%rs]
	buf := make([]byte, 0, len(whole)/rs*ks)
	n, _ := workload.ParseTeraRecords(whole, func(rec []byte) {
		buf = append(buf, rec[:ks]...)
	})
	if g, ok := emit.(kv.Grower); ok {
		g.Grow(int(n))
	}
	// buf is complete and never written again, so it can back the keys.
	keys := unsafe.String(unsafe.SliceData(buf), len(buf))
	for i := 0; i < int(n); i++ {
		emit.Emit(keys[i*ks:(i+1)*ks], workload.Uint64Key(whole[i*rs+ks:]))
	}
}

// Reduce passes the single value for a (unique) key through.
func (Sort) Reduce(_ string, vs []uint64) uint64 {
	if len(vs) == 0 {
		return 0
	}
	return vs[0]
}

// Less orders keys lexicographically (terasort order).
func (Sort) Less(a, b string) bool { return a < b }

// FixedKey opts into the fixed-key sort fast path (scatter finish,
// radix run sort, prefix-head merge): terasort keys are exactly
// TeraKeySize raw bytes, already in lexicographic order.
func (Sort) FixedKey() kv.FixedKeyCodec[string] {
	return kv.StringFixedKey(workload.TeraKeySize)
}

// Boundary returns the \r\n record boundary of the sort input. The
// fixed record width would permit chunk.FixedBoundary too; CRLF matches
// the paper's description of the split function.
func (Sort) Boundary() chunk.Boundary { return chunk.CRLFBoundary{} }

// NewContainer returns Phoenix's unlocked storage (§V-B): sort has
// unique keys, so every mapper writes its own range with no
// synchronization and the hash container's key lookup and cell sweeps
// are avoided entirely.
func (Sort) NewContainer() container.Container[string, uint64] {
	return container.NewKeyRange[string, uint64](0)
}

// NewHashContainer returns the (deliberately wrong) default hash
// container for the container-choice ablation: unique keys make mappers
// pay a lookup per insert and reducers sweep cells with one key each.
func (Sort) NewHashContainer(shards int) container.Container[string, uint64] {
	return container.NewHash[string, uint64](shards, container.StringHasher, nil)
}
