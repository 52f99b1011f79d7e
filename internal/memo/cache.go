package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"supmr/internal/kv"
	"supmr/internal/spill"
)

// ErrMalformed marks a cache payload whose bytes passed the store's
// digest check but do not parse as records, or do not hold the record
// count the entry announced. Callers treat it like any other
// unreadable entry: a miss and a recompute.
var ErrMalformed = errors.New("memo: malformed entry payload")

// Cache is the typed view over a Store for one job type: it derives
// entry keys from chunk content hashes under a key space, and
// serializes per-chunk map/combine output as a spill run: the spill
// field codecs inside spill's record framing.
// Jobs whose key or value types have no codec cannot memoize; NewCache
// refuses up front.
type Cache[K comparable, V any] struct {
	store *Store
	space []byte
	kc    spill.Codec[K]
	vc    spill.Codec[V]
}

// Entry is one fetched cache payload, still encoded: the run's bytes
// and the record count announced at publish. Fetch returns only
// entries that Replay accepts, cut into pieces of PieceRecords records.
type Entry struct {
	Payload []byte
	Records int64
	cuts    []int // where each piece after the first starts in Payload
}

// PieceRecords is the record count of a fetched entry's pieces (the
// last may hold fewer): the grain at which a fold spreads one entry
// over the compute workers.
const PieceRecords = 1024

// Pieces is the number of pieces Piece serves: one for an entry Fetch
// did not cut.
func (e Entry) Pieces() int { return len(e.cuts) + 1 }

// Piece returns piece j of e as an entry of its own, which Replay
// accepts whenever it accepts e.
func (e Entry) Piece(j int) Entry {
	lo, hi, records := 0, len(e.Payload), int64(PieceRecords)
	if j > 0 {
		lo = e.cuts[j-1]
	}
	if j < len(e.cuts) {
		hi = e.cuts[j]
	} else {
		records = e.Records - int64(len(e.cuts))*PieceRecords
	}
	return Entry{Payload: e.Payload[lo:hi], Records: records}
}

// NewCache builds the typed layer. space namespaces keys so different
// applications (or explicitly separated key spaces) sharing one store
// never collide: the same chunk content yields different entry keys
// under different spaces.
func NewCache[K comparable, V any](store *Store, space string) (*Cache[K, V], error) {
	if store == nil {
		return nil, fmt.Errorf("memo: cache requires a store")
	}
	kc, err := spill.CodecFor[K]()
	if err != nil {
		return nil, fmt.Errorf("memo: key %w", err)
	}
	vc, err := spill.CodecFor[V]()
	if err != nil {
		return nil, fmt.Errorf("memo: value %w", err)
	}
	return &Cache[K, V]{store: store, space: []byte(space), kc: kc, vc: vc}, nil
}

// Key derives the entry key for one chunk's content hash: a SHA-256
// over the key space and the content sum, length-framed so distinct
// (space, sum) inputs cannot collide by concatenation.
func (c *Cache[K, V]) Key(sum [32]byte) Key {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(c.space)))
	h.Write(n[:])
	h.Write(c.space)
	h.Write(sum[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// Fetch reads the entry for k without decoding it into pairs: the store
// verifies the payload digest, and one discarding replay pass verifies
// the framing, the codecs and the record count, so a later Replay of
// the returned entry, or of any of its pieces, cannot fail. The same
// pass records the piece cuts. ok reports a usable hit; a
// present-but-unreadable entry (fault, torn write, malformed payload)
// returns ok=false with the error for accounting — the store evicts it
// and the caller recomputes either way.
func (c *Cache[K, V]) Fetch(k Key) (Entry, bool, error) {
	return c.fetch(k, func(e *Entry) error {
		rest, left := e.Payload, e.Records
		for left > 0 && len(rest) > 0 {
			n, r, err := spill.Replay(rest, int(min(left, PieceRecords)), c.kc, c.vc, spill.Discard[K, V]{})
			if err != nil {
				return fmt.Errorf("%w: %w", ErrMalformed, err)
			}
			rest, left = r, left-int64(n)
			if n < PieceRecords {
				break
			}
			if left > 0 && len(rest) > 0 {
				e.cuts = append(e.cuts, len(e.Payload)-len(rest))
			}
		}
		if left != 0 || len(rest) > 0 {
			return fmt.Errorf("%w: the payload does not hold the %d records the entry announced", ErrMalformed, e.Records)
		}
		return nil
	})
}

// Get fetches and decodes the cached pairs for k, with Fetch's hit and
// error contract.
func (c *Cache[K, V]) Get(k Key) ([]kv.Pair[K, V], bool, error) {
	var pairs []kv.Pair[K, V]
	_, ok, err := c.fetch(k, func(e *Entry) error {
		// A record is at least two length bytes, which bounds the
		// presize whatever count the entry announces.
		pairs = make([]kv.Pair[K, V], 0, max(0, min(e.Records, int64(len(e.Payload)/2))))
		return c.Replay(*e, kv.EmitFunc[K, V](func(k K, v V) {
			pairs = append(pairs, kv.Pair[K, V]{Key: k, Val: v})
		}))
	})
	if !ok {
		return nil, false, err
	}
	return pairs, true, nil
}

// fetch reads k's entry from the store, which counts it as a hit only
// if check — one replay pass over the digest-verified payload, which
// may note what it learns in the entry — accepts it. ok=false with a
// nil error is a clean miss.
func (c *Cache[K, V]) fetch(k Key, check func(*Entry) error) (Entry, bool, error) {
	var e Entry
	payload, _, err := c.store.get(k, func(payload []byte, records int64) error {
		e = Entry{Payload: payload, Records: records}
		return check(&e)
	})
	if err != nil || payload == nil {
		return Entry{}, false, err
	}
	return e, true, nil
}

// Replay streams e's records into emit in payload (key-sorted) order,
// through spill.Replay: with the kv.BytesEmitter fast path for string
// keys, a combining container's Local folds a replay without allocating
// a key string or a pair slice. Any framing or codec failure, or a
// payload holding other than e.Records records, returns an error
// wrapping ErrMalformed; records decoded before the failure have already
// been emitted.
func (c *Cache[K, V]) Replay(e Entry, emit kv.Emitter[K, V]) error {
	n, rest, err := spill.Replay(e.Payload, int(e.Records), c.kc, c.vc, emit)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	if int64(n) != e.Records || len(rest) > 0 {
		return fmt.Errorf("%w: the payload does not hold the %d records the entry announced", ErrMalformed, e.Records)
	}
	return nil
}

// Put serializes pairs and publishes them under k. The pairs should be
// the chunk's full combined output in its stable (key-sorted) order, so
// equal chunk content always publishes equal payload bytes.
func (c *Cache[K, V]) Put(k Key, pairs []kv.Pair[K, V]) error {
	var buf, kb, vb []byte
	for _, p := range pairs {
		kb = c.kc.Append(kb[:0], p.Key)
		vb = c.vc.Append(vb[:0], p.Val)
		buf = spill.AppendRecord(buf, kb, vb)
	}
	return c.store.Put(k, buf, int64(len(pairs)))
}
