package shuffle

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"supmr/internal/faults"
	"supmr/internal/kv"
	"supmr/internal/netsim"
	"supmr/internal/sortalgo"
	"supmr/internal/spill"
	"supmr/internal/storage"
)

// Topology describes the simulated cluster a multi-node run exchanges
// its intermediate runs over. core.Options embeds it: these are the
// pipeline's multi-node knobs.
type Topology struct {
	// Nodes is the simulated worker-node count; 0 keeps the job
	// single-node, 1 is the degenerate one-node cluster (useful for
	// differential tests).
	Nodes int
	// CombinerOff disables the in-node combiner tier (the node's
	// persistent container, reduced once after ingest): the container is
	// drained after every chunk and each per-chunk run is framed on its
	// own. Destinations re-reduce what they receive either way, so output
	// bytes are identical — only wire traffic changes.
	CombinerOff bool
	// LinkBW is each node port's bandwidth in bytes/sec
	// (0 = netsim.GigabitEthernet); LinkLatency is the per-transfer
	// one-way latency.
	LinkBW      float64
	LinkLatency time.Duration
	// Clock schedules fabric transfers and retry backoff.
	Clock storage.Clock
	// Injector (optional) arms one fault seam per directed node pair —
	// sites "shuffle-n<src>-n<dst>" — injecting latency spikes and torn
	// frame transfers.
	Injector *faults.Injector
}

// Exchange is sample sort's one routing round (Goodrich, Sitchinava
// and Zhang) with nodes for workers. The ingest loop hands it each
// node's reduced entries in any order — its container's reduce output,
// or one run per chunk with the in-node combiner ablated; Run then
//
//	samples: nodes holding entries swap keys-only sample frames and all
//	         derive the same Nodes-1 splitters
//	routes:  each entry goes to node n, n the number of splitters at or
//	         below its key, as checksummed frames over the fabric, the
//	         local share bypassing the wire
//
// Node n receives the n-th key range: once each node finishes what it
// received, the node outputs laid end to end are the sorted result,
// byte-identical to a single-node run.
type Exchange[K comparable, V any] struct {
	Bytes   int64 // framed bytes that crossed the links, retries included
	Frames  int   // frames delivered between nodes, sample frames included
	top     Topology
	kc      spill.Codec[K]
	vc      spill.Codec[V]
	fab     *netsim.Fabric
	wires   [][]*faults.Wire
	retrier *faults.Retrier
}

// NewExchange builds the fabric and arms the wire fault seams, failing
// up front when the key or value type has no wire codec. retrier (may
// be nil) resends torn frames.
func NewExchange[K comparable, V any](top Topology, retrier *faults.Retrier) (*Exchange[K, V], error) {
	kc, err := spill.CodecFor[K]()
	if err != nil {
		return nil, fmt.Errorf("shuffle: key: %w", err)
	}
	vc, err := spill.CodecFor[V]()
	if err != nil {
		return nil, fmt.Errorf("shuffle: value: %w", err)
	}
	bw := top.LinkBW
	if bw == 0 {
		bw = netsim.GigabitEthernet
	}
	fab, err := netsim.NewFabric(top.Nodes, bw, top.LinkLatency, top.Clock)
	if err != nil {
		return nil, err
	}
	wires := make([][]*faults.Wire, top.Nodes)
	for src := range wires {
		wires[src] = make([]*faults.Wire, top.Nodes)
		if top.Injector == nil {
			continue
		}
		for dst := range wires[src] {
			if dst != src {
				wires[src][dst] = top.Injector.Wire(fmt.Sprintf("shuffle-n%d-n%d", src, dst))
			}
		}
	}
	return &Exchange[K, V]{top: top, kc: kc, vc: vc, fab: fab, wires: wires, retrier: retrier}, nil
}

// Run exchanges nodeBlocks (nodeBlocks[n]: node n's entries, in blocks
// in any order) and returns recv[dst], the blocks node dst received. A
// node's blocks travel to each other node as one frame, or with
// CombinerOff one frame per block. What a node keeps is moved to the
// front of its blocks in place and handed back uncopied. Samples are
// drawn by content alone, so the wire does not depend on the order a
// container iterates in.
func (x *Exchange[K, V]) Run(nodeBlocks [][][]kv.Pair[K, V], less kv.Less[K]) ([][][]kv.Pair[K, V], error) {
	// A node's sample is the keys whose encoding hashes to 0 modulo
	// stride, with stride sized for about SamplesPerRun of its entries,
	// cut to at most SamplesPerRun keys. Every node with a sample sends it
	// to every other such node, so each holds all of them and derives the
	// same splitters.
	var kbuf, vbuf, payload []byte
	own := make([][]K, len(nodeBlocks))
	for n, blocks := range nodeBlocks {
		entries := 0
		for _, b := range blocks {
			entries += len(b)
		}
		stride := max(entries/sortalgo.SamplesPerRun, 1)
		var s []K
		for _, b := range blocks {
			for _, p := range b {
				if kbuf = x.kc.Append(kbuf[:0], p.Key); PartitionOf(kbuf, stride) == 0 {
					s = append(s, p.Key)
				}
			}
		}
		own[n] = sortalgo.Splitters(s, min(len(s), sortalgo.SamplesPerRun)+1, less)
	}
	for src := range own {
		payload = payload[:0]
		for _, k := range own[src] {
			kbuf = x.kc.Append(kbuf[:0], k)
			payload = AppendRecord(payload, kbuf, nil)
		}
		for dst := range own {
			if dst != src && len(own[src]) > 0 && len(own[dst]) > 0 {
				if _, err := ship(x, src, dst, len(own[src]), payload, keysOnly); err != nil {
					return nil, err
				}
			}
		}
	}
	splitters := sortalgo.Splitters(slices.Concat(own...), x.top.Nodes, less)

	recv := make([][][]kv.Pair[K, V], x.top.Nodes)
	payloads := make([][]byte, x.top.Nodes)
	records := make([]int, x.top.Nodes)
	for src, blocks := range nodeBlocks {
		for i, b := range blocks {
			local := 0 // the local share moves to the block's front
			for j, p := range b {
				dst := sort.Search(len(splitters), func(k int) bool { return less(p.Key, splitters[k]) })
				if dst == src {
					b[local], b[j] = b[j], b[local]
					local++
					continue
				}
				kbuf, vbuf = x.kc.Append(kbuf[:0], p.Key), x.vc.Append(vbuf[:0], p.Val)
				payloads[dst] = AppendRecord(payloads[dst], kbuf, vbuf)
				records[dst]++
			}
			recv[src] = append(recv[src], b[:local])
			if !x.top.CombinerOff && i < len(blocks)-1 {
				continue // the node's next block joins the same frames
			}
			for dst, n := range records {
				if n == 0 {
					continue
				}
				got, err := ship(x, src, dst, n, payloads[dst], x.vc)
				if err != nil {
					return nil, err
				}
				recv[dst] = append(recv[dst], got)
				payloads[dst], records[dst] = payloads[dst][:0], 0
			}
		}
	}
	return recv, nil
}

// keysOnly encodes a sample frame's values: empty, so its records carry
// keys alone. The []byte codec always resolves.
var keysOnly, _ = spill.CodecFor[[]byte]()

// ship frames payload — records records, keys in x's key codec and
// values in vc — sends the frame from src to dst, resending torn
// transfers, and returns the pairs as dst decoded them.
func ship[K comparable, V, W any](x *Exchange[K, V], src, dst, records int, payload []byte, vc spill.Codec[W]) ([]kv.Pair[K, W], error) {
	frame := EncodeFrame(nil, src, dst, records, payload)
	var got []kv.Pair[K, W]
	err := x.retrier.Do(func() error {
		n, ferr := x.wires[src][dst].Send(len(frame))
		if terr := x.fab.Transfer(src, dst, int64(n)); terr != nil {
			return terr
		}
		x.Bytes += int64(n)
		if ferr != nil {
			// Only a prefix reached the receiver: it must reject the
			// torn frame with a typed error, never accept it, and the
			// sender retries.
			if _, derr := DecodeFrame(frame[:n]); derr == nil {
				return fmt.Errorf("shuffle: torn frame to n%d accepted: %w", dst, ErrCorrupt)
			}
			return ferr
		}
		var derr error
		if got, derr = decodeRun(frame, src, dst, x.kc, vc); derr == nil {
			x.Frames++
		}
		return derr
	})
	if err != nil {
		return nil, fmt.Errorf("shuffle: n%d->n%d: %w", src, dst, err)
	}
	return got, nil
}

// decodeRun verifies and decodes one received frame into its pairs, in
// the order they were framed. Header fields must match the link the
// frame arrived on.
func decodeRun[K comparable, V any](frame []byte, src, dst int, kc spill.Codec[K], vc spill.Codec[V]) ([]kv.Pair[K, V], error) {
	f, err := DecodeFrame(frame)
	if err != nil {
		return nil, err
	}
	if f.Src != src || f.Part != dst {
		return nil, fmt.Errorf("%w: frame for n%d->n%d arrived on n%d->n%d", ErrCorrupt, f.Src, f.Part, src, dst)
	}
	run := make([]kv.Pair[K, V], 0, f.Records)
	for p := f.Payload; len(p) > 0; {
		key, val, rest, err := ReadRecord(p)
		if err != nil {
			return nil, err
		}
		k, err := kc.Decode(key)
		if err != nil {
			return nil, fmt.Errorf("%w: key: %v", ErrCorrupt, err)
		}
		v, err := vc.Decode(val)
		if err != nil {
			return nil, fmt.Errorf("%w: value: %v", ErrCorrupt, err)
		}
		run, p = append(run, kv.Pair[K, V]{Key: k, Val: v}), rest
	}
	if len(run) != f.Records {
		return nil, fmt.Errorf("%w: %d records, header says %d", ErrCorrupt, len(run), f.Records)
	}
	return run, nil
}
