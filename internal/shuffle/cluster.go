package shuffle

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"supmr/internal/exec"
	"supmr/internal/faults"
	"supmr/internal/kv"
	"supmr/internal/metrics"
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
	// (0 = netsim.GigabitEthernet); LinkLatency is the one-way latency,
	// charged once per fabric round: the exchange's sample frames cross
	// in one round and its data frames in another.
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
// Both steps are parallel rounds on the job's pool: each node samples,
// and later routes and frames its entries, in a task of its own; all
// frames of a step cross the fabric together, so a step costs its
// busiest port's bytes rather than every node's; and each frame is
// decoded in a task of its own. Only the wire's fault decisions run on
// the caller, one frame after another in (src, block, dst) order, so
// the bytes, frames, fault counters and errors do not depend on how
// the tasks are scheduled.
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
	wires   [][]wire
	retrier *faults.Retrier
}

// wire is the send seam of one directed node pair: a *faults.Wire,
// whose nil value passes every send through, or a test's recorder.
type wire interface {
	Send(n int) (int, error)
}

// taskLabel labels the exchange's pool tasks.
const taskLabel = "exchange"

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
	wires := make([][]wire, top.Nodes)
	for src := range wires {
		wires[src] = make([]wire, top.Nodes)
		for dst := range wires[src] {
			var w *faults.Wire
			if top.Injector != nil && dst != src {
				w = top.Injector.Wire(fmt.Sprintf("shuffle-n%d-n%d", src, dst))
			}
			wires[src][dst] = w
		}
	}
	return &Exchange[K, V]{top: top, kc: kc, vc: vc, fab: fab, wires: wires, retrier: retrier}, nil
}

// Run exchanges nodeBlocks (nodeBlocks[n]: node n's entries, in blocks
// in any order) on pool and returns recv[dst], the blocks node dst
// received. A node's blocks travel to each other node as one frame, or
// with CombinerOff one frame per block. What a node keeps is moved to
// the front of its blocks in place and handed back uncopied. Samples
// are drawn by content alone, so the wire does not depend on the order
// a container iterates in.
func (x *Exchange[K, V]) Run(nodeBlocks [][][]kv.Pair[K, V], less kv.Less[K], pool exec.Executor) ([][][]kv.Pair[K, V], error) {
	// Every node with a sample sends it to every other such node, so
	// each holds all of them and derives the same splitters.
	own := make([][]K, len(nodeBlocks))
	payloads := make([][]byte, len(nodeBlocks))
	if _, err := pool.ForEach(taskLabel, metrics.StateUser, len(nodeBlocks), func(n int) error {
		own[n], payloads[n] = x.sample(nodeBlocks[n], less)
		return nil
	}); err != nil {
		return nil, err
	}
	var samples []delivery[K, []byte]
	for src := range own {
		for dst := range own {
			if dst != src && len(own[src]) > 0 && len(own[dst]) > 0 {
				samples = append(samples, delivery[K, []byte]{src: src, dst: dst,
					frame: EncodeFrame(nil, src, dst, len(own[src]), payloads[src])})
			}
		}
	}
	if err := cross(x, samples, keysOnly, pool); err != nil {
		return nil, err
	}
	splitters := sortalgo.Splitters(slices.Concat(own...), x.top.Nodes, less)

	routed := make([][]delivery[K, V], len(nodeBlocks))
	if _, err := pool.ForEach(taskLabel, metrics.StateUser, len(nodeBlocks), func(src int) error {
		routed[src] = x.route(src, nodeBlocks[src], splitters, less)
		return nil
	}); err != nil {
		return nil, err
	}
	ds := slices.Concat(routed...)
	if err := cross(x, ds, x.vc, pool); err != nil {
		return nil, err
	}
	recv := make([][][]kv.Pair[K, V], x.top.Nodes)
	for _, d := range ds {
		recv[d.dst] = append(recv[d.dst], d.pairs)
	}
	return recv, nil
}

// delivery is what one destination gets from one source: a local share
// handed over in place (frame nil), or a frame to cross the fabric,
// whose pairs are what the destination decoded.
type delivery[K comparable, V any] struct {
	src, dst int
	frame    []byte
	pairs    []kv.Pair[K, V]
}

// sample draws a node's sample by content alone: the keys whose
// encoding hashes to 0 modulo stride, stride sized for about
// SamplesPerRun of the node's entries, cut to at most SamplesPerRun
// keys. It returns them with the payload of their keys-only frame.
func (x *Exchange[K, V]) sample(blocks [][]kv.Pair[K, V], less kv.Less[K]) ([]K, []byte) {
	entries := 0
	for _, b := range blocks {
		entries += len(b)
	}
	stride := max(entries/sortalgo.SamplesPerRun, 1)
	var s []K
	var kbuf, payload []byte
	for _, b := range blocks {
		for _, p := range b {
			if kbuf = x.kc.Append(kbuf[:0], p.Key); PartitionOf(kbuf, stride) == 0 {
				s = append(s, p.Key)
			}
		}
	}
	s = sortalgo.Splitters(s, min(len(s), sortalgo.SamplesPerRun)+1, less)
	for _, k := range s {
		kbuf = x.kc.Append(kbuf[:0], k)
		payload = AppendRecord(payload, kbuf, nil)
	}
	return s, payload
}

// route sends each entry of node src's blocks to the node whose key
// range holds it. The entries bound for other nodes are framed, one
// frame per destination for all blocks or, with CombinerOff, per
// block: a size pass counts each frame's records and bytes, so the
// encode pass writes each frame once into a buffer of its exact length
// while it moves the local share to each block's front. It returns
// each block's local share and, after a frame group's last block, the
// group's frames in destination order.
func (x *Exchange[K, V]) route(src int, blocks [][]kv.Pair[K, V], splitters []K, less kv.Less[K]) []delivery[K, V] {
	per := len(blocks)
	if x.top.CombinerOff {
		per = 1
	}
	var out []delivery[K, V]
	var kbuf, vbuf []byte
	// owners caches each entry's destination for the encode pass; on a
	// cluster of 255 nodes or more it saturates and the pass searches
	// again.
	var owners []uint8
	records, sizes := make([]int, x.top.Nodes), make([]int, x.top.Nodes)
	for first := 0; first < len(blocks); first += per {
		group := blocks[first:min(first+per, len(blocks))]
		clear(records)
		clear(sizes)
		entries := 0
		for _, b := range group {
			entries += len(b)
		}
		owners = slices.Grow(owners[:0], entries)
		for _, b := range group {
			for _, p := range b {
				dst := owner(p.Key, splitters, less)
				owners = append(owners, uint8(min(dst, math.MaxUint8)))
				if dst != src {
					kbuf, vbuf = x.kc.Append(kbuf[:0], p.Key), x.vc.Append(vbuf[:0], p.Val)
					records[dst]++
					sizes[dst] += recordLen(len(kbuf), len(vbuf))
				}
			}
		}
		frames := make([][]byte, x.top.Nodes)
		for dst, n := range records {
			if n > 0 {
				frames[dst] = appendFrameHeader(make([]byte, 0, frameLen(src, dst, n, sizes[dst])), src, dst, n, sizes[dst])
			}
		}
		next := 0
		for _, b := range group {
			local := 0
			for j, p := range b {
				dst := int(owners[next])
				next++
				if dst == math.MaxUint8 {
					dst = owner(p.Key, splitters, less)
				}
				if dst == src {
					b[local], b[j] = b[j], b[local]
					local++
					continue
				}
				kbuf, vbuf = x.kc.Append(kbuf[:0], p.Key), x.vc.Append(vbuf[:0], p.Val)
				frames[dst] = AppendRecord(frames[dst], kbuf, vbuf)
			}
			out = append(out, delivery[K, V]{src: src, dst: src, pairs: b[:local]})
		}
		for dst, f := range frames {
			if f != nil {
				out = append(out, delivery[K, V]{src: src, dst: dst, frame: sealFrame(f, 0)})
			}
		}
	}
	return out
}

// owner is the node whose key range holds k: the number of splitters
// at or below it.
func owner[K any](k K, splitters []K, less kv.Less[K]) int {
	lo, hi := 0, len(splitters)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); less(k, splitters[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// keysOnly encodes a sample frame's values: empty, so its records carry
// keys alone. The []byte codec always resolves.
var keysOnly, _ = spill.CodecFor[[]byte]()

// cross moves one round of deliveries: every frame among ds crosses
// the fabric and is decoded into its pairs at its destination, values
// in vc; local shares stay as they are. Each frame's wire decisions run
// here on the caller, in the order of ds — the send through its fault
// seam, the check that a torn prefix is rejected, the retrier's
// resends of the whole frame — as the exchange's only reads of the
// fault plan. Then every send, torn prefixes included, crosses the
// fabric as one round, and pool tasks decode the frames.
func cross[K comparable, V, W any](x *Exchange[K, V], ds []delivery[K, W], vc spill.Codec[W], pool exec.Executor) error {
	var flows []netsim.Flow
	var framed []int
	for i, d := range ds {
		if d.frame == nil {
			continue
		}
		err := x.retrier.Do(func() error {
			n, ferr := x.wires[d.src][d.dst].Send(len(d.frame))
			flows = append(flows, netsim.Flow{Src: d.src, Dst: d.dst, Bytes: int64(n)})
			x.Bytes += int64(n)
			if ferr != nil {
				// Only a prefix reaches the receiver: it must reject the
				// torn frame with a typed error, never accept it, and the
				// sender retries.
				if _, derr := DecodeFrame(d.frame[:n]); derr == nil {
					return fmt.Errorf("shuffle: torn frame to n%d accepted: %w", d.dst, ErrCorrupt)
				}
			}
			return ferr
		})
		if err != nil {
			return fmt.Errorf("shuffle: n%d->n%d: %w", d.src, d.dst, err)
		}
		framed = append(framed, i)
	}
	if err := x.fab.Round(flows); err != nil {
		return err
	}
	if _, err := pool.ForEach(taskLabel, metrics.StateUser, len(framed), func(i int) error {
		d := &ds[framed[i]]
		var err error
		if d.pairs, err = decodeRun(d.frame, d.src, d.dst, x.kc, vc); err != nil {
			return fmt.Errorf("shuffle: n%d->n%d: %w", d.src, d.dst, err)
		}
		return nil
	}); err != nil {
		return err
	}
	x.Frames += len(framed)
	return nil
}

// decodeRun verifies and decodes one received frame into its pairs, in
// the order they were framed. Header fields must match the link the
// frame arrived on. String keys are cut out of one string holding all
// the frame's key bytes, sized by a first pass over the records, not
// allocated one by one.
func decodeRun[K comparable, V any](frame []byte, src, dst int, kc spill.Codec[K], vc spill.Codec[V]) ([]kv.Pair[K, V], error) {
	f, err := DecodeFrame(frame)
	if err != nil {
		return nil, err
	}
	if f.Src != src || f.Part != dst {
		return nil, fmt.Errorf("%w: frame for n%d->n%d arrived on n%d->n%d", ErrCorrupt, f.Src, f.Part, src, dst)
	}
	var keys strings.Builder
	if kc.Str != nil {
		n := 0
		for p := f.Payload; len(p) > 0; {
			key, _, rest, err := ReadRecord(p)
			if err != nil {
				return nil, err
			}
			n, p = n+len(key), rest
		}
		keys.Grow(n)
	}
	run := make([]kv.Pair[K, V], 0, f.Records)
	for p := f.Payload; len(p) > 0; {
		key, val, rest, err := ReadRecord(p)
		if err != nil {
			return nil, err
		}
		var k K
		if kc.Str != nil {
			// The builder holds every key's bytes without regrowing, so
			// each view of it stays valid.
			at := keys.Len()
			keys.Write(key)
			k = kc.Str(keys.String()[at:])
		} else if k, err = kc.Decode(key); err != nil {
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
