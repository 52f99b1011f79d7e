package shuffle

import (
	"fmt"
	"math"
	"slices"
	"time"

	"supmr/internal/container"
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
// busiest port's bytes rather than every node's; and each delivery —
// a frame, checked and replayed, or a node's own share — is folded
// into its destination's container in a task of its own, through
// Locals of at most 1024 records. Only the wire's fault decisions run on
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
// in any order) on pool, folding what node dst receives into into[dst].
// A node's blocks travel to each other node as one frame, or with
// CombinerOff one frame per block. What a node keeps is moved to the
// front of its blocks in place and emitted into its own container.
// Samples are drawn by content alone, so the wire does not depend on
// the order a container iterates in.
func (x *Exchange[K, V]) Run(nodeBlocks [][][]kv.Pair[K, V], less kv.Less[K], pool exec.Executor, into []container.Container[K, V]) error {
	// Every node with a sample sends it to every other such node, so
	// each holds all of them and derives the same splitters.
	own := make([][]K, len(nodeBlocks))
	payloads := make([][]byte, len(nodeBlocks))
	if _, err := pool.ForEach(taskLabel, metrics.StateUser, len(nodeBlocks), func(n int) error {
		own[n], payloads[n] = x.sample(nodeBlocks[n], less)
		return nil
	}); err != nil {
		return err
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
	// A sample frame is checked by replaying it into a sink that keeps
	// nothing: its keys are the sender's own.
	if err := cross(x, samples, keysOnly, pool, func(int) container.Local[K, []byte] { return spill.Discard[K, []byte]{} }); err != nil {
		return err
	}
	splitters := sortalgo.Splitters(slices.Concat(own...), x.top.Nodes, less)

	routed := make([][]delivery[K, V], len(nodeBlocks))
	if _, err := pool.ForEach(taskLabel, metrics.StateUser, len(nodeBlocks), func(src int) error {
		routed[src] = x.route(src, nodeBlocks[src], splitters, less)
		return nil
	}); err != nil {
		return err
	}
	return cross(x, slices.Concat(routed...), x.vc, pool, func(dst int) container.Local[K, V] { return into[dst].NewLocal() })
}

// delivery is what one destination gets from one source: a local share
// handed over in place (frame nil), or a frame to cross the fabric.
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
// the fabric, values in vc, and every delivery is replayed at its
// destination into Locals from sink, in pieces of at most piece
// records. Each frame's wire decisions run here on the caller, in the
// order of ds — the send through its fault seam, the check that a torn
// prefix is rejected, the retrier's resends of the whole frame — as the
// exchange's only reads of the fault plan. Then every send, torn
// prefixes included, crosses the fabric as one round, and each delivery
// is replayed in a pool task of its own.
func cross[K comparable, V, W any](x *Exchange[K, V], ds []delivery[K, W], vc spill.Codec[W], pool exec.Executor,
	sink func(dst int) container.Local[K, W]) error {
	var flows []netsim.Flow
	frames := 0
	for _, d := range ds {
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
		frames++
	}
	if err := x.fab.Round(flows); err != nil {
		return err
	}
	if _, err := pool.ForEach(taskLabel, metrics.StateUser, len(ds), func(i int) error {
		d := ds[i]
		if d.frame == nil {
			for p := range slices.Chunk(d.pairs, piece) {
				l := sink(d.dst)
				for _, e := range p {
					l.Emit(e.Key, e.Val)
				}
				l.Flush()
			}
			return nil
		}
		if err := receive(d, x.kc, vc, sink); err != nil {
			return fmt.Errorf("shuffle: n%d->n%d: %w", d.src, d.dst, err)
		}
		return nil
	}); err != nil {
		return err
	}
	x.Frames += frames
	return nil
}

// piece caps the records replayed through one Local: small pieces keep
// the Locals, which keep their storage, small.
const piece = 1024

// receive checks a frame that crossed d's link — its checksum, that its
// header names that link, and its record count — and replays its
// records in order into Locals from sink, at most piece to a Local.
func receive[K comparable, V any](d delivery[K, V], kc spill.Codec[K], vc spill.Codec[V], sink func(dst int) container.Local[K, V]) error {
	f, err := DecodeFrame(d.frame)
	if err != nil {
		return err
	}
	if f.Src != d.src || f.Part != d.dst {
		return fmt.Errorf("%w: frame for n%d->n%d arrived on n%d->n%d", ErrCorrupt, f.Src, f.Part, d.src, d.dst)
	}
	p, left := f.Payload, f.Records
	for len(p) > 0 && left > 0 {
		l := sink(d.dst)
		var n int
		n, p, err = spill.Replay(p, min(left, piece), kc, vc, l)
		l.Flush()
		if err != nil {
			return fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		left -= n
	}
	if left != 0 || len(p) > 0 {
		return fmt.Errorf("%w: the payload does not hold the %d records its header says", ErrCorrupt, f.Records)
	}
	return nil
}
