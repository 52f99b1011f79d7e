package shuffle

import (
	"fmt"
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
	// persistent container, drained once into the node's one run): the
	// container is drained after every chunk and each per-chunk run is
	// transmitted as drained. The destination merge re-reduces either
	// way, so output bytes are identical — only wire traffic changes.
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

// Exchange is the scale-out tail of the pipeline. The ingest loop hands
// it each node's key-sorted runs — its container's one drain, or one
// per chunk with the in-node combiner ablated; Run then executes
//
//	shuffle: runs are hash-partitioned by encoded key; partition p is
//	         owned by node p; remote slices travel as checksummed frames
//	         over per-node fabric links, local slices bypass the wire
//	reduce:  each node merges its received + local slices in one
//	         re-reducing streaming pass over the merge tree
//	merge:   node outputs hold disjoint keys; one p-way interleave
//	         produces the globally sorted result
//
// Output is byte-identical to a single-node run: hash partitioning
// keeps each key on one node and the destination merge re-reduces under
// the standing associative-combiner contract.
type Exchange[K comparable, V any] struct {
	top     Topology
	kc      spill.Codec[K]
	vc      spill.Codec[V]
	fixed   *kv.FixedKeyCodec[K]
	fab     *netsim.Fabric
	wires   [][]*faults.Wire
	retrier *faults.Retrier
}

// NewExchange builds the fabric and arms the wire fault seams, failing
// up front when the key or value type has no wire codec. retrier (may
// be nil) resends torn frames; fixed (may be nil) serves the assembly.
func NewExchange[K comparable, V any](top Topology, retrier *faults.Retrier, fixed *kv.FixedKeyCodec[K]) (*Exchange[K, V], error) {
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
	return &Exchange[K, V]{top: top, kc: kc, vc: vc, fixed: fixed, fab: fab, wires: wires, retrier: retrier}, nil
}

// Counters are what one exchange measured.
type Counters struct {
	Bytes      int64         // framed bytes that crossed the links, retries included
	Frames     int           // frames delivered between nodes
	Runs       int           // runs the destination merges consumed
	ReduceBusy time.Duration // aggregate worker-busy time of the destination merges
}

// Run exchanges nodeRuns (nodeRuns[n]: node n's key-sorted local runs)
// and returns the globally sorted output and the exchange's counters,
// bracketing the shuffle, reduce and merge phases on timer.
func (x *Exchange[K, V]) Run(app kv.App[K, V], nodeRuns [][][]kv.Pair[K, V], pool exec.Executor, timer *metrics.Timer) ([]kv.Pair[K, V], Counters, error) {
	var c Counters
	timer.StartPhase(metrics.PhaseShuffle)
	recv, err := x.transfer(nodeRuns, &c)
	timer.EndPhase(metrics.PhaseShuffle)
	if err != nil {
		return nil, c, err
	}

	// The reduce tier: every destination merges what it received.
	outs := make([][]kv.Pair[K, V], len(recv))
	for dst := range recv {
		c.Runs += len(recv[dst])
	}
	timer.StartPhase(metrics.PhaseReduce)
	c.ReduceBusy, err = pool.ForEach("reduce", metrics.StateUser, len(recv), func(dst int) error {
		var mErr error
		outs[dst], mErr = sortalgo.MergeRuns(recv[dst], app.Less, app.Reduce, true)
		return mErr
	})
	timer.EndPhase(metrics.PhaseReduce)
	if err != nil {
		return nil, c, err
	}

	// Global assembly: partitions hold disjoint keys; nothing to reduce.
	timer.StartPhase(metrics.PhaseMerge)
	merged, err := sortalgo.PWayMergeWith(outs, app.Less, x.fixed, pool)
	timer.EndPhase(metrics.PhaseMerge)
	return merged, c, err
}

// transfer is the partition + framed exchange, visiting wires
// src → run → dst. It returns recv[dst]: the runs to merge at dst, in
// arrival order.
func (x *Exchange[K, V]) transfer(nodeRuns [][][]kv.Pair[K, V], c *Counters) ([][][]kv.Pair[K, V], error) {
	nodes := x.top.Nodes
	recv := make([][][]kv.Pair[K, V], nodes)
	var kbuf, vbuf []byte
	for src, runs := range nodeRuns {
		for _, run := range runs {
			// Split the sorted run into per-destination sub-runs: a
			// subsequence of a sorted run stays sorted.
			payloads := make([][]byte, nodes)
			counts := make([]int, nodes)
			var local []kv.Pair[K, V]
			for _, p := range run {
				kbuf = x.kc.Append(kbuf[:0], p.Key)
				dst := PartitionOf(kbuf, nodes)
				if dst == src {
					local = append(local, p)
					continue
				}
				vbuf = x.vc.Append(vbuf[:0], p.Val)
				payloads[dst] = AppendRecord(payloads[dst], kbuf, vbuf)
				counts[dst]++
			}
			if len(local) > 0 {
				recv[src] = append(recv[src], local)
			}
			for dst := 0; dst < nodes; dst++ {
				if counts[dst] == 0 {
					continue
				}
				frame := EncodeFrame(nil, src, dst, counts[dst], payloads[dst])
				send := func() error {
					n, ferr := x.wires[src][dst].Send(len(frame))
					if terr := x.fab.Transfer(src, dst, int64(n)); terr != nil {
						return terr
					}
					c.Bytes += int64(n)
					if ferr != nil {
						// Only a prefix reached the receiver: it must
						// reject the torn frame with a typed error,
						// never accept it, and the sender retries.
						if _, derr := DecodeFrame(frame[:n]); derr == nil {
							return fmt.Errorf("shuffle: torn frame to n%d accepted: %w", dst, ErrCorrupt)
						}
						return ferr
					}
					run, derr := decodeRun(frame, src, dst, x.kc, x.vc)
					if derr != nil {
						return derr
					}
					recv[dst] = append(recv[dst], run)
					c.Frames++
					return nil
				}
				if err := x.retrier.Do(send); err != nil {
					return nil, fmt.Errorf("shuffle: n%d->n%d: %w", src, dst, err)
				}
			}
		}
	}
	return recv, nil
}

// decodeRun verifies and decodes one received frame into a key-sorted
// run. Header fields must match the link the frame arrived on.
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
