package shuffle

import (
	"fmt"
	"slices"
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

// Exchange is the scale-out tail of the pipeline: the p-way merge with
// nodes for workers. The ingest loop hands it each node's key-sorted
// runs — its container's one drain, or one per chunk with the in-node
// combiner ablated; Run then executes
//
//	shuffle: nodes holding runs swap keys-only sample frames and all
//	         derive the same Nodes-1 splitters; each run is cut once at
//	         them and slice n travels to node n as a checksummed frame
//	         over the fabric, the local slice bypassing the wire
//	reduce:  each node merges its slices in one re-reducing streaming
//	         pass over the merge tree
//
// Node n reduces the n-th key range, so the node outputs laid end to
// end are the sorted result, byte-identical to a single-node run.
type Exchange[K comparable, V any] struct {
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

// Counters are what one exchange measured.
type Counters struct {
	Bytes      int64         // framed bytes that crossed the links, retries included
	Frames     int           // frames delivered between nodes, sample frames included
	Runs       int           // runs the destination merges consumed
	ReduceBusy time.Duration // aggregate worker-busy time of the destination merges
}

// Run exchanges nodeRuns (nodeRuns[n]: node n's key-sorted local runs)
// and returns the globally sorted output and the exchange's counters,
// bracketing the shuffle and reduce phases on timer.
func (x *Exchange[K, V]) Run(app kv.App[K, V], nodeRuns [][][]kv.Pair[K, V], pool exec.Executor, timer *metrics.Timer) ([]kv.Pair[K, V], Counters, error) {
	var c Counters
	timer.StartPhase(metrics.PhaseShuffle)
	recv, err := x.transfer(nodeRuns, app.Less, &c)
	timer.EndPhase(metrics.PhaseShuffle)
	if err != nil {
		return nil, c, err
	}

	// The reduce tier: every destination merges what it received.
	outs := make([][]kv.Pair[K, V], len(recv))
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
	return slices.Concat(outs...), c, nil
}

// transfer is the sample exchange, then the data exchange, visiting
// wires src → run → dst. It returns recv[dst]: the runs to merge at
// dst, in arrival order.
func (x *Exchange[K, V]) transfer(nodeRuns [][][]kv.Pair[K, V], less kv.Less[K], c *Counters) ([][][]kv.Pair[K, V], error) {
	// A node's sample is its runs' sample cut to at most SamplesPerRun
	// keys. Every node holding runs sends it to every other such node, so
	// each holds all of them and derives the same splitters.
	own := make([][]kv.Pair[K, []byte], len(nodeRuns))
	var samples []K
	for n, runs := range nodeRuns {
		s := sortalgo.Sample(runs)
		for _, k := range sortalgo.Splitters(s, min(len(s), sortalgo.SamplesPerRun)+1, less) {
			own[n] = append(own[n], kv.Pair[K, []byte]{Key: k})
			samples = append(samples, k)
		}
	}
	for src := range own {
		for dst := range own {
			if dst != src && len(own[src]) > 0 && len(own[dst]) > 0 {
				if _, err := ship(x, src, dst, own[src], keysOnly, c); err != nil {
					return nil, err
				}
			}
		}
	}
	splitters := sortalgo.Splitters(samples, x.top.Nodes, less)

	recv := make([][][]kv.Pair[K, V], x.top.Nodes)
	for src, runs := range nodeRuns {
		for _, run := range runs {
			cut := sortalgo.Cut(run, splitters, less)
			for dst := range recv {
				slice := run[cut[dst]:cut[dst+1]]
				if len(slice) == 0 {
					continue
				}
				if dst != src {
					var err error
					if slice, err = ship(x, src, dst, slice, x.vc, c); err != nil {
						return nil, err
					}
				}
				recv[dst] = append(recv[dst], slice)
				c.Runs++
			}
		}
	}
	return recv, nil
}

// keysOnly encodes a sample frame's values: empty, so its records carry
// keys alone. The []byte codec always resolves.
var keysOnly, _ = spill.CodecFor[[]byte]()

// ship frames pairs, keys by x's key codec and values by vc, sends the
// frame from src to dst, resending torn transfers, and returns the
// pairs as dst decoded them.
func ship[K comparable, V, W any](x *Exchange[K, V], src, dst int, pairs []kv.Pair[K, W], vc spill.Codec[W], c *Counters) ([]kv.Pair[K, W], error) {
	var payload, kbuf, vbuf []byte
	for _, p := range pairs {
		kbuf, vbuf = x.kc.Append(kbuf[:0], p.Key), vc.Append(vbuf[:0], p.Val)
		payload = AppendRecord(payload, kbuf, vbuf)
	}
	frame := EncodeFrame(nil, src, dst, len(pairs), payload)
	var got []kv.Pair[K, W]
	err := x.retrier.Do(func() error {
		n, ferr := x.wires[src][dst].Send(len(frame))
		if terr := x.fab.Transfer(src, dst, int64(n)); terr != nil {
			return terr
		}
		c.Bytes += int64(n)
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
			c.Frames++
		}
		return derr
	})
	if err != nil {
		return nil, fmt.Errorf("shuffle: n%d->n%d: %w", src, dst, err)
	}
	return got, nil
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
