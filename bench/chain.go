package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"supmr"
	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/egress"
	"supmr/internal/exec"
	"supmr/internal/jobspec"
	"supmr/internal/kv"
	"supmr/internal/mapreduce"
	"supmr/internal/memo"
	"supmr/internal/metrics"
	"supmr/internal/netsim"
	"supmr/internal/shuffle"
	"supmr/internal/sortalgo"
	"supmr/internal/spill"
	"supmr/internal/storage"
)

// The driver chain: the same input an end-to-end iteration ran, pushed
// through the layers' public functions one stage at a time — chunk,
// map, drain into the workload's run sink, reduce, run-sort, merge,
// digest, egress — serially, with one span per call and nothing
// overlapped. Its final output must have the reference digest, like
// every end-to-end run. The sum of the stage times on the workload's
// own path, set against the pipelined job time, shows what the core
// pipeline's overlap wins or what its glue loses.

// chainOut is what one chain run measures.
type chainOut struct {
	chunkNext, mapT, reduce, runsort       time.Duration
	mergePWay, mergePairwise, mergeSources time.Duration
	drain, spillWrite, spillRead           time.Duration
	memoPut, memoGet                       time.Duration
	shufPartition, shufEncode, shufDecode  time.Duration
	shufWire                               time.Duration // frames crossing the simulated links
	egressWrite, digest                    time.Duration
	path                                   time.Duration // stages on the workload's own path
	chunkBytes, mapBytes                   int64
	spillBytes, shufBytes, shufKeys        int64
	pairs, mergedPairs                     int64
	entries, sizeBytes                     int64 // container peak after a wave
	runs, sorts, radixRuns                 int   // sorts: run sorts done; radixRuns: those on the radix path
}

func (c *chainOut) add(o chainOut) {
	c.chunkNext += o.chunkNext
	c.mapT += o.mapT
	c.reduce += o.reduce
	c.runsort += o.runsort
	c.mergePWay += o.mergePWay
	c.mergePairwise += o.mergePairwise
	c.mergeSources += o.mergeSources
	c.drain += o.drain
	c.spillWrite += o.spillWrite
	c.spillRead += o.spillRead
	c.memoPut += o.memoPut
	c.memoGet += o.memoGet
	c.shufPartition += o.shufPartition
	c.shufEncode += o.shufEncode
	c.shufDecode += o.shufDecode
	c.shufWire += o.shufWire
	c.egressWrite += o.egressWrite
	c.digest += o.digest
	c.path += o.path
	c.chunkBytes += o.chunkBytes
	c.mapBytes += o.mapBytes
	c.spillBytes += o.spillBytes
	c.shufBytes += o.shufBytes
	c.shufKeys += o.shufKeys
	c.pairs += o.pairs
	c.mergedPairs += o.mergedPairs
	c.entries += o.entries
	c.sizeBytes += o.sizeBytes
	c.sorts += o.sorts
	c.radixRuns += o.radixRuns
}

// chainer carries one chain run's state.
type chainer[K comparable, V any] struct {
	j      *job[K, V]
	cfg    supmr.Config
	tr     *tracer
	parent int
	pool   *exec.Pool
	ro     mapreduce.Options
	fixed  *kv.FixedKeyCodec[K]
	frees  *chunk.FreeList
	c      chainOut
}

// stage times one call into a layer. Stages the workload's own pipeline
// also runs count towards the path total; comparison stages (the merge
// algorithm the workload does not use, the read-back of spilled runs)
// do not.
func (x *chainer[K, V]) stage(acc *time.Duration, onPath bool, name string, bytes int64, fn func() error) error {
	d, err := x.tr.timed(name, x.parent, bytes, fn)
	*acc += d
	if onPath {
		x.c.path += d
	}
	return err
}

// eachChunk streams f the way the pipeline would — same stream type,
// same multi-lane fetcher wiring as core.Run — and hands every chunk to
// fn. With timeNext the Next calls are the chunk stage.
func (x *chainer[K, V]) eachChunk(f supmr.Input, timeNext bool, fn func(n int, ch *chunk.Chunk) error) error {
	s, err := supmr.StreamFile(f, x.cfg)
	if err != nil {
		return err
	}
	if fa, ok := s.(chunk.FetcherAware); ok {
		var dispatch chunk.Dispatch
		if x.cfg.IOLanes > 1 {
			dispatch = func(n int64, wait func()) func() error {
				return x.pool.GoIOSized("ingest", metrics.StateIOWait, n, func() error { wait(); return nil }).Wait
			}
		}
		fa.SetFetcher(chunk.NewFetcherShared(max(x.cfg.IOLanes, 1), dispatch, x.frees))
	}
	for n := 0; ; n++ {
		var ch *chunk.Chunk
		next := func() (err error) { ch, err = s.Next(); return err }
		if timeNext {
			err = x.stage(&x.c.chunkNext, true, "chunk.next", 0, next)
		} else {
			err = next()
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		err = fn(n, ch)
		ch.Release()
		if err != nil {
			return err
		}
	}
}

func (x *chainer[K, V]) mapInto(cont container.Container[K, V], ch *chunk.Chunk) error {
	err := x.stage(&x.c.mapT, true, "mapreduce.mapwave", ch.Size(), func() error {
		_, err := mapreduce.MapWave(x.j.app, ch.Data, cont, x.ro)
		return err
	})
	x.c.mapBytes += ch.Size()
	x.c.entries = max(x.c.entries, int64(cont.Len()))
	x.c.sizeBytes = max(x.c.sizeBytes, cont.SizeBytes())
	return err
}

func (x *chainer[K, V]) drain(cont container.Container[K, V], label string) (run []kv.Pair[K, V], err error) {
	x.c.sorts += cont.Partitions() // a drain sorts every partition
	err = x.stage(&x.c.drain, true, "spill.draincontainer", 0, func() error {
		var nRad int
		run, nRad, err = spill.DrainContainer(cont, x.j.app.Less, x.j.app.Reduce, x.fixed, x.pool, label)
		x.c.radixRuns += nRad
		return err
	})
	return run, err
}

func (x *chainer[K, V]) mergeSources(srcs []sortalgo.Source[K, V], onPath bool) (out []kv.Pair[K, V], err error) {
	err = x.stage(&x.c.mergeSources, onPath, "sortalgo.mergesources", 0, func() error {
		out, err = sortalgo.MergeSources(srcs, x.j.app.Less, x.j.app.Reduce, nil)
		return err
	})
	return out, err
}

func sliceSources[K, V any](runs [][]kv.Pair[K, V]) []sortalgo.Source[K, V] {
	srcs := make([]sortalgo.Source[K, V], 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			srcs = append(srcs, sortalgo.NewSliceSource(r))
		}
	}
	return srcs
}

// viaSpill is the out-of-core sink: the container drains to a run on the
// spill store whenever it outgrows the budget. It returns one streaming
// source per spilled run; the residue stays in cont.
func (x *chainer[K, V]) viaSpill(f supmr.Input, cont container.Container[K, V], store *spill.Store) ([]sortalgo.Source[K, V], error) {
	sp, err := spill.NewSpiller(store, x.cfg.MemoryBudget, x.j.app)
	if err != nil {
		return nil, err
	}
	sp.SetFixedKey(x.fixed)
	err = x.eachChunk(f, false, func(_ int, ch *chunk.Chunk) error {
		if sp.Over(cont) {
			run, err := x.drain(cont, "spill")
			if err != nil {
				return err
			}
			if err := x.stage(&x.c.spillWrite, true, "spill.writerun", 0, func() error {
				sp.SpillAsync(run, x.pool)
				return sp.Join()
			}); err != nil {
				return err
			}
		}
		return x.mapInto(cont, ch)
	})
	if err != nil {
		return nil, err
	}
	x.c.spillBytes = sp.BytesSpilled()
	// Read every run back once on its own: the run codec's decode side,
	// apart from the merge that normally hides it.
	err = x.stage(&x.c.spillRead, false, "spill.readruns", x.c.spillBytes, func() error {
		for _, src := range sp.Sources() {
			for {
				_, ok, err := src.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
		}
		return nil
	})
	return sp.Sources(), err
}

// mapAndPut is the memo path's miss: map the chunk, drain the container
// to a run, publish the run under the chunk's content hash.
func (x *chainer[K, V]) mapAndPut(cache *memo.Cache[K, V], cont container.Container[K, V], ch *chunk.Chunk) ([]kv.Pair[K, V], error) {
	if err := x.mapInto(cont, ch); err != nil {
		return nil, err
	}
	run, err := x.drain(cont, "memo")
	if err != nil {
		return nil, err
	}
	return run, x.stage(&x.c.memoPut, true, "memo.put", ch.Size(), func() error {
		return cache.Put(cache.Key(ch.Sum), run)
	})
}

// viaMemo is the incremental sink: a private store is warmed with the
// previous iteration's input; then every chunk is looked up, hits
// replay and misses map, drain and publish.
func (x *chainer[K, V]) viaMemo(i int, f supmr.Input, cont container.Container[K, V], st *memo.Store) ([]sortalgo.Source[K, V], error) {
	cache, err := memo.NewCache[K, V](st, "chain")
	if err != nil {
		return nil, err
	}
	// The warm-up runs on a copy of the chainer with no tracer, so its
	// times and spans are not part of the measured chain.
	warm := *x
	warm.tr = nil
	prev, _ := x.j.input(i - 1)
	if err := warm.eachChunk(prev, false, func(_ int, ch *chunk.Chunk) error {
		_, err := warm.mapAndPut(cache, cont, ch)
		return err
	}); err != nil {
		return nil, err
	}
	var runs [][]kv.Pair[K, V]
	err = x.eachChunk(f, false, func(_ int, ch *chunk.Chunk) error {
		var (
			run []kv.Pair[K, V]
			hit bool
		)
		if err := x.stage(&x.c.memoGet, true, "memo.get", ch.Size(), func() (err error) {
			run, hit, err = cache.Get(cache.Key(ch.Sum))
			return err
		}); err != nil {
			return err
		}
		if !hit {
			var err error
			if run, err = x.mapAndPut(cache, cont, ch); err != nil {
				return err
			}
		}
		runs = append(runs, run)
		return nil
	})
	return sliceSources(runs), err
}

// viaNodes is the scale-out sink: chunks route round-robin to node
// containers that drain per chunk; each node combines its runs,
// partitions the pairs, frames the remote ones, and every destination
// decodes and merges what it received.
func (x *chainer[K, V]) viaNodes(f supmr.Input) ([]sortalgo.Source[K, V], error) {
	kc, err := spill.CodecFor[K]()
	if err != nil {
		return nil, err
	}
	vc, err := spill.CodecFor[V]()
	if err != nil {
		return nil, err
	}
	nodes := x.cfg.Nodes
	bw := x.cfg.NodeLinkBW
	if bw == 0 {
		bw = netsim.GigabitEthernet
	}
	fab, err := netsim.NewFabric(nodes, bw, x.cfg.NodeLinkLatency, clk)
	if err != nil {
		return nil, err
	}
	conts := make([]container.Container[K, V], nodes)
	for n := range conts {
		conts[n] = x.j.cont()
	}
	nodeRuns := make([][][]kv.Pair[K, V], nodes)
	if err := x.eachChunk(f, false, func(n int, ch *chunk.Chunk) error {
		node := n % nodes
		if err := x.mapInto(conts[node], ch); err != nil {
			return err
		}
		run, err := x.drain(conts[node], "shuffle")
		nodeRuns[node] = append(nodeRuns[node], run)
		return err
	}); err != nil {
		return nil, err
	}
	recv := make([][][]kv.Pair[K, V], nodes)
	var kbuf, vbuf []byte
	for src, runs := range nodeRuns {
		combined, err := x.mergeSources(sliceSources(runs), true)
		if err != nil {
			return nil, err
		}
		dsts := make([]uint8, len(combined))
		x.stage(&x.c.shufPartition, true, "shuffle.partitionof", 0, func() error {
			for p, pr := range combined {
				kbuf = kc.Append(kbuf[:0], pr.Key)
				dsts[p] = uint8(shuffle.PartitionOf(kbuf, nodes))
			}
			return nil
		})
		x.c.shufKeys += int64(len(combined))
		frames := make([][]byte, nodes)
		var local []kv.Pair[K, V]
		x.stage(&x.c.shufEncode, true, "shuffle.encodeframe", 0, func() error {
			payloads := make([][]byte, nodes)
			counts := make([]int, nodes)
			for p, pr := range combined {
				dst := int(dsts[p])
				if dst == src {
					local = append(local, pr)
					continue
				}
				kbuf = kc.Append(kbuf[:0], pr.Key)
				vbuf = vc.Append(vbuf[:0], pr.Val)
				payloads[dst] = shuffle.AppendRecord(payloads[dst], kbuf, vbuf)
				counts[dst]++
			}
			for dst, n := range counts {
				if n > 0 {
					frames[dst] = shuffle.EncodeFrame(nil, src, dst, n, payloads[dst])
					x.c.shufBytes += int64(len(frames[dst]))
				}
			}
			return nil
		})
		recv[src] = append(recv[src], local)
		if err := x.stage(&x.c.shufWire, true, "netsim.transfer", 0, func() error {
			for dst, fr := range frames {
				if fr != nil {
					if err := fab.Transfer(src, dst, int64(len(fr))); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := x.stage(&x.c.shufDecode, true, "shuffle.decodeframe", 0, func() error {
			for dst, fr := range frames {
				if fr == nil {
					continue
				}
				f, err := shuffle.DecodeFrame(fr)
				if err != nil {
					return err
				}
				run := make([]kv.Pair[K, V], 0, f.Records)
				for payload := f.Payload; len(payload) > 0; {
					kb, vb, rest, err := shuffle.ReadRecord(payload)
					if err != nil {
						return err
					}
					k, err := kc.Decode(kb)
					if err != nil {
						return err
					}
					v, err := vc.Decode(vb)
					if err != nil {
						return err
					}
					run = append(run, kv.Pair[K, V]{Key: k, Val: v})
					payload = rest
				}
				recv[dst] = append(recv[dst], run)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	outs := make([][]kv.Pair[K, V], nodes)
	for dst := range recv {
		if outs[dst], err = x.mergeSources(sliceSources(recv[dst]), true); err != nil {
			return nil, err
		}
	}
	return sliceSources(outs), nil
}

func (j *job[K, V]) chain(i int, tr *tracer, parent int) (chainOut, error) {
	cfg := j.cfg
	file, want := j.input(i)
	pool := exec.NewPool(nil, exec.Config{Workers: cfg.Workers, IOWorkers: max(cfg.IOLanes, cfg.EgressLanes), Now: clk.Now})
	defer pool.Close()
	boundary := cfg.Boundary
	if boundary == nil {
		boundary = supmr.NewlineRecords
	}
	x := &chainer[K, V]{j: j, cfg: cfg, tr: tr, parent: parent, pool: pool,
		ro:    mapreduce.Options{Boundary: boundary, Pool: pool},
		fixed: kv.FixedKeyOf[K, V](j.app), frees: chunk.NewFreeList()}
	c := &x.c
	less := j.app.Less
	fail := func(err error) (chainOut, error) { return *c, fmt.Errorf("%s chain: %w", j.label, err) }

	// Chunk: drain the stream with no map behind it.
	if err := x.eachChunk(file, true, func(_ int, ch *chunk.Chunk) error {
		c.chunkBytes += ch.Size()
		return nil
	}); err != nil {
		return fail(err)
	}

	// Map, with the workload's drain policy and run sink. sources is nil
	// for the plain in-memory pipeline.
	cont := j.cont()
	var (
		sources []sortalgo.Source[K, V]
		err     error
	)
	switch {
	case cfg.Nodes > 0:
		sources, err = x.viaNodes(file)
	case cfg.Memo:
		var st *memo.Store
		if st, err = memo.NewStore(memo.Config{Device: storage.NewNullDevice(clk), Budget: 1 << 30}); err == nil {
			defer st.Close()
			sources, err = x.viaMemo(i, file, cont, st)
		}
	case cfg.MemoryBudget > 0:
		var store *spill.Store
		if store, err = spill.NewStore(spill.StoreConfig{Device: cfg.SpillDevice}); err == nil {
			defer store.Close()
			sources, err = x.viaSpill(file, cont, store)
		}
	default:
		// The plain pipeline: every wave lands in one persistent container.
		err = x.eachChunk(file, false, func(_ int, ch *chunk.Chunk) error { return x.mapInto(cont, ch) })
	}
	if err != nil {
		return fail(err)
	}

	// Reduce and run-sort whatever the container still holds.
	var runs [][]kv.Pair[K, V]
	if cont.Len() > 0 {
		if err := x.stage(&c.reduce, true, "mapreduce.reducephase", 0, func() (err error) {
			runs, err = mapreduce.ReducePhase(j.app, cont, x.ro)
			return err
		}); err != nil {
			return fail(err)
		}
		if err := x.stage(&c.runsort, true, "sortalgo.sortruns", 0, func() error {
			n, err := sortalgo.SortRunsWith(runs, less, x.fixed, pool)
			c.sorts += len(runs)
			c.radixRuns += n
			return err
		}); err != nil {
			return fail(err)
		}
	}

	// Merge. Both in-memory algorithms run over the same sorted runs;
	// the p-way result is the output when nothing was drained, otherwise
	// one streaming pass over drained runs plus residue is.
	var final []kv.Pair[K, V]
	if len(runs) > 0 {
		var pway, pairwise []kv.Pair[K, V]
		if err := x.stage(&c.mergePWay, sources == nil, "sortalgo.merge.pway", 0, func() (err error) {
			pway, err = sortalgo.MergeWith(sortalgo.MergePWay, runs, less, x.fixed, pool)
			return err
		}); err != nil {
			return fail(err)
		}
		if err := x.stage(&c.mergePairwise, false, "sortalgo.merge.pairwise", 0, func() (err error) {
			pairwise, err = sortalgo.MergeWith(sortalgo.MergePairwise, runs, less, x.fixed, pool)
			return err
		}); err != nil {
			return fail(err)
		}
		c.mergedPairs = int64(len(pway))
		if digestPairs(pairwise) != digestPairs(pway) {
			return fail(errors.New("pairwise and p-way merges disagree"))
		}
		final = pway
	}
	if sources != nil || len(runs) > 0 {
		streamed, err := x.mergeSources(append(sources, sliceSources(runs)...), sources != nil)
		if err != nil {
			return fail(err)
		}
		if sources != nil {
			final = streamed
		} else if digestPairs(streamed) != digestPairs(final) {
			return fail(errors.New("streaming and p-way merges disagree"))
		}
	}
	c.pairs = int64(len(final))

	// Digest, with the repository's own digest function: the chain's
	// output must be the reference output.
	var got string
	x.stage(&c.digest, false, "jobspec.digest", 0, func() error {
		got = jobspec.Digest(final)
		return nil
	})
	if got != want {
		return fail(fmt.Errorf("output digest %.12s, want %.12s", got, want))
	}

	// Egress: write the pre-rendered output through the extent writer.
	if cfg.EgressLanes > 0 {
		rendered := renderPairs(final)
		var out *egress.Output
		if err := x.stage(&c.egressWrite, true, "egress.write", int64(len(rendered)), func() error {
			w, err := egress.NewWriter(egress.Config{Pool: pool, Lanes: cfg.EgressLanes,
				ExtentBytes: cfg.EgressExtentBytes, Device: cfg.EgressDevice, Clock: clk})
			if err != nil {
				return err
			}
			if _, err := w.Write(rendered); err != nil {
				return err
			}
			out, err = w.Close()
			return err
		}); err != nil {
			return fail(err)
		}
		defer out.Close()
		b, err := out.Bytes()
		if err != nil {
			return fail(err)
		}
		if got := digestBytes(b); got != want {
			return fail(fmt.Errorf("egressed bytes digest %.12s, want %.12s", got, want))
		}
	}
	return *c, nil
}
