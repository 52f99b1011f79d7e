package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"supmr"
	"supmr/internal/exec"
	"supmr/internal/metrics"
)

// The traced pass. End-to-end metrics are measured with tracing off;
// this separate pass gives the per-layer numbers from three sources,
// all on the benchmark's side of the layer boundaries:
//
//   - harvested: counters the program already exposes (Report.Stats,
//     Report.Times, EngineStats, device counters), read off the
//     median-duration traced iteration;
//   - chain: the driver chain of chain.go, timing calls into each
//     layer's public functions;
//   - variants: the same input under another configuration (traditional
//     runtime, memo off, single node, no engine), for the ratios.
//
// Traced iterations alternate with untraced ones so the overhead ratio
// compares like with like.

// phases are the Report.Times entries reported as phase.* metrics.
var phases = []struct {
	metric string
	phase  supmr.Phase
}{
	{"phase.readmap_s", metrics.PhaseReadMap},
	{"phase.spill_s", metrics.PhaseSpill},
	{"phase.memo_s", metrics.PhaseMemo},
	{"phase.shuffle_s", metrics.PhaseShuffle},
	{"phase.reduce_s", metrics.PhaseReduce},
	{"phase.runsort_s", metrics.PhaseRunSort},
	{"phase.merge_s", metrics.PhaseMerge},
	{"phase.egress_s", metrics.PhaseEgress},
}

// ioLabels are the executor task labels that run on IO lanes and mostly
// wait; everything else is compute.
var ioLabels = map[string]bool{"ingest": true, "egress": true}

// jobsOf lists the jobs of one iteration: the batch's submissions, or
// the iteration itself.
func jobsOf(out iterOut) []iterOut {
	if len(out.subs) > 0 {
		return out.subs
	}
	return []iterOut{out}
}

// recordSpans files one traced iteration: a root span for the timed
// region, a span per engine submission under it, and the phase
// intervals of each job (from the program's markers) under those.
func recordSpans(tr *tracer, out iterOut, bytes int64) {
	root := tr.add("job."+out.name, 0, out.start, out.start+out.dur, bytes, 0)
	tr.phaseSpans(root, out.markers)
	for _, sub := range out.subs {
		id := tr.add("sched.submission."+sub.name, root, sub.start, sub.start+sub.dur, 0, 0)
		tr.phaseSpans(id, sub.markers)
	}
}

func secs(d time.Duration) float64 { return d.Seconds() }

// execProbes times the executor's two primitives with nothing in them.
func execProbes() (foreachUS, goioUS float64) {
	pool := exec.NewPool(nil, exec.Config{Now: clk.Now})
	defer pool.Close()
	const tasks, trips = 20000, 2000
	start := time.Now()
	pool.ForEach("probe", metrics.StateUser, tasks, func(int) error { return nil })
	foreachUS = float64(time.Since(start).Microseconds()) / tasks
	start = time.Now()
	for k := 0; k < trips; k++ {
		pool.GoIO("probe", metrics.StateIOWait, func() error { return nil }).Wait()
	}
	goioUS = float64(time.Since(start).Microseconds()) / trips
	return foreachUS, goioUS
}

// tracedPass fills s.layers.
func tracedPass(s *wstate, p plan, tr *tracer) error {
	u, cfg := s.u, s.u.config()
	L := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		L[m.Name] = 0
	}
	s.layers = L

	var engBefore supmr.EngineStats
	if cfg.Engine != nil {
		engBefore = cfg.Engine.Stats()
	}
	var (
		base, traced []iterOut
		peak         uint64
	)
	for k := 0; k < p.tracedIters; k++ {
		if out := u.iterate(asDefined); s.count(out) {
			base = append(base, out)
		}
		tr.scope(s.w.name, k)
		heap := startHeapSampler()
		out := u.iterate(tracedRun)
		peak = max(peak, heap.stopPeak())
		if s.count(out) {
			traced = append(traced, out)
			recordSpans(tr, out, u.inputBytes())
		}
	}
	if len(base) == 0 || len(traced) == 0 {
		return fmt.Errorf("%s: traced pass: no iteration succeeded: %w", s.w.name, s.firstErr)
	}
	durs := func(outs []iterOut) []float64 {
		xs := make([]float64, len(outs))
		for k, o := range outs {
			xs[k] = secs(o.dur)
		}
		return xs
	}
	jobS := median(durs(base))
	sort.Slice(traced, func(i, j int) bool { return traced[i].dur < traced[j].dur })
	T := traced[len(traced)/2] // the median traced iteration: one coherent run
	jobs := jobsOf(T)
	L["trace.overhead_ratio"] = ratio(median(durs(traced)), jobS) - 1
	L["runtime.peak_heap_mb"] = float64(peak) / mib

	// Harvested counters, summed over the iteration's jobs.
	var (
		st             supmr.Stats
		rounds         int
		jobTime        time.Duration
		computeBusy    time.Duration
		mapQueueWait   time.Duration
		phaseTotal     time.Duration
		laneSkew       float64
		submissionSecs []float64
	)
	for _, j := range jobs {
		js := j.stats
		st.IngestStall += js.IngestStall
		st.PrefetchHits += js.PrefetchHits
		rounds += js.MapWaves + js.MemoHits
		st.SpilledRuns += js.SpilledRuns
		st.SpilledBytes += js.SpilledBytes
		st.MemoHits += js.MemoHits
		st.MemoMisses += js.MemoMisses
		st.ShuffleBytes += js.ShuffleBytes
		st.ShuffleBytesSaved += js.ShuffleBytesSaved
		st.ShuffleFrames += js.ShuffleFrames
		st.EgressBytes += js.EgressBytes
		st.EgressExtents += js.EgressExtents
		st.EgressBusy += js.EgressBusy
		st.EgressStall += js.EgressStall
		jobTime += j.dur
		for label, t := range js.Tasks {
			if !ioLabels[label] {
				computeBusy += t.Busy
			}
		}
		mapQueueWait += js.Tasks["map"].QueueWait
		if lanes := js.IngestLaneBytes; len(lanes) > 1 {
			var most, sum float64
			for _, n := range lanes {
				most, sum = max(most, float64(n)), sum+float64(n)
			}
			laneSkew = max(laneSkew, ratio(most, sum/float64(len(lanes))))
		}
		for _, ph := range phases {
			d := j.times.Get(ph.phase)
			L[ph.metric] += secs(d)
			phaseTotal += d
		}
	}
	for _, t := range traced {
		for _, sub := range t.subs {
			submissionSecs = append(submissionSecs, secs(sub.dur))
		}
	}
	// The root span of each job is the benchmark's own measurement of
	// the Run call; what the program's phase timers do not cover is
	// reported as its own line, so the phases always sum to the root.
	L["phase.unattributed_s"] = secs(jobTime - phaseTotal)
	L["chunk.stall_s"] = secs(st.IngestStall)
	L["chunk.prefetch_hit_ratio"] = ratio(float64(st.PrefetchHits), float64(rounds))
	L["chunk.lane_skew"] = laneSkew
	L["storage.ingest_read_mb"] = float64(T.io.ingestRead) / mib
	L["storage.ingest_busy_s"] = secs(T.io.busy)
	L["storage.ingest_util"] = ratio(secs(T.io.busy), secs(T.dur))
	L["storage.spill_write_mb"] = float64(T.io.spillWrite) / mib
	L["storage.spill_read_mb"] = float64(T.io.spillRead) / mib
	L["storage.egress_write_mb"] = float64(T.io.egressWrite) / mib
	L["spill.runs"] = float64(st.SpilledRuns)
	L["spill.bytes_mb"] = float64(st.SpilledBytes) / mib
	L["memo.hit_ratio"] = ratio(float64(st.MemoHits), float64(st.MemoHits+st.MemoMisses))
	L["shuffle.wire_mb"] = float64(st.ShuffleBytes) / mib
	L["shuffle.frames"] = float64(st.ShuffleFrames)
	L["shuffle.saved_mb"] = float64(st.ShuffleBytesSaved) / mib
	L["egress.stall_s"] = secs(st.EgressStall)
	L["egress.busy_s"] = secs(st.EgressBusy)
	L["egress.extents"] = float64(st.EgressExtents)
	L["egress.mb"] = float64(st.EgressBytes) / mib
	L["exec.map_queue_wait_s"] = secs(mapQueueWait)
	L["exec.worker_util"] = ratio(secs(computeBusy), float64(runtime.GOMAXPROCS(0))*secs(T.dur))

	// The driver chain.
	tr.scope(s.w.name, p.tracedIters)
	root := tr.open("chain."+s.w.name, 0)
	c, err := u.chain(tr, root)
	tr.close(root, c.chunkBytes, c.pairs)
	if !s.count(iterOut{err: err}) {
		return fmt.Errorf("%s: %w", s.w.name, err)
	}
	mibOf := func(n int64) float64 { return float64(n) / mib }
	L["chunk.next_s"] = secs(c.chunkNext)
	L["chunk.ingest_mbps"] = ratio(mibOf(c.chunkBytes), secs(c.chunkNext))
	if cfg.Memo { // the stream drained above was the content-defined chunker
		L["chunk.cdc_mbps"] = L["chunk.ingest_mbps"]
	}
	L["mapreduce.map_s"] = secs(c.mapT)
	L["mapreduce.map_mbps"] = ratio(mibOf(c.mapBytes), secs(c.mapT))
	L["mapreduce.reduce_s"] = secs(c.reduce)
	L["container.entries"] = float64(c.entries)
	L["container.size_mb"] = mibOf(c.sizeBytes)
	L["sortalgo.runsort_s"] = secs(c.runsort)
	L["sortalgo.radix_run_ratio"] = ratio(float64(c.radixRuns), float64(c.sorts))
	L["sortalgo.merge_pway_s"] = secs(c.mergePWay)
	L["sortalgo.merge_pairwise_s"] = secs(c.mergePairwise)
	L["sortalgo.pway_vs_pairwise"] = ratio(secs(c.mergePairwise), secs(c.mergePWay))
	L["sortalgo.merge_mpairs_per_s"] = ratio(float64(c.mergedPairs)/1e6, secs(c.mergePWay))
	L["sortalgo.merge_sources_s"] = secs(c.mergeSources)
	L["spill.drain_s"] = secs(c.drain)
	L["spill.encode_mbps"] = ratio(mibOf(c.spillBytes), secs(c.spillWrite))
	L["spill.decode_mbps"] = ratio(mibOf(c.spillBytes), secs(c.spillRead))
	L["memo.put_s"] = secs(c.memoPut)
	L["memo.get_s"] = secs(c.memoGet)
	L["shuffle.partition_mkeys_per_s"] = ratio(float64(c.shufKeys)/1e6, secs(c.shufPartition))
	L["shuffle.encode_mbps"] = ratio(mibOf(c.shufBytes), secs(c.shufEncode))
	L["shuffle.decode_mbps"] = ratio(mibOf(c.shufBytes), secs(c.shufDecode))
	L["egress.write_s"] = secs(c.egressWrite)
	L["egress.render_s"] = L["phase.egress_s"] - secs(c.egressWrite)
	L["jobspec.digest_mpairs_per_s"] = ratio(float64(c.pairs)/1e6, secs(c.digest))
	L["core.pipeline_gain"] = ratio(secs(c.path), jobS)
	// Each layer's share of the chain's path. Every on-path stage but the
	// merges has its own accumulator, so the merges are the remainder.
	shares := map[string]time.Duration{
		"chunk": c.chunkNext, "mapreduce.map": c.mapT, "mapreduce.reduce": c.reduce,
		"spill.drain": c.drain, "spill.write": c.spillWrite, "memo": c.memoPut + c.memoGet,
		"shuffle": c.shufPartition + c.shufEncode + c.shufWire + c.shufDecode, "sortalgo.runsort": c.runsort,
		"egress.write": c.egressWrite,
	}
	merges := c.path
	for _, d := range shares {
		merges -= d
	}
	shares["sortalgo.merge"] = merges
	for name, d := range shares {
		L["share."+name] = ratio(secs(d), secs(c.path))
	}
	L["exec.foreach_us_per_task"], L["exec.goio_us"] = execProbes()

	// Variants: the same input under another configuration.
	medianOf := func(v variant) float64 {
		var xs []float64
		for k := 0; k < p.variantRuns; k++ {
			if out := u.iterate(v); s.count(out) {
				xs = append(xs, secs(out.dur))
			}
		}
		return median(xs)
	}
	L["mapreduce.traditional_job_s"] = medianOf(traditional)
	L["mapreduce.supmr_speedup"] = ratio(L["mapreduce.traditional_job_s"], jobS)
	if cfg.Memo {
		L["memo.warm_vs_off"] = ratio(jobS, medianOf(memoOff))
	}
	if cfg.Nodes > 0 {
		L["shuffle.nodes_vs_single"] = ratio(jobS, medianOf(singleNode))
	}
	if eng := cfg.Engine; eng != nil {
		L["sched.batch_vs_solo"] = ratio(jobS, medianOf(soloRun))
		L["sched.job_latency_p50_s"] = median(submissionSecs)
		after := eng.Stats()
		L["sched.rejected"] = float64(after.Rejected)
		L["sched.chunk_reuse_ratio"] = ratio(float64(after.ChunkReuses-engBefore.ChunkReuses),
			float64(after.ChunkGets-engBefore.ChunkGets))
		var most, sum float64
		for name, t := range after.Tenants {
			busy := secs(t.Busy - engBefore.Tenants[name].Busy)
			most, sum = max(most, busy), sum+busy
		}
		L["sched.tenant_busy_skew"] = ratio(most, sum/float64(len(after.Tenants)))
	}
	return nil
}
