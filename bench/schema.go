package main

import "encoding/json"

// schemaVersion names the layout of the result file and the metric set.
const schemaVersion = 1

// runSeconds is how long one driver run measures.
const runSeconds = 10

// metricDef names one metric. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen before -compare (and
// the driver) call it a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the numbers a user of the system sees, per workload.
// Failures are reported beside them as attempted/failed counts (the
// contract's own fields) instead of a fail_ratio metric, which would
// always read zero.
//
// The time bounds are wider than the issue's 10-15 %: each is at least
// three times the widest A/A spread seen on this shared 2-core machine
// (README.md has the table), capped at the contract's 0.25. Quiet
// runs repeat to 1-7 %; the width absorbs minute-long noise bursts that
// slow every iteration of a run by 15-20 %.
var endToEnd = []metricDef{
	{"job_s", "s", "lower", 0.25},              // median wall time of one iteration, Run call to Report returned; egress inside, digest check outside
	{"job_p75_s", "s", "lower", 0.25},          // 75th percentile of the same samples; at least 40 are taken so ten lie beyond it
	{"input_mbps", "MiB/s", "higher", 0.25},    // workload input bytes over job_s: work per second at the stated input size
	{"alloc_mb_per_job", "MiB", "lower", 0.10}, // mean MemStats.TotalAlloc growth across one iteration's timed region
	{"setup_s", "s", "lower", 0.25},            // median of three set-ups: input generation, reference output, devices, engine or memo store, one verified warm-up run
}

// perLayer are the traced pass's numbers. Names are layer.metric; each
// layer is one package of the repository. A metric of a layer the
// workload does not use reads 0.
var perLayer = []metricDef{
	{"chunk.next_s", "s", "lower", 0},                  // chain: total time in Stream.Next draining the input with no map behind it
	{"chunk.ingest_mbps", "MiB/s", "higher", 0},        // chain: input bytes over chunk.next_s
	{"chunk.stall_s", "s", "lower", 0},                 // harvested Stats.IngestStall: map workers idle waiting for a chunk
	{"chunk.prefetch_hit_ratio", "ratio", "higher", 0}, // harvested: ingest rounds whose next chunk was already buffered
	{"chunk.lane_skew", "ratio", "lower", 0},           // harvested: max over mean of IngestLaneBytes (1 is even; 0 with one lane)
	{"chunk.cdc_mbps", "MiB/s", "higher", 0},           // chain: the same drain through the content-defined chunker with its SHA-256 (memo only)

	{"storage.ingest_read_mb", "MiB", "lower", 0},  // bytes the ingest role reserved on the device during one job
	{"storage.ingest_busy_s", "s", "lower", 0},     // device busy time during one job
	{"storage.ingest_util", "ratio", "higher", 0},  // device busy time over job time; at 1 software has nothing left to hide
	{"storage.spill_write_mb", "MiB", "lower", 0},  // bytes the spill role wrote
	{"storage.spill_read_mb", "MiB", "lower", 0},   // bytes the spill role read back
	{"storage.egress_write_mb", "MiB", "lower", 0}, // bytes the egress role wrote

	{"mapreduce.map_s", "s", "lower", 0},              // chain: total time in MapWave, one call per chunk
	{"mapreduce.map_mbps", "MiB/s", "higher", 0},      // chain: mapped bytes over mapreduce.map_s
	{"mapreduce.reduce_s", "s", "lower", 0},           // chain: ReducePhase over the container
	{"mapreduce.traditional_job_s", "s", "lower", 0},  // the same input on the traditional runtime (mapreduce.Run), median of 3
	{"mapreduce.supmr_speedup", "ratio", "higher", 0}, // traditional_job_s over job_s: the shape of the paper's Table II

	{"container.entries", "count", "lower", 0}, // chain: peak distinct entries held after a map wave
	{"container.size_mb", "MiB", "lower", 0},   // chain: peak SizeBytes after a map wave

	{"sortalgo.runsort_s", "s", "lower", 0},                  // chain: SortRunsWith over the reduced runs
	{"sortalgo.radix_run_ratio", "ratio", "higher", 0},       // chain: run sorts that took the radix path over run sorts done
	{"sortalgo.merge_pway_s", "s", "lower", 0},               // chain: MergeWith(p-way) over the sorted in-memory runs
	{"sortalgo.merge_pairwise_s", "s", "lower", 0},           // chain: MergeWith(pairwise) over the same runs
	{"sortalgo.pway_vs_pairwise", "ratio", "higher", 0},      // merge_pairwise_s over merge_pway_s; above 1 the p-way merge wins
	{"sortalgo.merge_mpairs_per_s", "Mpairs/s", "higher", 0}, // pairs merged over merge_pway_s
	{"sortalgo.merge_sources_s", "s", "lower", 0},            // chain: total time in MergeSources, the streaming re-reducing merge

	{"spill.drain_s", "s", "lower", 0},          // chain: total time in DrainContainer
	{"spill.encode_mbps", "MiB/s", "higher", 0}, // chain: run bytes over time writing runs through the store
	{"spill.decode_mbps", "MiB/s", "higher", 0}, // chain: run bytes over time reading every run back
	{"spill.runs", "count", "lower", 0},         // harvested Stats.SpilledRuns
	{"spill.bytes_mb", "MiB", "lower", 0},       // harvested Stats.SpilledBytes

	{"memo.put_s", "s", "lower", 0},           // chain: total time in Cache.Put on a warm store (misses only)
	{"memo.get_s", "s", "lower", 0},           // chain: total time in Cache.Get, one call per chunk
	{"memo.hit_ratio", "ratio", "higher", 0},  // harvested: MemoHits over hits plus misses
	{"memo.warm_vs_off", "ratio", "lower", 0}, // job_s over the same input with Memo off; the target is below 1

	{"shuffle.partition_mkeys_per_s", "Mkeys/s", "higher", 0}, // chain: keys encoded and passed to PartitionOf per second
	{"shuffle.encode_mbps", "MiB/s", "higher", 0},             // chain: framed bytes over time in AppendRecord and EncodeFrame
	{"shuffle.decode_mbps", "MiB/s", "higher", 0},             // chain: framed bytes over time in DecodeFrame and ReadRecord
	{"shuffle.wire_mb", "MiB", "lower", 0},                    // harvested Stats.ShuffleBytes
	{"shuffle.frames", "count", "lower", 0},                   // harvested Stats.ShuffleFrames
	{"shuffle.saved_mb", "MiB", "higher", 0},                  // harvested Stats.ShuffleBytesSaved, what the in-node combiner kept off the wire
	{"shuffle.nodes_vs_single", "ratio", "lower", 0},          // job_s over the same input with Nodes=0

	{"egress.write_s", "s", "lower", 0},                      // chain: NewWriter, Write, Close over pre-rendered output
	{"egress.render_s", "s", "lower", 0},                     // harvested egress phase minus egress.write_s: the per-pair rendering tail
	{"egress.stall_s", "s", "lower", 0},                      // harvested Stats.EgressStall
	{"egress.busy_s", "s", "lower", 0},                       // harvested Stats.EgressBusy
	{"egress.extents", "count", "lower", 0},                  // harvested Stats.EgressExtents
	{"egress.mb", "MiB", "lower", 0},                         // harvested Stats.EgressBytes
	{"jobspec.digest_mpairs_per_s", "Mpairs/s", "higher", 0}, // chain: output pairs over time in jobspec.Digest

	{"exec.foreach_us_per_task", "us", "lower", 0}, // probe: ForEach over empty tasks, per task
	{"exec.goio_us", "us", "lower", 0},             // probe: GoIO submit-to-Wait round trip
	{"exec.map_queue_wait_s", "s", "lower", 0},     // harvested Stats.Tasks[map].QueueWait
	{"exec.worker_util", "ratio", "higher", 0},     // harvested compute-task busy time over workers times job time

	{"sched.job_latency_p50_s", "s", "lower", 0},      // median submission latency inside the batch (engine only)
	{"sched.tenant_busy_skew", "ratio", "lower", 0},   // max over mean of the tenants' busy time (engine only)
	{"sched.chunk_reuse_ratio", "ratio", "higher", 0}, // shared freelist reuses over acquisitions (engine only)
	{"sched.rejected", "count", "lower", 0},           // EngineStats.Rejected (engine only)
	{"sched.batch_vs_solo", "ratio", "lower", 0},      // batch job_s over the same submissions run one after another without the engine

	{"phase.readmap_s", "s", "lower", 0},         // harvested Report.Times of the median traced iteration
	{"phase.spill_s", "s", "lower", 0},           // same
	{"phase.memo_s", "s", "lower", 0},            // same
	{"phase.shuffle_s", "s", "lower", 0},         // same
	{"phase.reduce_s", "s", "lower", 0},          // same
	{"phase.runsort_s", "s", "lower", 0},         // same
	{"phase.merge_s", "s", "lower", 0},           // same
	{"phase.egress_s", "s", "lower", 0},          // same
	{"phase.unattributed_s", "s", "lower", 0},    // root span minus the phases above: time the phase timers do not see
	{"core.pipeline_gain", "ratio", "higher", 0}, // chain stage times on the workload's path over job_s; above 1 overlap won, below 1 glue lost

	{"runtime.peak_heap_mb", "MiB", "lower", 0},   // peak live heap objects, sampled every 5 ms during traced iterations
	{"trace.overhead_ratio", "ratio", "lower", 0}, // traced over untraced job time, minus 1
}

// benchmarkJSON renders the contract file from the tables above.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}
