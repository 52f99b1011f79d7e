#!/usr/bin/env bash
# CI gate. Every assertion is a Go test or a runnable example; this
# script only decides which run in which mode — tier-1, the bench
# module, the examples, everything again under the race detector, the
# re-runs and repeats that add coverage
# beyond that, and a time-boxed fuzz of every decoder. Nothing here
# parses a result: a stanza passes when its `go` command exits 0.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet, build, test (tier-1) =="
go vet ./...
go build ./...
go test ./...

echo "== bench module vet + short tests =="
# bench/ is its own module importing the internals, outside ./... above:
# a PR that restructures those internals must not leave the benchmark
# uncompilable.
(cd bench && go vet ./... && go test -short ./...)

echo "== flat combiner micro-benchmarks, one iteration =="
# BenchmarkFlatFold and BenchmarkFlatFlush are where a change to the flat
# table's probe or flush is measured first; one iteration each keeps
# them compiling and running.
go test -run '^$' -bench Flat -benchtime 1x ./internal/container

echo "== examples =="
# The examples are the API's documentation: each must build and run to a
# zero exit, so a change to what a Config means cannot leave one broken.
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done

echo "== go test -race =="
# The root suite carries the chaos, differential, ablation, memo, engine
# and gate tests. cmd/supmr and cmd/supmrd re-exec their own test binary
# as the command, so every CLI run, `supmr submit` and daemon smoke in
# their tests is a race-built process.
go test -race -count=1 ./...

echo "== race: chaos + differential with striped ingest =="
# 4 IO lanes and 3 reads in flight must not change a single output
# byte or fault counter — striping may only change when bytes arrive,
# never which bytes.
SUPMR_IO_LANES=4 SUPMR_PREFETCH_DEPTH=3 \
    go test -race -count=1 -run 'TestChaos|TestDifferential' .

echo "== race: reads in flight =="
# The pump keeps up to PrefetchDepth chunk reads in flight on the IO
# lanes, under the nominal, the content-defined, the file-boundary and
# the whole-input cut, each lane's share of a read as several requests
# waited by one lane task; every way a job can end early, on every
# stream shape, must join them all and hand every buffer back, and
# neither the read nor the request schedule may depend on wait timing.
# A whole-input read fans out over the lanes like any other. Faults and
# retries inside a lane's requests must leave the output and the fault
# counters unchanged.
go test -race -count=3 -run 'TestPrefetchRingDrainsOnMidStreamError|TestReadAheadSchedule|TestLaneRequestSchedule|TestWholeInputFansOutOverIOLanes' ./internal/core/
go test -race -count=3 -run 'TestChaosLaneRequests' .

echo "== race: egress inside the finish =="
# Egress runs inside core.Run, as the finish's last phase, on the job's
# pool: its extent writes share the IO lanes ingest used, and its lane
# bytes are read from the job's record by their "egress" label, so the
# egress tests repeat under the detector.
go test -race -count=3 -run 'TestEgress' .

echo "== race: out-of-core repeats =="
# The out-of-core finish shares state across goroutines by design — the
# grouped drain, run blocks decoded a block ahead on the IO lanes, reads
# joined on failure — so its tests repeat under the detector, and the
# budgeted differential and spill chaos determinism run with them. The
# p-way merge's per-range trees run concurrently on pooled prefix
# scratch, so the tree's table and the parallel merges repeat too.
go test -race -count=10 -run 'TestMergeAhead|TestMergeJoins|TestDrainContainer|TestRunRecordCount|TestBlockMerge|TestMergeTree|TestPWayMerge|TestMergesAgree' \
    ./internal/spill/ ./internal/sortalgo/
go test -race -count=2 -run 'TestBudgetedDigestIdentical|TestChaosSpillDeterministic' .

echo "== race: scatter finish repeats =="
# The fixed-key finish writes one shared output array and two shared row
# arenas from parallel tasks at disjoint offsets: the encode fills the
# first arena, the scatter the output and the second, and the bucket
# sorts reorder disjoint ranges of both. The scatter's tests and fuzz
# seeds, the prefix codec's tie guard and the radix ablations repeat
# under the detector.
go test -race -count=3 -run 'TestScatterSort|FuzzScatterSort|TestPrefixTieGuard|TestRadixAblation' ./internal/sortalgo/ .

echo "== race: memo store repeats =="
# A memo store is an index over a spill run store and shares its lock:
# concurrent Puts, Gets, evictions and releases on one store, and one
# store shared by concurrent engine submissions, repeat under the
# detector. A memoized run folds each chunk's output on the compute
# workers from a helper goroutine while the loop looks up the next
# chunk, so the fold matrix, the faulted and failing warm runs and the
# fold's overlap repeat too.
go test -race -count=5 -run 'TestStoreConcurrent' ./internal/memo/
go test -race -count=5 -run 'TestMemoEngineSharedAcrossSubmissions' .
go test -race -count=3 -run 'TestMemoFoldMatrix|TestMemoFaultedWarmRunRecomputes|TestMemoMapPanicWithParkedPayloads|TestMemoFoldFailsMidRun' .
go test -race -count=3 -run 'TestMemoFoldBehindLookups' ./internal/core/

echo "== race: node-container repeats =="
# A multi-node run's node containers are flushed into by every map
# worker, reduced by partition tasks and, at each destination, refilled
# by the exchange's tasks, one per delivery, each replaying its frame or
# its node's own share through Locals of its own — the sharing pattern
# the repeats above exist for — so the multi-node suites repeat under
# the detector, with the exchange's own tests. The exchange samples,
# frames and replays in pool tasks while its wire decisions stay on the
# caller: the shuffle
# chaos sweep, which runs every faulted configuration twice and compares
# the fault counters, repeats too, and the exchange's tests
# (TestExchangeDecisionOrder logs every send through an unlocked
# recorder) run on pools of one, two and four workers.
go test -race -count=2 -run 'TestDifferentialMultiNode|TestMultiNodeCompositions|TestInNodeCombiner|TestMultiNodeWirePinned|TestMultiNodeSortsOnce|TestMultiNodeDrainsOncePerNode|TestMultiNodeWireOrderFree|TestMultiNodeEdges|TestMultiNodeMemoColdWarmAppend|TestChaosShuffleMidJobFailures' .
go test -race -count=2 -run 'TestChaosShuffle' .
go test -race -count=2 -run 'TestNodeContainersRouteAndDrainOnce' ./internal/core/
go test -race -count=2 -run 'TestExchangeDecisionOrder|TestExchangeFramesInPlace|TestExchange|FuzzExchange|TestReceiveRejectsMisroutedFrame|TestReceivedKeysOwnTheirBytes|TestReceiveRecordCountMismatch' ./internal/shuffle/

echo "== race: link flow-set repeats =="
# A link is one processor-sharing flow set shared by every lane and
# sender that crosses it: joins, departures and waits on that set, the
# fabric's rounds (every flow joins its two ports at one instant) and
# the HDFS access ports repeat under the detector.
go test -race -count=5 -run 'TestLink|TestFabric|TestTopology|TestAccessPort' ./internal/netsim/ ./internal/hdfs/

echo "== race: per-job span repeats =="
# Every ForEach slot and GoIO task, phase boundary and event is logged
# in the submitting job's record while a shared engine pool runs other
# jobs' work, and each run reads its own window of that record, so the
# span, window and marker tests repeat under the detector.
go test -race -count=10 -run 'TestSpansPerSlotAndTask|TestRecordWindow|TestRecordMarkers' ./internal/exec/
go test -race -count=10 -run 'TestJobPoolSpansExcludeSiblings' ./internal/sched/
go test -race -count=3 -run 'TestRunReadsItsOwnWindow' ./internal/core/
go test -race -count=3 -run 'TestEngineTracesArePerJob|TestTraceRootedAtJobStart|TestEnginePhasesPerJob|TestPhaseMarkerOrderPinned|TestIntegrationTraceMarkers' .

echo "== race: server shutdown =="
# Close shuts every connection's read side while handlers may be idle,
# mid-request or blocked in a wait, and an oversized request is answered
# before its connection closes, an answer the client reads after its
# write fails; a submitted pipeline graph runs its rounds on the shared
# engine from a job goroutine; all repeat under the detector.
go test -race -count=3 -run 'TestClose|TestOversized|TestClientSeesOversizedLimit|TestServerTypedRejections' ./internal/server/

echo "== race: capped engine submissions =="
# An iterative driver submits one job per iteration to a shared engine
# and a capped submission runs on fewer workers than the pool has, so
# the driver's cancel path and the width cap repeat under the detector.
go test -race -count=3 -run 'TestKMeansOnEngine|TestJobPoolWorkersCap' . ./internal/sched/

FUZZTIME=${FUZZTIME:-3s}
echo "== fuzz ($FUZZTIME per target) =="
# Every target that parses stored or wire bytes, or checks a merge, a
# scan, a combiner or a link schedule against its reference: arbitrary
# input must end in a typed error or the reference answer, never a
# panic. A crasher lands in the package's testdata/fuzz/ — fix it and
# commit the file as a seed. memo:FuzzCacheReplay fuzzes spill.Replay,
# the one record replay, so it covers the shuffle's receive path too;
# jobspec:FuzzSpecValidate validates the specs and graphs a supmrd
# submission decodes.
for target in \
    kv:FuzzScanWordsVsReference \
    chunk:FuzzInterFileVsReference \
    chunk:FuzzCDCVsReference \
    chunk:FuzzFilesVsReference \
    chunk:FuzzLaneRequestsVsSerial \
    container:FuzzFlatCombiner \
    memo:FuzzCacheReplay \
    netsim:FuzzLinkVsReference \
    spill:FuzzRecordCut \
    spill:FuzzRunDecode \
    spill:FuzzBlockDecode \
    shuffle:FuzzDecodeFrame \
    shuffle:FuzzReadRecord \
    shuffle:FuzzExchangeRoutes \
    jobspec:FuzzSpecValidate \
    cdc:FuzzBoundaryStability \
    sortalgo:FuzzBlockMergeVsReference \
    sortalgo:FuzzMergeTreesVsReference \
    sortalgo:FuzzRadixVsReference \
    sortalgo:FuzzScatterSortVsReference; do
    go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime="$FUZZTIME" "./internal/${target%%:*}/"
done

echo "CI OK"
