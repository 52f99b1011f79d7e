#!/usr/bin/env bash
# CI gate: formatting, vet, build, full test suite, and race-detector
# coverage of the concurrent runtime packages, ending with a short
# race-mode SupMR pipeline run end to end.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== bench module vet + short tests =="
# bench/ is its own module importing the internals, outside ./... above:
# a PR that restructures those internals must not leave the benchmark
# uncompilable.
(cd bench && go vet ./... && go test -short ./...)

echo "== go test -race (runtime packages) =="
go test -race -count=1 \
    ./internal/exec/ \
    ./internal/mapreduce/ \
    ./internal/core/ \
    ./internal/container/ \
    ./internal/sortalgo/ \
    ./internal/spill/ \
    ./internal/cdc/ \
    ./internal/memo/ \
    ./internal/faults/ \
    ./internal/apps/ \
    ./internal/sched/ \
    ./internal/server/ \
    ./internal/egress/ \
    ./internal/dag/ \
    .

echo "== race-mode chaos gate =="
# The fault-injection invariant under the race detector: every seeded
# plan either recovers to byte-identical output or fails with a wrapped
# injected error, without leaking goroutines.
go test -race -count=1 -run 'TestChaos' .

echo "== race-mode multi-lane chaos gate =="
# The same chaos and differential invariants with the striped ingest
# path switched on: 4 IO lanes and a depth-3 prefetch ring must not
# change a single output byte or fault counter — striping may only
# change when bytes arrive, never which bytes.
SUPMR_IO_LANES=4 SUPMR_PREFETCH_DEPTH=3 \
    go test -race -count=1 -run 'TestChaos|TestDifferential' .

echo "== race-mode multi-node shuffle gate =="
# The scale-out invariant under the race detector: every app on 1/2/4
# simulated nodes, with the in-node combiner on and off, must produce
# output byte-identical to the single-node pipeline (TestDifferential-
# MultiNode, TestMultiNode*), and seeded wire chaos — latency spikes and
# torn frame transfers — must either recover via whole-frame resends or
# fail with a wrapped injected error, leaking nothing (TestChaosShuffle).
go test -race -count=1 -run 'TestChaosShuffle|TestDifferentialMultiNode|TestMultiNode' .

echo "== race-mode multi-job chaos gate =="
# The multi-job invariant under the race detector: jobs sharing one
# engine — including the chaos seeds re-run as two concurrent
# submissions — must produce outcomes byte-identical to solo runs, with
# per-job stats isolated and no goroutine leaks.
go test -race -count=1 -run 'TestChaosConcurrentEngine|TestEngine' .

echo "== race-mode chained-DAG chaos gate =="
# The zero-copy pipe invariant under the race detector: two-round job
# chains (psum1→psum2, sort→grep) piped through egressed extents must be
# byte-identical to re-ingesting a materialized copy on every axis —
# faulted, budgeted, radix-off, multi-lane — and seeded chaos over both
# rounds must either recover to the clean digests with deterministic
# fault counters or fail wrapped, leaking no goroutines.
go test -race -count=1 -run 'TestChaosChainedDAG|TestPipedMatchesMaterialized' ./internal/dag/

echo "== race-mode sort-path gate =="
# The radix/columnar invariants under the race detector: every
# fixed-width-key app must produce digests byte-identical to its
# -radixsort=off ablation across both runtimes, with faults and under a
# spill budget (TestRadixAblation...), and the branch-free merge trees
# must agree with the comparison reference (TestMerge, fuzz seeds).
go test -race -count=1 -run 'TestRadixAblation|TestMerge' .
# The out-of-core finish shares state across goroutines by design — the
# grouped drain, run blocks decoded a block ahead on the IO lanes, reads
# joined on failure — so its tests repeat under the detector, and the
# budgeted differential and spill chaos determinism run with them.
go test -race -count=10 -run 'TestMergeAhead|TestMergeJoins|TestDrainContainer|TestRunRecordCount|TestBlockMerge' ./internal/spill/ ./internal/sortalgo/
go test -race -count=2 -run 'TestBudgetedDigestIdentical|TestChaosSpillDeterministic' .

echo "== race-mode incremental recompute gate =="
# The memo invariants under the race detector: a cold run, a 1% append
# and an incremental re-run against the warm store must produce
# byte-identical digests (TestMemoIncrementalAppend), memo-on must
# match the -memo=off ablation across apps (TestMemoOffOnDigests...),
# and injected memo-device faults must degrade to misses, never to
# corrupted output (TestMemoChaos...).
go test -race -count=1 -run 'TestMemo' .

echo "== run-format decoder fuzz (time-boxed) =="
# The spill run reader and the memo replay decoder parse the same
# uvarint-framed record format from storage that faults can tear:
# arbitrary bytes must end in a typed error or exactly the announced
# records, never a panic. Five seconds each on top of the seed corpus.
go test -run '^$' -fuzz '^FuzzCacheReplay$' -fuzztime=5s ./internal/memo/
go test -run '^$' -fuzz '^FuzzRunDecode$' -fuzztime=5s ./internal/spill/
go test -run '^$' -fuzz '^FuzzBlockDecode$' -fuzztime=5s ./internal/spill/

echo "== ingest lane throughput gate =="
# The tentpole claim, gated: segmented reads across 4 IO lanes must
# deliver >= 1.5x the serial virtual ingest throughput on the
# stream-capped RAID (measured ~1.8x), and the 4-lane run must stay
# bounded in allocs/op — the freelist recycles chunk buffers, so
# steady-state ingest allocates O(depth), not O(chunks).
bench_out=$(go test -run '^$' -bench '^BenchmarkIngestLanes$' -benchmem -benchtime 5x .)
echo "$bench_out"
lane_s() {
    echo "$bench_out" | awk -v want="$1" \
        '$1 ~ want { for (i = 2; i <= NF; i++) if ($i == "sim-ingest-s") print $(i-1) }'
}
lane1_s=$(lane_s "Lanes1")
lane4_s=$(lane_s "Lanes4")
if [[ -z "$lane1_s" || -z "$lane4_s" ]]; then
    echo "could not parse sim-ingest-s from BenchmarkIngestLanes" >&2
    exit 1
fi
if ! awk -v a="$lane1_s" -v b="$lane4_s" 'BEGIN { exit !(b > 0 && a / b >= 1.5) }'; then
    echo "4-lane ingest only $(awk -v a="$lane1_s" -v b="$lane4_s" 'BEGIN { printf "%.2f", a/b }')x serial (want >= 1.5x)" >&2
    exit 1
fi
lane4_allocs=$(echo "$bench_out" | awk '$1 ~ /Lanes4/ { print $(NF-1) }')
if [[ -z "$lane4_allocs" ]] || (( lane4_allocs > 2000 )); then
    echo "4-lane ingest allocates ${lane4_allocs:-?} objs/op (limit 2000)" >&2
    exit 1
fi

echo "== ingest sweep artifact (BENCH_ingest.json) =="
go run ./cmd/benchtable -ingest-json BENCH_ingest.json

echo "== incremental recompute artifact and speedup gate (BENCH_memo.json) =="
# The tentpole claim, gated: after appending 1% to the input, a re-run
# against the warm memo store must beat a cold run of the same grown
# input by >= 5x (measured ~7.5x) while staying byte-identical to both
# the cold reference and the -memo=off ablation.
memo_out=$(go run ./cmd/benchtable -memo-json BENCH_memo.json)
echo "$memo_out"
memo_speedup=$(echo "$memo_out" | awk -F'[=x]' '/^speedup=/ { print $2 }')
if [[ -z "$memo_speedup" ]]; then
    echo "could not parse speedup from the memo benchmark" >&2
    exit 1
fi
if ! awk -v s="$memo_speedup" 'BEGIN { exit !(s >= 5) }'; then
    echo "incremental re-run only ${memo_speedup}x vs cold (want >= 5x)" >&2
    exit 1
fi
if ! echo "$memo_out" | grep -q 'digests_match=true'; then
    echo "incremental/coldref/memo-off digests diverge" >&2
    exit 1
fi

echo "== sort-path artifact and speedup gate (BENCH_sort.json) =="
# The tentpole claim, gated: on fixed-width-key sort (terasort records)
# the radix run sort plus columnar p-way merge must beat the
# comparison path by >= 1.5x (measured ~2.9x), with every radix-on
# digest byte-identical to its -radixsort=off ablation.
sort_out=$(go run ./cmd/benchtable -sort-json BENCH_sort.json)
echo "$sort_out"
sort_speedup=$(echo "$sort_out" | awk -F'[=x]' '/^speedup=/ { print $2 }')
if [[ -z "$sort_speedup" ]]; then
    echo "could not parse speedup from the sort benchmark" >&2
    exit 1
fi
if ! awk -v s="$sort_speedup" 'BEGIN { exit !(s >= 1.5) }'; then
    echo "radix sort path only ${sort_speedup}x vs comparison (want >= 1.5x)" >&2
    exit 1
fi
if ! echo "$sort_out" | grep -q 'digests_match=true'; then
    echo "radix/comparison sort digests diverge" >&2
    exit 1
fi

echo "== multi-node shuffle artifact and combiner gate (BENCH_shuffle.json) =="
# The tentpole claim, gated: on a wordcount-class workload over a 4-node
# simulated cluster, the in-node combiner must cut the framed bytes
# crossing the links by >= 2x (measured ~2.2x) versus its
# -innode-combiner=off ablation, with every run's digest — single-node,
# combiner on, combiner off — byte-identical.
shuffle_out=$(go run ./cmd/benchtable -shuffle-json BENCH_shuffle.json)
echo "$shuffle_out"
shuffle_reduction=$(echo "$shuffle_out" | awk -F'[=x]' '/^reduction=/ { print $2 }')
if [[ -z "$shuffle_reduction" ]]; then
    echo "could not parse reduction from the shuffle benchmark" >&2
    exit 1
fi
if ! awk -v r="$shuffle_reduction" 'BEGIN { exit !(r >= 2) }'; then
    echo "in-node combiner only cuts wire bytes ${shuffle_reduction}x (want >= 2x)" >&2
    exit 1
fi
if ! echo "$shuffle_out" | grep -q 'digests_match=true'; then
    echo "single-node/combiner-on/combiner-off digests diverge" >&2
    exit 1
fi

echo "== parallel egress artifact and lane gate (BENCH_egress.json) =="
# The tentpole claim, gated: fanning the merged sort output across 4
# egress lanes onto a stream-capped disk must beat the serial writer's
# virtual egress time by >= 1.5x at every input size (measured
# ~1.8-2x), with the stitched bytes — and so the digest — identical at
# every lane count.
egress_out=$(go run ./cmd/benchtable -egress-json BENCH_egress.json)
echo "$egress_out"
egress_speedup=$(echo "$egress_out" | awk -F'[=x]' '/^speedup=/ { print $2 }')
if [[ -z "$egress_speedup" ]]; then
    echo "could not parse speedup from the egress benchmark" >&2
    exit 1
fi
if ! awk -v s="$egress_speedup" 'BEGIN { exit !(s >= 1.5) }'; then
    echo "4-lane egress only ${egress_speedup}x vs serial (want >= 1.5x)" >&2
    exit 1
fi
if ! echo "$egress_out" | grep -q 'digests_match=true'; then
    echo "egress lane digests diverge" >&2
    exit 1
fi

echo "== map hot path allocation gate =="
# A steady-state flat-combiner map wave must stay (near) allocation-free.
# Measured ~22 allocs/op; the gate allows generous headroom for GC and
# scheduler noise while still catching any per-key allocation regression
# (the map-backed path runs ~200k allocs/op on the same input).
bench_out=$(go test -run '^$' -bench '^BenchmarkMapHotPath$' -benchmem -benchtime 10x .)
echo "$bench_out"
flat_allocs=$(echo "$bench_out" | awk '$1 ~ /FlatCombiner/ { print $(NF-1) }')
if [[ -z "$flat_allocs" ]]; then
    echo "could not parse FlatCombiner allocs/op" >&2
    exit 1
fi
if (( flat_allocs > 2000 )); then
    echo "flat combiner map wave allocates $flat_allocs objs/op (limit 2000)" >&2
    exit 1
fi

echo "== race-mode SupMR pipeline run =="
go run -race ./cmd/supmr -app wordcount -runtime supmr \
    -size 2m -chunk 128k -bw 0 -workers 4

echo "== race-mode multi-lane pipeline run =="
go run -race ./cmd/supmr -app wordcount -runtime supmr \
    -size 2m -chunk 128k -bw 64m -workers 4 -io-lanes 4 -prefetch-depth 3

echo "== race-mode budget-constrained pipeline run =="
go run -race ./cmd/supmr -app wordcount -runtime supmr \
    -size 2m -chunk 128k -bw 0 -workers 4 -budget 64k

echo "== race-mode radix sort pipeline run =="
# Fixed-width keys under a spill budget: radix run sorts, the columnar
# spill drains, and the lookahead streaming merge all on the race
# detector's watch.
go run -race ./cmd/supmr -app sort -runtime supmr \
    -size 1m -chunk 128k -bw 0 -workers 4 -budget 128k

echo "== faulted CLI run recovers with retries =="
# Built (not `go run`) so the exit code and stderr are the command's own.
supmr_bin=$(mktemp -d)/supmr
go build -o "$supmr_bin" ./cmd/supmr
"$supmr_bin" -app wordcount -runtime supmr \
    -size 1m -chunk 128k -bw 0 -workers 4 \
    -faults seed=1,read-err-every=5 -retries 4

echo "== radix ablation digest gate =="
# -radixsort=off must be byte-identical to the default fast path:
# clean, faulted-with-retries, and budget-constrained (spill plus
# external merge) runs, for both fixed-key apps the digest mode covers.
for args in \
    "-app sort -size 200k -chunk 20k -bw 0 -seed 23" \
    "-app histogram -size 256k -chunk 32k -bw 0 -seed 5" \
    "-app sort -size 200k -chunk 20k -bw 0 -seed 23 -faults seed=1,read-err-every=7 -retries 4" \
    "-app sort -size 200k -chunk 20k -bw 0 -seed 23 -budget 32k"; do
    radix_on=$("$supmr_bin" -digest $args)
    radix_off=$("$supmr_bin" -digest -radixsort=off $args)
    if [[ -z "$radix_on" || "$radix_on" != "$radix_off" ]]; then
        echo "radix ablation digest mismatch for '$args':" >&2
        echo " on:  $radix_on" >&2
        echo " off: $radix_off" >&2
        exit 1
    fi
done
echo "radix on/off digests identical"

echo "== multi-node ablation digest gate =="
# Scale-out must never change a byte: for each app, every cluster size
# and combiner setting — clean and with torn-wire faults plus retries —
# must reproduce the single-node digest exactly.
for args in \
    "-app wordcount -size 256k -chunk 32k -bw 0 -seed 3" \
    "-app sort -size 200k -chunk 20k -bw 0 -seed 23" \
    "-app wordcount -size 256k -chunk 32k -bw 0 -seed 3 -faults seed=1,write-err-every=3 -retries 4"; do
    single=$("$supmr_bin" -digest $args)
    for nodes in 1 2 4; do
        for comb in "" "-innode-combiner=off"; do
            multi=$("$supmr_bin" -digest -nodes "$nodes" $comb $args)
            if [[ -z "$single" || "$single" != "$multi" ]]; then
                echo "multi-node digest mismatch for '-nodes $nodes $comb $args':" >&2
                echo " single: $single" >&2
                echo " multi:  $multi" >&2
                exit 1
            fi
        done
    done
done
echo "multi-node digests identical to single-node"

echo "== egress lane ablation digest gate =="
# Parallel egress must never change a byte: -egress-lanes=4 must print
# the same digest line — including the egressed byte and extent counts —
# as the serial -egress-lanes=1 writer, clean and under write faults
# with retries.
for args in \
    "-app wordcount -size 256k -chunk 32k -bw 0 -seed 3" \
    "-app sort -size 200k -chunk 20k -bw 0 -seed 23" \
    "-app wordcount -size 256k -chunk 32k -bw 0 -seed 3 -faults seed=1,write-err-every=3 -retries 4"; do
    eg_serial=$("$supmr_bin" -digest -egress-lanes=1 $args)
    eg_wide=$("$supmr_bin" -digest -egress-lanes=4 $args)
    if [[ -z "$eg_serial" || "$eg_serial" != "$eg_wide" ]]; then
        echo "egress lane ablation digest mismatch for '$args':" >&2
        echo " 1 lane:  $eg_serial" >&2
        echo " 4 lanes: $eg_wide" >&2
        exit 1
    fi
done
echo "serial and 4-lane egress digests identical"

echo "== pipeline piped vs materialized digest gate =="
# The zero-copy pipe end to end: chaining rounds through egressed
# extents must produce the same per-round digests as the -materialize
# ablation, which re-ingests a stitched in-memory copy of each round's
# output.
for kind in prefixsum sortgrep; do
    piped=$("$supmr_bin" pipeline -kind "$kind" -size 256k -egress-lanes 4 | grep -o 'digest=[0-9a-f]*')
    mat=$("$supmr_bin" pipeline -kind "$kind" -size 256k -materialize | grep -o 'digest=[0-9a-f]*')
    if [[ -z "$piped" || "$piped" != "$mat" ]]; then
        echo "pipeline $kind piped vs materialized digest mismatch:" >&2
        echo " piped:        $piped" >&2
        echo " materialized: $mat" >&2
        exit 1
    fi
done
echo "piped and materialized pipeline digests identical"

echo "== faulted CLI run must fail cleanly =="
# A permanent ingest fault has to surface as exit 1 with one wrapped
# error line on stderr — no panic, no exit 0.
set +e
fault_err=$("$supmr_bin" -app wordcount -runtime supmr \
    -size 1m -chunk 128k -bw 0 -workers 4 \
    -faults seed=1,read-err-every=2,permanent 2>&1 >/dev/null)
fault_rc=$?
set -e
rm -rf "$(dirname "$supmr_bin")"
if [[ "$fault_rc" -eq 0 ]]; then
    echo "faulted run exited 0, want a failure" >&2
    exit 1
fi
if [[ $(echo "$fault_err" | grep -c .) -ne 1 ]] || ! echo "$fault_err" | grep -q '^supmr: .*injected fault'; then
    echo "faulted run stderr not a single wrapped error line:" >&2
    echo "$fault_err" >&2
    exit 1
fi
echo "failed as expected: $fault_err"

echo "== supmrd server smoke test =="
# Start the job server, submit two jobs concurrently through the
# client, and diff their digests against direct (engine-less) runs of
# the same specs: server-mode output must be byte-identical.
smoke_dir=$(mktemp -d)
go build -o "$smoke_dir/supmr" ./cmd/supmr
go build -o "$smoke_dir/supmrd" ./cmd/supmrd
sock="$smoke_dir/supmrd.sock"
"$smoke_dir/supmrd" -socket "$sock" -workers 4 -max-jobs 2 &
supmrd_pid=$!
trap 'kill "$supmrd_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
for _ in $(seq 1 100); do [[ -S "$sock" ]] && break; sleep 0.05; done
[[ -S "$sock" ]] || { echo "supmrd never bound $sock" >&2; exit 1; }

direct_wc=$("$smoke_dir/supmr" -digest -app wordcount -size 256k -chunk 32k -bw 0 -seed 3)
direct_sort=$("$smoke_dir/supmr" -digest -app sort -size 200k -chunk 20k -bw 0 -seed 23)
"$smoke_dir/supmr" submit -socket "$sock" -app wordcount -size 256k -chunk 32k -seed 3 \
    -tenant alice -wait > "$smoke_dir/wc.out" &
wc_job=$!
"$smoke_dir/supmr" submit -socket "$sock" -app sort -size 200k -chunk 20k -seed 23 \
    -tenant bob -wait > "$smoke_dir/sort.out" &
sort_job=$!
wait "$wc_job" "$sort_job"
for pair in "wc:$direct_wc" "sort:$direct_sort"; do
    app=${pair%%:*}
    direct_digest=$(echo "${pair#*:}" | grep -o 'digest=[0-9a-f]*')
    server_digest=$(grep -o 'digest=[0-9a-f]*' "$smoke_dir/$app.out")
    if [[ -z "$direct_digest" || "$direct_digest" != "$server_digest" ]]; then
        echo "$app digest mismatch: direct '$direct_digest' vs server '$server_digest'" >&2
        cat "$smoke_dir/$app.out" >&2
        exit 1
    fi
done
# Memoized submissions against the server's shared store: the first
# populates it, the repeat must replay from cache (memo hits > 0) and
# both must stay byte-identical to the direct -memo=off digest above.
"$smoke_dir/supmr" submit -socket "$sock" -app wordcount -size 256k -chunk 32k -seed 3 \
    -memo -wait > "$smoke_dir/memo1.out"
"$smoke_dir/supmr" submit -socket "$sock" -app wordcount -size 256k -chunk 32k -seed 3 \
    -memo -wait > "$smoke_dir/memo2.out"
direct_digest=$(echo "$direct_wc" | grep -o 'digest=[0-9a-f]*')
for out in memo1 memo2; do
    memo_digest=$(grep -o 'digest=[0-9a-f]*' "$smoke_dir/$out.out")
    if [[ -z "$memo_digest" || "$memo_digest" != "$direct_digest" ]]; then
        echo "$out digest mismatch: direct '$direct_digest' vs memo '$memo_digest'" >&2
        cat "$smoke_dir/$out.out" >&2
        exit 1
    fi
done
if ! grep -qE 'memo: [1-9][0-9]* hits' "$smoke_dir/memo2.out"; then
    echo "repeat memo submission did not hit the shared cache:" >&2
    cat "$smoke_dir/memo2.out" >&2
    exit 1
fi
echo "memoized submissions replay from the shared store, digests unchanged"
# A multi-node submission runs on the shared engine like any other job:
# its digest must match the direct -nodes 2 run (and so the single-node
# digest above).
direct_nodes=$("$smoke_dir/supmr" -digest -nodes 2 -app wordcount -size 256k -chunk 32k -bw 0 -seed 3 \
    | grep -o 'digest=[0-9a-f]*')
"$smoke_dir/supmr" submit -socket "$sock" -app wordcount -size 256k -chunk 32k -seed 3 \
    -nodes 2 -wait > "$smoke_dir/nodes.out"
server_nodes=$(grep -o 'digest=[0-9a-f]*' "$smoke_dir/nodes.out")
if [[ -z "$direct_nodes" || "$direct_nodes" != "$server_nodes" || "$direct_nodes" != "$direct_digest" ]]; then
    echo "multi-node digest mismatch: direct '$direct_nodes' vs server '$server_nodes' vs single-node '$direct_digest'" >&2
    cat "$smoke_dir/nodes.out" >&2
    exit 1
fi
if ! grep -qE 'shuffle: 2 node\(s\), .* in [1-9][0-9]* frame' "$smoke_dir/nodes.out"; then
    echo "multi-node submission moved no frames on the engine:" >&2
    cat "$smoke_dir/nodes.out" >&2
    exit 1
fi
echo "multi-node submission matches the direct -nodes 2 digest"

"$smoke_dir/supmr" stats -socket "$sock"
kill -TERM "$supmrd_pid"
wait "$supmrd_pid" || { echo "supmrd exited dirty" >&2; exit 1; }
trap - EXIT
rm -rf "$smoke_dir"
echo "server digests match direct runs"

echo "CI OK"
