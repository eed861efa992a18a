#!/usr/bin/env bash
# CI entry point: formatting and static analysis, build, the short test
# suite, the race-enabled run of the concurrent packages, a one-shot
# bench smoke, the telemetry/causal-trace/health smoke, a cmd/doctor
# probe of a held live process, and the benchdiff regression gate over
# the BENCH trajectory. The concurrent first pass of Deduce and the batched
# parallel drain (internal/chase), the parallel BSP supersteps
# (internal/dmatch), the justification log written from concurrent
# drains (internal/provenance), and the distributed master's per-worker
# step and reader goroutines over the shared wire stats (internal/wire)
# make the race detector mandatory for those packages.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -short ./..."
go test -short ./...

echo "== go test -race -short ./internal/chase ./internal/dmatch ./internal/hypart ./internal/telemetry ./internal/provenance ./internal/health ./internal/wire"
go test -race -short ./internal/chase ./internal/dmatch ./internal/hypart ./internal/telemetry ./internal/provenance ./internal/health ./internal/wire

echo "== provenance equivalence (proof replay vs the reference verifier, all drain modes + DMatch w>=2)"
go test -short -run 'TestProofReplaysAgainstVerifier|TestDMatchProofEveryPair' ./internal/provenance

echo "== distribution equivalence guards (parallel Partition byte-identity + Partition golden digests + dedup-routing Gamma equality + in-process and distributed TCP recovery + distributed TCP Gamma equality + distributed start-up error paths)"
go test -short -count=1 -run 'TestPartitionParallelEquivalence|TestPartitionGolden' ./internal/hypart
go test -short -count=1 -run 'TestRoutingDedupGammaEquality|TestInProcessRecovery|TestDistributedEqualsInProcess|TestDistributedRecovery|TestDistributedStartupErrors' ./internal/dmatch

echo "== distributed process smoke (-out CSV byte-identity of w=1 vs w=2 and of in-process vs 2 real worker processes over TCP, then kill-one-worker recovery)"
dist_data=/tmp/dcer_ci_dist_data
rm -rf "$dist_data"
go run ./cmd/datagen -kind tpch -scale 0.05 -dup 0.4 -seed 7 -out "$dist_data"
go build -o /tmp/dcer_ci_dmatch ./cmd/dmatch
# Gamma's CSV is canonical: the sequential Match (w=1) and DMatch (w=2)
# write the same bytes. At scale 0.7 the sequential engine holds some
# class members out of id order, so the diff sees the canonical sort.
canon_data=/tmp/dcer_ci_canon_data
rm -rf "$canon_data"
go run ./cmd/datagen -kind tpch -scale 0.7 -dup 0.3 -seed 7 -out "$canon_data"
/tmp/dcer_ci_dmatch -data "$canon_data" -rules "$canon_data/rules.mrl" -workers 1 -out /tmp/dcer_ci_w1.csv > /dev/null
/tmp/dcer_ci_dmatch -data "$canon_data" -rules "$canon_data/rules.mrl" -workers 2 -out /tmp/dcer_ci_w2.csv > /dev/null
diff /tmp/dcer_ci_w1.csv /tmp/dcer_ci_w2.csv
/tmp/dcer_ci_dmatch -data "$dist_data" -rules "$dist_data/rules.mrl" -workers 2 -out /tmp/dcer_ci_inproc.csv > /dev/null
/tmp/dcer_ci_dmatch -data "$dist_data" -rules "$dist_data/rules.mrl" -workers 2 -distributed -out /tmp/dcer_ci_dist.csv > /dev/null
diff /tmp/dcer_ci_inproc.csv /tmp/dcer_ci_dist.csv
# Kill worker 1 after its first delta: the master must reassign its
# blocks, rebuild the survivors over the wire, and still match the
# in-process Gamma byte for byte.
/tmp/dcer_ci_dmatch -data "$dist_data" -rules "$dist_data/rules.mrl" -workers 3 -out /tmp/dcer_ci_inproc3.csv > /dev/null
/tmp/dcer_ci_dmatch -data "$dist_data" -rules "$dist_data/rules.mrl" -workers 3 -distributed -crash-worker 1 -v \
    -out /tmp/dcer_ci_crash.csv > /dev/null 2> /tmp/dcer_ci_crash.log
diff /tmp/dcer_ci_inproc3.csv /tmp/dcer_ci_crash.csv
if ! grep -q "recoveries=1" /tmp/dcer_ci_crash.log; then
    echo "kill-one-worker run did not record a recovery:" >&2
    cat /tmp/dcer_ci_crash.log >&2
    exit 1
fi

echo "== plan equivalence guards (compiled plans vs interpreter: Gamma byte-identity across drain modes, DMatch, adaptive reorders; then racing the compiled path)"
go test -short -count=1 -run 'TestPlanGammaEquivalence|TestPlanDMatchEquivalence|TestPlanAdaptiveReorderEquivalence' ./internal/chase
go test -race -short -count=1 -run 'TestPlan' ./internal/chase

echo "== allocation-regression guards (index/cache probes, string metrics, saturated enumeration, partition bytes per tuple copy)"
go test -count=1 -run 'TestIndexProbeAllocs|TestMetricAllocs|TestCacheProbeAllocs|TestEnumerationAllocs|TestPartitionAllocBytes' \
    ./internal/relation ./internal/mlpred ./internal/chase ./internal/hypart

echo "== storage equivalence guards (columnar parity + memory-bounded chase Gamma equality)"
go test -short -count=1 -run 'TestStorageParity|TestMemBudgetGammaEquivalence|TestDepStoreByteBudget' \
    ./internal/relation ./internal/chase

echo "== bench smoke (IncDeduce + HyPart incl. the Partition equivalence assert, 1 iteration)"
go test -run=NONE -bench='IncDeduce|HyPart' -benchtime=1x -short .

echo "== storage bench smoke (Ingest arm at scale 20, single iteration)"
go run ./cmd/bench -fig6=false -repeat 1 -arms '^Ingest' -memscale 20 -prev '' -out /tmp/dcer_ci_bench.json

echo "== plan bench smoke (Deduce plan=off|on A/B at scale 0.5 with per-rule attribution, single iteration)"
go run ./cmd/bench -fig6=false -repeat 1 -scale 0.5 -arms '^Deduce/plan=' -memscale 0 -prev '' -out /tmp/dcer_ci_plan.json

echo "== telemetry smoke (ephemeral /metrics + provenance + /debug/trace + /debug/health scrape over a live DMatch run)"
go run ./scripts/telemetrysmoke

echo "== doctor probe (cmd/doctor diagnosing a held telemetrysmoke process over /debug/health)"
go build -o /tmp/dcer_ci_smoke ./scripts/telemetrysmoke
smoke_addrfile=/tmp/dcer_ci_smoke_addr
rm -f "$smoke_addrfile"
/tmp/dcer_ci_smoke -hold -addrfile "$smoke_addrfile" &
smoke_pid=$!
# The smoke publishes its address only after its own assertions pass.
for _ in $(seq 1 300); do
    [[ -s "$smoke_addrfile" ]] && break
    if ! kill -0 "$smoke_pid" 2>/dev/null; then
        echo "held telemetrysmoke exited before publishing its address" >&2
        wait "$smoke_pid" || true
        exit 1
    fi
    sleep 0.1
done
if [[ ! -s "$smoke_addrfile" ]]; then
    echo "held telemetrysmoke never published its address" >&2
    kill "$smoke_pid" 2>/dev/null || true
    exit 1
fi
go run ./cmd/doctor -addr "$(cat "$smoke_addrfile")"
kill "$smoke_pid"
wait "$smoke_pid" || true

echo "== causal-trace race guard (trace model, wide events, DMatch lane attribution under the race detector)"
go test -race -short -count=1 \
    -run 'TestParallelTraceCausality|TestDistributedTraceSpans|TestSpanLabelCopy|TestTraceContextCausality|TestWriteChromeTrace|TestServeDebugTrace|TestLoggerWide' \
    ./internal/telemetry ./internal/dmatch

echo "== bench-regression gate (fresh Deduce/IncDeduce arms vs BENCH_9 via benchdiff, threshold 10%)"
# The gate keeps the BENCH trajectory honest: measure the gated tier
# fresh (min over 3 repeats suppresses scheduler noise on the shared
# host) and fail when any arm slowed past the threshold vs the last
# committed snapshot, or when an arm of the snapshot was not measured.
go run ./cmd/bench -fig6=false -repeat 3 -arms '^(Deduce|IncDeduce)/' -memscale 0 -prev '' -out /tmp/dcer_ci_gate.json
go run ./cmd/benchdiff -gate '^(Deduce|IncDeduce)/' -threshold 10 BENCH_9.json /tmp/dcer_ci_gate.json

echo "CI OK"
