#!/bin/sh
# CI gate, in named stages so a red run says which contract broke:
#
#   tier1-build   go build ./...            (everything compiles)
#   tier1-test    go test ./...             (the correctness suite)
#   vet           go vet ./...              (static checks)
#   gofmt         gofmt -l                  (no unformatted files)
#   race          go test -race ./...       (parallel kernels under the
#                                            race detector)
#   bench-smoke   telemetry disabled path   (0 allocs/op or the no-op
#                                            sink contract is broken;
#                                            covers the obs metrics and
#                                            the disabled reqtrace path)
#   fuzz-smoke    trace decoders            (no byte stream may panic
#                                            the decode path: gob, JSON
#                                            and the tracebin columns)
#   trace-golden  trace-event export        (byte-stable golden + schema
#                                            tests for the Perfetto export)
#   tracebin-golden  columnar trace format  (byte-exact encode golden +
#                                            decode of a hand-mangled
#                                            worst-case header)
#   metrics-golden  Prometheus exposition   (golden-pinned /metrics text
#                                            format, escaping tables, and
#                                            the label-value fuzz seeds)
#   reqtrace-golden  retained-trace views   (golden-pinned inspect render
#                                            of a trace manifest, the
#                                            /v1/traces endpoints, export
#                                            validity and the tracing
#                                            on/off determinism contract)
#   kernel-equivalence  pruned vs naive     (bound-pruned k-means must be
#                                            bit-for-bit the naive kernel,
#                                            run twice to shake out
#                                            scratch-pool reuse; phase
#                                            formation on a decoded bin
#                                            trace must be bit-identical
#                                            at workers 1/2/8)
#   chaos-smoke   simprofd fault suite      (stalled clients, cancels,
#                                            torn appends, breaker trips,
#                                            overload — typed errors, no
#                                            leaks, no store corruption;
#                                            runs under -race plus the
#                                            resilience + crash-recovery
#                                            unit suites)
#   batch-smoke   dedup/batch serving       (bit-identical responses
#                                            served vs the pipeline run
#                                            directly and cached vs
#                                            computed, coalescing and
#                                            leader-cancel hand-off,
#                                            cache bounds/eviction, and
#                                            the batch + two-phase
#                                            admission unit suites; all
#                                            under -race)
#   bench-module  end-to-end benchmark      (bench/ is its own Go module,
#                                            so ./... never reaches it:
#                                            vet + short tests keep it
#                                            compiling against the
#                                            internal APIs it imports)
#   bench-gate    perf-regression gate      (fresh bench run vs the
#                                            committed BENCH_pipeline.json
#                                            baseline, noise-aware medians)
#
# tier1-* is the fast must-stay-green core; the later stages are the
# slower hardening smoke. Run individual stages with ./scripts/check.sh
# <stage> [stage...]. bench-gate is opt-in (not in the default stage
# list): benchmark wall times only compare meaningfully on the machine
# that produced the baseline. Refresh the baseline with
#   BENCHTIME=0.5s BENCHCOUNT=5 ./scripts/bench.sh
# and tune the gate with GATE_BENCHTIME / GATE_BENCHCOUNT.
set -u

fail() {
	echo "FAIL stage=$1" >&2
	exit 1
}

run_tier1_build() {
	go build ./... || fail tier1-build
}

run_tier1_test() {
	go test ./... || fail tier1-test
}

run_vet() {
	go vet ./... || fail vet
}

run_gofmt() {
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "unformatted files:" >&2
		echo "$unformatted" >&2
		fail gofmt
	fi
}

run_race() {
	go test -race ./... || fail race
}

run_bench_smoke() {
	out=$(go test -run '^$' -bench '^Benchmark(TelemetryDisabled|ObsDisabledLabeled)$' -benchtime 100x -benchmem ./internal/obs) || fail bench-smoke
	echo "$out"
	# Every disabled-path sub-benchmark must report exactly 0 allocs/op:
	# the no-op sink is contractually allocation-free on hot paths. The
	# labeled families (CounterVec/GaugeVec/HistogramVec) and the sliding
	# windows carry the same contract as the scalar metrics: With(...)
	# must bail on the enabled check before any map or slice touches.
	echo "$out" | awk '
		/^Benchmark(TelemetryDisabled|ObsDisabledLabeled)/ {
			for (i = 1; i <= NF; i++)
				if ($i == "allocs/op" && $(i-1) + 0 != 0) bad = 1
		}
		END { exit bad }
	' || fail bench-smoke
	# Request tracing carries the same contract: with tracing off, the
	# per-request middleware cost (a nil engine's Start/Finish) must be
	# allocation-free.
	out=$(go test -run '^$' -bench '^BenchmarkReqTraceDisabled$' -benchtime 100x -benchmem ./internal/obs/reqtrace) || fail bench-smoke
	echo "$out"
	echo "$out" | awk '
		/^BenchmarkReqTraceDisabled/ {
			for (i = 1; i <= NF; i++)
				if ($i == "allocs/op" && $(i-1) + 0 != 0) bad = 1
		}
		END { exit bad }
	' || fail bench-smoke
}

run_metrics_golden() {
	# The Prometheus text exposition is pinned by a golden file
	# (regenerate with UPDATE_GOLDEN=1) plus escaping tables, and the
	# label-value escaper must round-trip any byte sequence — the fuzz
	# target's committed seeds run as plain tests here.
	go test -run 'TestWritePrometheus|TestProm|FuzzPromLabelValue' ./internal/obs || fail metrics-golden
}

run_trace_golden() {
	# The Chrome trace-event exporter is pinned byte-for-byte by a golden
	# file plus schema/sum-match invariants; regenerate the golden with
	# `go test ./internal/obs/traceevent -run TestTraceEventGolden -update`.
	go test -run 'TestTraceEvent' ./internal/obs/traceevent || fail trace-golden
}

run_tracebin_golden() {
	# The columnar trace format is pinned by a committed fixture: encode
	# must reproduce it byte-for-byte (any drift requires a Version bump;
	# regenerate with UPDATE_GOLDEN=1), decode must accept it and a
	# hostile re-layout of its section table (reversed entry order,
	# poisoned reserved words) identically.
	go test -run 'TestGolden|TestHostileHeaderLayout' ./internal/tracebin || fail tracebin-golden
}

run_reqtrace_golden() {
	# The retained-trace surfaces: the inspect rendering of a trace
	# manifest is golden-pinned (regenerate with UPDATE_GOLDEN=1), the
	# /v1/traces endpoints list/filter/export with a schema-valid
	# trace-event file, and the pipeline output must be bit-identical
	# with tracing on and off.
	go test -run 'TestInspectReqTraceGolden|TestInspectLabeledVecAlignment' ./cmd/simprof || fail reqtrace-golden
	go test -run 'TestTraces|TestTraceExportEndpoint|TestTracingOnOffDeterminism|TestTracedProfilePersistsSpans' \
		./internal/server || fail reqtrace-golden
	go test -run 'TestTracesRender|TestServeTraceFlags' ./cmd/simprofd || fail reqtrace-golden
}

run_bench_gate() {
	baseline="${BASELINE:-BENCH_pipeline.json}"
	if [ ! -f "$baseline" ]; then
		echo "bench-gate: no baseline $baseline (run 'make bench' and commit it)" >&2
		fail bench-gate
	fi
	cur=$(mktemp -t bench_gate.XXXXXX.json) || fail bench-gate
	trap 'rm -f "$cur"' EXIT
	BENCHTIME="${GATE_BENCHTIME:-0.2s}" BENCHCOUNT="${GATE_BENCHCOUNT:-3}" \
		./scripts/bench.sh "$cur" >/dev/null || fail bench-gate
	# Per-benchmark headroom: the sub-millisecond microbenchmarks
	# (sparse vectorization, the naive/pruned kernel pair) are noisier
	# than the end-to-end pipeline benches at the gate's short benchtime,
	# so they get wider thresholds; BenchmarkForm keeps the tight default
	# — it is the kernel-speedup acceptance gate.
	# BenchmarkEndToEnd100k is the 100ms-budget acceptance bench: its
	# ~80ms median leaves real headroom under the budget but the 1-CPU
	# runner shows ~±10% spread across runs, so it gets 0.40; the two
	# decode benches are steadier bulk-throughput loops and keep a
	# moderate 0.35. BenchmarkSimprofdP99 is a tail statistic of a
	# concurrent HTTP workload — the noisiest number in the file by
	# construction — so it gets the widest band: it is there to catch a
	# structural tail regression (a lock on the hot path, a lost
	# fast-path), not scheduler jitter. SimprofdStorm/batched is a tail
	# statistic of the same construction (mostly cache-hit latency) and
	# shares that widest band.
	# The single-digit-ns observability paths (disabled labeled metrics,
	# the access-log enqueue, the disabled reqtrace Start/Finish) sit at
	# the timer's resolution floor, so they get the wide microbenchmark
	# band — their real contract (0 allocs/op) is enforced by
	# bench-smoke, not by wall time. The enabled reqtrace path is a
	# sub-microsecond map-and-reservoir loop with the same jitter
	# profile.
	go run ./cmd/simprof history gate -baseline "$baseline" -bench "$cur" \
		-per-bench "BenchmarkVectorizeSparse=0.60,BenchmarkKMeansDense/Naive=0.50,BenchmarkKMeansDense/Pruned=0.50,BenchmarkEndToEnd100k=0.40,BenchmarkDecodeBin=0.35,BenchmarkDecodeGob=0.35,BenchmarkSimprofdP99=0.75,BenchmarkSimprofdStorm/batched=0.75,BenchmarkObsDisabledLabeled/countervec=0.60,BenchmarkObsDisabledLabeled/gaugevec=0.60,BenchmarkObsDisabledLabeled/histogramvec=0.60,BenchmarkObsDisabledLabeled/windowedhist=0.60,BenchmarkObsDisabledLabeled/windowedcounter=0.60,BenchmarkAccessLog/enqueue=0.60,BenchmarkAccessLog/disabled=0.60,BenchmarkReqTraceDisabled=0.60,BenchmarkReqTraceEnabled=0.60" \
		|| fail bench-gate
}

run_kernel_equivalence() {
	# -count=2 runs every equivalence test twice in one process: the
	# second round hits the warm scratch pool, catching any state the
	# pruned kernel leaks between runs.
	go test -run 'TestPruned|TestChooseKPruned|TestSeedingPickSequence|TestDrawWeighted|TestNearestSet|TestSimplifiedSilhouetteDense|TestPruningEffectiveness' \
		-count=2 ./internal/cluster || fail kernel-equivalence
	# The chunk-parallel TopK projection inside phase.Form must produce
	# bit-identical phases at any worker count, on both the gob and the
	# zero-copy tracebin ingest paths.
	go test -run 'TestFormBitIdentical|TestRoundTripGobBinGob|TestFreqMatchesVectorizeSparse' \
		-count=2 ./internal/tracebin || fail kernel-equivalence
}

run_chaos_smoke() {
	# The resilience contract under injected faults, always with the race
	# detector on: the chaos suite (internal/server TestChaos*) plus the
	# primitives it leans on — the taxonomy/retry/breaker/admission/drain
	# unit tests, crash-recovery property tests for the history store, the
	# I/O fault channels, and the cancellation tests for the parallel
	# engine.
	go test -race -count=1 -run 'TestChaos' ./internal/server || fail chaos-smoke
	go test -race -count=1 -run 'TestChaos|TestPersist' ./internal/obs/reqtrace || fail chaos-smoke
	go test -race -count=1 ./internal/resilience ./internal/faults || fail chaos-smoke
	go test -race -count=1 -run 'TestRecoverTail|TestDurable' ./internal/history || fail chaos-smoke
	go test -race -count=1 -run 'TestCancel|TestWithContext|TestDeterminismUnchangedByContext' \
		./internal/parallel || fail chaos-smoke
}

run_batch_smoke() {
	# The batched-serving determinism contract under the race detector:
	# batching/caching may change when and how often the pipeline runs,
	# never what a request gets back (the served body and history record
	# match the pipeline run directly). Covers the batch group + LRU cache
	# unit suite, the two-phase admission tickets, and the HTTP-level
	# bit-identity, coalescing, hand-off and eviction tests.
	go test -race -count=1 ./internal/batch || fail batch-smoke
	go test -race -count=1 -run 'TestTicket' ./internal/resilience || fail batch-smoke
	go test -race -count=1 \
		-run 'TestBatched|TestCached|TestCacheEviction|TestCoalesced|TestLeaderCancel|TestIdenticalBytes|TestMaxBodyLimit|TestChaosDuplicateStorm' \
		./internal/server || fail batch-smoke
}

run_bench_module() {
	(cd bench && go vet ./... && go test -short ./...) || fail bench-module
}

run_fuzz_smoke() {
	# A small time budget per decoder target. Any crasher the engine
	# finds is persisted under internal/trace/testdata/fuzz and will fail
	# plain `go test` runs from then on.
	for spec in \
		"FuzzDecodeGob ./internal/trace" \
		"FuzzDecodeJSON ./internal/trace" \
		"FuzzDecodeBin ./internal/tracebin"; do
		target=${spec% *}
		pkg=${spec#* }
		go test -run='^$' -fuzz="^${target}\$" -fuzztime=10s "$pkg" || fail fuzz-smoke
	done
}

stages="${*:-tier1-build tier1-test vet gofmt race bench-smoke kernel-equivalence chaos-smoke batch-smoke bench-module fuzz-smoke trace-golden tracebin-golden metrics-golden reqtrace-golden}"
for stage in $stages; do
	echo "==> $stage"
	case "$stage" in
	tier1-build) run_tier1_build ;;
	tier1-test) run_tier1_test ;;
	vet) run_vet ;;
	gofmt) run_gofmt ;;
	race) run_race ;;
	bench-smoke) run_bench_smoke ;;
	fuzz-smoke) run_fuzz_smoke ;;
	trace-golden) run_trace_golden ;;
	tracebin-golden) run_tracebin_golden ;;
	metrics-golden) run_metrics_golden ;;
	reqtrace-golden) run_reqtrace_golden ;;
	kernel-equivalence) run_kernel_equivalence ;;
	chaos-smoke) run_chaos_smoke ;;
	batch-smoke) run_batch_smoke ;;
	bench-module) run_bench_module ;;
	bench-gate) run_bench_gate ;;
	*)
		echo "unknown stage $stage" >&2
		exit 2
		;;
	esac
done
echo "OK: $stages"
