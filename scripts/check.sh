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
#                                            covers the obs metrics;
#                                            SPTB decode's heap bytes
#                                            per unit stay bounded; a
#                                            simprofd cache hit
#                                            allocates under 2x its
#                                            upload)
#   fuzz-smoke    trace decoders            (no byte stream may panic
#                                            the decode path: gob and
#                                            the tracebin columns)
#   trace-golden  trace-event export        (byte-stable golden + schema
#                                            tests for the Perfetto export)
#   tracebin-golden  columnar trace format  (byte-exact encode golden +
#                                            decode of a hand-mangled
#                                            worst-case header)
#   metrics-golden  Prometheus exposition   (golden-pinned /metrics text
#                                            format, escaping tables, and
#                                            the label-value fuzz seeds)
#   kernel-equivalence  pruned vs naive     (bound-pruned k-means must be
#                                            bit-for-bit the naive test
#                                            oracle, run twice to shake
#                                            out scratch-pool reuse, also
#                                            on duplicate-heavy inputs;
#                                            the distinct-row table
#                                            matches a serial scan;
#                                            sparse F-regression matches
#                                            the dense oracle; Phases
#                                            accessors match full scans;
#                                            phase formation on a decoded
#                                            bin trace must be
#                                            bit-identical at workers
#                                            1/2/8; the chunk-parallel
#                                            SPTB decode matches itself
#                                            at GOMAXPROCS 1/2/8 and the
#                                            serial first error; the
#                                            stratum scan matches the
#                                            five-pass oracle; the target
#                                            estimate on the profiled
#                                            trace is the sample's own and
#                                            scales with the target;
#                                            phase answers match their
#                                            golden record and ignore
#                                            MaxIter; census intervals
#                                            contain the oracle; fails if
#                                            a named test no longer
#                                            exists)
#   chaos-smoke   simprofd fault suite      (stalled clients, cancels,
#                                            over-limit, chunked, empty
#                                            and short uploads and the
#                                            upload presize cap,
#                                            torn appends, internal
#                                            failures, expired deadlines,
#                                            overload — typed errors, no
#                                            leaks, no store corruption;
#                                            runs under -race plus the
#                                            resilience + crash-recovery
#                                            unit suites; fails if a
#                                            named store or upload test
#                                            no longer exists)
#   batch-smoke   deduplicated serving      (bit-identical responses
#                                            served vs the pipeline run
#                                            directly and cached vs
#                                            computed, coalescing and
#                                            leader-cancel hand-off, a
#                                            fresh flight after every
#                                            waiter left, cache
#                                            bounds/eviction, the logged
#                                            admission wait and stage
#                                            ledger, and the batch +
#                                            two-phase admission unit
#                                            suites; all under -race;
#                                            fails if a named test no
#                                            longer exists)
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
	# labeled families (CounterVec/HistogramVec) and the sliding
	# windows carry the same contract as the scalar metrics: With(...)
	# must bail on the enabled check before any map or slice touches.
	echo "$out" | awk '
		/^Benchmark(TelemetryDisabled|ObsDisabledLabeled)/ {
			for (i = 1; i <= NF; i++)
				if ($i == "allocs/op" && $(i-1) + 0 != 0) bad = 1
		}
		END { exit bad }
	' || fail bench-smoke
	# The zero-copy SPTB decode allocates a bounded number of heap bytes
	# per unit: a slice header per snapshot would break the bound.
	named_tests bench-smoke 1 "" ./internal/tracebin TestDecodeHeapPerUnit || fail bench-smoke
	# A simprofd cache hit allocates under twice its upload: the body is
	# read into one buffer sized from its Content-Length (built without
	# -race, which changes what allocates).
	named_tests bench-smoke 1 "" ./internal/server TestHitAllocatesUnderTwiceUpload || fail bench-smoke
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
	# poisoned reserved words) identically, and a file that still carries
	# the retired sections 5 and 20 decodes as if it did not.
	go test -run 'TestGolden|TestHostileHeaderLayout' ./internal/tracebin || fail tracebin-golden
	named_tests tracebin-golden 1 "" ./internal/tracebin \
		TestDecodeIgnoresRetiredSections || fail tracebin-golden
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
	# shares that widest band, as does SimprofdHit, the sub-millisecond
	# median of sequential hits over loopback HTTP.
	# The single-digit-ns observability paths (disabled labeled metrics,
	# the access-log enqueue) sit at the timer's resolution floor, so
	# they get the wide microbenchmark band — their real contract
	# (0 allocs/op) is enforced by bench-smoke, not by wall time.
	go run ./cmd/simprof history gate -baseline "$baseline" -bench "$cur" \
		-per-bench "BenchmarkVectorizeSparse=0.60,BenchmarkKMeansDense/Naive=0.50,BenchmarkKMeansDense/Pruned=0.50,BenchmarkEndToEnd100k=0.40,BenchmarkDecodeBin=0.35,BenchmarkDecodeGob=0.35,BenchmarkSimprofdP99=0.75,BenchmarkSimprofdStorm/batched=0.75,BenchmarkSimprofdHit=0.75,BenchmarkObsDisabledLabeled/countervec=0.60,BenchmarkObsDisabledLabeled/histogramvec=0.60,BenchmarkObsDisabledLabeled/windowedhist=0.60,BenchmarkObsDisabledLabeled/windowedcounter=0.60,BenchmarkAccessLog/enqueue=0.60,BenchmarkAccessLog/disabled=0.60" \
		|| fail bench-gate
}

# named_tests STAGE RUNS FLAGS PKG TEST...: runs the named tests of PKG
# RUNS times in one process (go test -count=RUNS plus FLAGS, e.g.
# -race) and fails unless every name passed RUNS times. `go test -run`
# exits 0 when nothing matches, so without the count a renamed test
# would silently empty the stage.
named_tests() {
	stage=$1
	runs=$2
	flags=$3
	pkg=$4
	shift 4
	names=$(echo "$*" | tr ' ' '|')
	# $flags is unquoted on purpose: it holds zero or more go test flags.
	out=$(go test $flags -count="$runs" -v -run "^($names)\$" "$pkg" 2>&1)
	status=$?
	if [ "$status" -ne 0 ]; then
		echo "$out"
		return 1
	fi
	for name in "$@"; do
		passes=$(echo "$out" | grep -c "^--- PASS: $name ")
		if [ "$passes" -ne "$runs" ]; then
			echo "$stage: $pkg $name passed $passes times, want $runs (renamed or missing?)" >&2
			return 1
		fi
	done
	echo "$out" | tail -n 1
}

# equiv_tests PKG TEST...: the kernel-equivalence form of named_tests —
# each test runs twice (the second round hits the warm scratch pool,
# catching any state a kernel leaks between runs).
equiv_tests() {
	pkg=$1
	shift
	named_tests kernel-equivalence 2 "" "$pkg" "$@"
}

run_kernel_equivalence() {
	# The pruned k-means, seeding, silhouette and nearest-center kernels
	# against the naive oracle (internal/cluster/oracle_test.go), also on
	# duplicate-heavy inputs the kernels work on per distinct row; the
	# distinct-row table against a serial first-occurrence scan and at
	# GOMAXPROCS 1/2/8; the k sweep's shared-seeding restart streams
	# against independent per-k runs, and its cancellation mid-stream
	# and mid-scoring.
	equiv_tests ./internal/cluster TestPrunedMatchesNaiveBitForBit \
		TestPrunedMatchesNaiveProperty TestPrunedMatchesNaiveWithTelemetry \
		TestChooseKPrunedMatchesNaive TestChooseKDistinctRowsMatchNaive \
		TestRowTableFirstOccurrence TestRowTableBitwiseKeys TestRowTableExtremes \
		TestRowTableWorkerInvariant TestSeedingPickSequencePreserved \
		TestSweepPrefixMatchesIndependentSeeding TestChooseKCanceledMidSweep \
		TestDrawWeightedMatchesLinear \
		TestNearestSetMatchesNearestCenter TestSimplifiedSilhouetteDenseMatches \
		TestPruningEffectiveness || fail kernel-equivalence
	# Sparse F-regression against the dense oracle, also on row sets of
	# several row chunks (tall and wide, the same bits at workers 1/2/8)
	# and bit for bit against one serial scan while the rows fit one
	# chunk; the cached Phases accessors against full assignment scans;
	# Form's chunked unit scan against one serial pass with degraded
	# units on chunk edges, and its cancellation between chunks.
	equiv_tests ./internal/stats TestFRegressionSparseMatchesDense \
		TestFRegressionSparseRowSubset TestFRegressionChunkedMatchesDense \
		TestFRegressionOneChunkMatchesSerial || fail kernel-equivalence
	equiv_tests ./internal/phase TestPhaseIndexAccessors TestScanUnitsChunkEdges \
		TestFormCtxCanceledMidScan || fail kernel-equivalence
	# The method counts (Trace.CountMethods), the VectorizeSparse remap
	# on full and subset spaces and sensitivity.Classify (GOMAXPROCS
	# 1/2/8) against the per-unit map-count oracle
	# (internal/phase/oracle_test.go).
	equiv_tests ./internal/phase TestCountMethodsMatchesOracle \
		TestVectorizeSparseMatchesDense TestVectorizeSparseSubsetSpace TestVectorizeSparseAdoptsDecodedFreq \
		TestClassifyMatchesOracle || fail kernel-equivalence
	# The chunk-parallel TopK projection inside phase.Form must produce
	# bit-identical phases at any worker count, on both the gob and the
	# zero-copy tracebin ingest paths; the decoded frequency matrix
	# against a per-unit map count; every codec's decode holds the
	# source trace's snapshots and method counts.
	equiv_tests ./internal/tracebin TestFormBitIdentical TestRoundTripGobBinGob \
		TestFreqMatchesVectorizeSparse TestSnapshotsAgreeAcrossCodecs || fail kernel-equivalence
	# The chunk-parallel decode: the combined CRC equals the one-pass
	# CRC, a multi-chunk trace decodes identically at GOMAXPROCS 1/2/8 on
	# both ingest paths, and a malformed input gets the serial decode's
	# first error whichever chunk holds it, frequency-matrix structure
	# and value defects included. SPTB and gob reject every
	# structural defect with trace.Validate's message for it.
	equiv_tests ./internal/tracebin TestCRCCombine TestDecodeBinWorkerInvariant \
		TestDecodeBinFirstErrorAcrossChunks TestDecodersShareInvariants || fail kernel-equivalence
	# The chunked stratum scan behind SimProf, PlanSE and
	# RequiredSampleSize against the five-pass reference, also with
	# degraded and unmeasured units on chunk edges (the same at workers
	# 1/2/8), and its cancellation mid-scan; the target-design estimate
	# on the profiled trace against the sample's own estimate and SE, and
	# on a 1.5x-cycles trace against 1.5x them.
	equiv_tests ./internal/sampling TestStratumScanMatchesOracle \
		TestScanStrataChunkEdges TestSimProfCtxCanceledMidScan \
		TestEstimateOnTraceSelfMatchesSimProf TestEstimateOnTraceTracksTarget || fail kernel-equivalence
	# The k-means kernel and its oracle can change together and still
	# agree, so the answers are also pinned against a record: k, the
	# silhouette sweep, the assignment, the centers and a SimProf
	# estimate on the 12 Quick Table I traces and a trace whose sweep
	# re-seeds empty clusters. The deprecated MaxIter must not move a
	# phase.
	equiv_tests ./internal/experiments TestFormAnswersGolden || fail kernel-equivalence
	equiv_tests ./internal/phase TestMaxIterIgnored || fail kernel-equivalence
	# A census (every unit drawn, SE 0) gets an interval no narrower than
	# its rounding error, so it contains the oracle; every interval with
	# SE > 0 keeps its z·SE margin bit for bit.
	equiv_tests ./internal/sampling TestCensusCIContainsOracle \
		TestCIMarginIsZSEAboveRounding || fail kernel-equivalence
	equiv_tests ./internal/experiments TestQuickCensusCoverage || fail kernel-equivalence
}

run_chaos_smoke() {
	# The resilience contract under injected faults, always with the race
	# detector on: the chaos suite (internal/server TestChaos*) plus the
	# primitives it leans on — the taxonomy/admission/drain unit tests,
	# crash-recovery tests for the history store (torn-tail recovery,
	# appends after a torn write, warm handles that must notice other
	# writers, shrinking and replacement), the I/O fault channels, and the
	# cancellation tests for the parallel engine. The store tests run by
	# exact name, so a renamed or missing one fails the stage.
	go test -race -count=1 -run 'TestChaos' ./internal/server || fail chaos-smoke
	named_tests chaos-smoke 1 -race ./internal/server TestChaosStoreDown \
		TestChaosTornAppendRecovery TestChaosStoreFailureNotRetried || fail chaos-smoke
	# The upload read: a declared length over the limit is refused before
	# its stalled body is read; exact-length, chunked, over-limit, empty
	# and short bodies; the capacity allocated before bytes arrive.
	named_tests chaos-smoke 1 -race ./internal/server TestUploadOverDeclaredLimitRefusedUnread \
		TestUploadBodies TestUploadPresizeCapped || fail chaos-smoke
	go test -race -count=1 ./internal/resilience ./internal/faults || fail chaos-smoke
	named_tests chaos-smoke 1 -race ./internal/history \
		TestRecoverTailEveryTruncation TestRecoverTailCorruptLastLine TestRecoverTailMissingStore \
		TestDurableAppendThenRead TestDurableAppendAfterTornWrite TestDurableInterleavedHandles \
		TestDurableRescanAfterShrink TestDurableRescanAfterReplace \
		TestDurableWarmAppendAfterTornWrite TestDurableConcurrentAppendsOneHandle ||
		fail chaos-smoke
	go test -race -count=1 -run 'TestCancel|TestWithContext|TestDeterminismUnchangedByContext' \
		./internal/parallel || fail chaos-smoke
}

run_batch_smoke() {
	# The deduplicated-serving determinism contract under the race
	# detector: caching and coalescing may change how often the pipeline
	# runs, never what a request gets back (the served body and history
	# record match the pipeline run directly). Covers the batch group +
	# LRU cache unit suite (the rejoin-after-abandon test by exact
	# name), the two-phase admission tickets, and the HTTP-level
	# bit-identity, coalescing, hand-off, eviction, admission-wait and
	# stage-ledger tests, each by exact name.
	go test -race -count=1 ./internal/batch || fail batch-smoke
	named_tests batch-smoke 1 -race ./internal/batch \
		TestRejoinAfterAllWaitersLeftStartsFreshFlight || fail batch-smoke
	named_tests batch-smoke 1 -race ./internal/resilience \
		TestTicketEnqueueOverload TestTicketStartBlocksUntilSlotFrees \
		TestTicketStartCanceledReleasesQueuePosition \
		TestTicketStartImmediateWhenSlotHeld TestTicketDoneFreesSlotForEnqueue ||
		fail batch-smoke
	named_tests batch-smoke 1 -race ./internal/server \
		TestBatchedResponsesBitIdentical TestCachedResponseBitIdentical \
		TestIdenticalBytesDifferentOptionsMiss TestCacheEvictionUnderPressure \
		TestCoalescedRequestsShareOneExecution TestLeaderCancelHandsOffToFollowerHTTP \
		TestEnqueueMSIsAdmissionWait TestAccessLogStageLedger TestMaxBodyLimitBadInput \
		TestChaosDuplicateStorm ||
		fail batch-smoke
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
		"FuzzDecodeBin ./internal/tracebin"; do
		target=${spec% *}
		pkg=${spec#* }
		go test -run='^$' -fuzz="^${target}\$" -fuzztime=10s "$pkg" || fail fuzz-smoke
	done
}

stages="${*:-tier1-build tier1-test vet gofmt race bench-smoke kernel-equivalence chaos-smoke batch-smoke bench-module fuzz-smoke trace-golden tracebin-golden metrics-golden}"
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
