# Developer entry points. `make check` is the staged CI gate (see
# scripts/check.sh): tier-1 build+test, vet, gofmt, the race detector
# over the parallel compute kernels, the telemetry 0-alloc bench smoke
# and a short fuzz smoke on the trace decoders.

GO ?= go

.PHONY: build test bench bench-gate race vet fuzz chaos check tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark snapshot of the performance-tracked kernels (ChooseK, phase
# formation, SimProf selection, telemetry fast paths) → BENCH_pipeline.json.
# Set BENCHTIME=1s for stable numbers; the default 1x is a smoke run.
bench:
	./scripts/bench.sh

# Perf-regression gate: a fresh (short) bench run compared against the
# committed BENCH_pipeline.json baseline with noise-aware medians
# (simprof history gate). Non-zero exit on regression. Tune with
# GATE_BENCHTIME / GATE_BENCHCOUNT; refresh the baseline with
# BENCHTIME=0.5s BENCHCOUNT=5 make bench and commit the result.
bench-gate:
	./scripts/check.sh bench-gate

# Chaos harness: the simprofd fault suite plus the resilience, crash
# recovery and cancellation tests it rests on, all under -race. This is
# the "does the service survive hostile conditions" gate.
chaos:
	./scripts/check.sh chaos-smoke

# Short-budget fuzzing of the trace decode path (the trust boundary of
# the failure model in DESIGN.md §9). Raise -fuzztime for a deep run.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeGob$$' -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBin$$' -fuzztime=10s ./internal/tracebin

# The fast must-stay-green core of the CI gate.
tier1: ; ./scripts/check.sh tier1-build tier1-test

check: ; ./scripts/check.sh
