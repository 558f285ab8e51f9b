#!/usr/bin/env bash
# The one command of SimProf's end-to-end benchmark. It builds simprofd
# and the simprofbench program from this checkout, then runs the named
# workload (all four when none is named) and prints each result; the
# last line of standard output is the JSON summary of the last workload.
#
#   bash bench/run.sh [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, run files and one result
# file per run (.bench_build/results/<workload>-seed<N>-trace<T>.json).
# It exits non-zero when any correctness check fails, and when the
# checkout holds no simprof source tree to build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/simprofd || ! -d internal ]]; then
	echo "run.sh: $root holds no simprof source tree (go.mod, cmd/simprofd, internal/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
# The go command's caches, temp files and local telemetry counters
# (under the user config dir) all land in the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/simprofd" ./cmd/simprofd
(cd bench && go build -o "$build/bin/simprofbench" ./simprofbench)

workloads=()
args=()
while (($#)); do
	case "$1" in
	--workload)
		workloads+=("$2")
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
if ((${#workloads[@]} == 0)); then
	workloads=(offline-1m offline-paper serve-cold serve-mixed)
fi

status=0
for w in "${workloads[@]}"; do
	"$build/bin/simprofbench" -workload "$w" -simprofd "$build/bin/simprofd" -workdir "$build" ${args[@]+"${args[@]}"} || status=$?
done
exit "$status"
