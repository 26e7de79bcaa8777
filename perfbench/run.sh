#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload unit-paper --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write (Go build cache, binary, checkpoints, span files) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTMPDIR= TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
export BENCH_WORK_DIR=$out
mkdir -p "$TMPDIR"
# Ambient knobs that would change the measured program.
unset BIST_WORKERS BIST_METRICS GOMAXPROCS GOGC GOMEMLIMIT GODEBUG

if [ -z "${BENCH_COMMIT:-}" ]; then
	if commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
		BENCH_COMMIT=$commit
	else
		# Not a git checkout: name the source tree by its content.
		BENCH_COMMIT=src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
			LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
	fi
fi
export BENCH_COMMIT

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
