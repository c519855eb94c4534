#!/usr/bin/env bash
# Builds the benchmark and the repository's clmgen and clmtrain from source,
# trains the benchmark's bundle with them, and runs the benchmark. Invoke
# from the repository root with the benchmark's flags, e.g.
#
#   bash bench/run.sh --workload warm-single --seed 3 --seconds 20 --trace 0
#
# The bundle is the one `clmtrain -cascade -epochs 1 -seed 1` makes from
# clmgen's default train split. It is trained once and kept, keyed by the
# two binaries, so a change to either trains it again. The build cache,
# binaries, bundle and temporary files stay in bench/.bench_build/ and
# traces go to bench/out/: nothing outside the checkout is written.
set -euo pipefail

build="$(pwd)/bench/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-build" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$build/" ./cmd/clmgen ./cmd/clmtrain
(cd bench && go build -o "$build/clmbench" .)

bundle="$build/bundle-$(cat "$build/clmgen" "$build/clmtrain" | sha256sum | cut -c1-16)"
if [ ! -f "$bundle/manifest.json" ]; then
	rm -rf "$build"/bundle-* "$build/train"
	"$build/clmgen" -seed 1 -out "$build/train" >&2
	"$build/clmtrain" -data "$build/train/train.jsonl" -out "$build/train/model" \
		-cascade -epochs 1 -seed 1 -bundle "$build/train/bundle" >&2
	mv "$build/train/bundle" "$bundle"
fi
exec "$build/clmbench" -bundle "$bundle" -out bench/out "$@"
