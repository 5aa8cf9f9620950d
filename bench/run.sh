#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload lib_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, module cache, the go
# command's own state) goes under .bench_build/ in the checkout; a traced
# run writes its span file under bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$root/bench"
	env -u XDG_CACHE_HOME -u XDG_CONFIG_HOME \
		HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/inano-bench" .
)
exec "$build/inano-bench" -root "$root" "$@"
