#!/usr/bin/env bash
# Nightly internet-scale gate: build a ~1M-prefix synthetic world's atlas
# through the out-of-core streaming builder and assert it stays within a
# peak-RSS bound while the .bin and flat load paths serve byte-identical
# answers, then replay one adversarial scenario at medium scale. The
# default RSS bound is the 1M run's measured peak (1 566 MB) plus 30 %.
# Sizes are overridable for local runs:
#
#   SCALE_ASES=5000 SCALE_PREFIXES=100000 SCALE_MAX_RSS_MB=2048 ./scripts/scale-nightly.sh
#
# Run from the repo root; used by CI's nightly scale job.
set -euo pipefail

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
bin="$workdir/inano-eval"

ases="${SCALE_ASES:-50000}"
prefixes="${SCALE_PREFIXES:-1000000}"
max_rss_mb="${SCALE_MAX_RSS_MB:-2036}"
seed="${SCALE_SEED:-42}"

echo "== build"
go build -o "$bin" ./cmd/inano-eval

echo "== out-of-core scale build: $ases ASes, $prefixes prefixes, RSS bound ${max_rss_mb}MB"
"$bin" -scale-build -seed "$seed" \
  -scale-ases "$ases" -scale-prefixes "$prefixes" \
  -max-rss-mb "$max_rss_mb"

echo "== medium-scale scenario replay"
"$bin" -scenario partition -scale medium -seed "$seed"

echo "scale nightly: out-of-core build within ${max_rss_mb}MB, load paths byte-identical, scenario green"
