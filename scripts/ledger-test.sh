#!/usr/bin/env bash
# Feeds scripts/ledger.sh the canned runs of scripts/testdata/ledger (two
# workloads, three pairs, a metric of each verdict, a failed operation and
# four symbols, three of them moved) and compares the JSON it writes, byte
# for byte, with want.json there. No benchmark runs.
#
#   bash scripts/ledger-test.sh
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(mktemp)
trap 'rm -f "$out"' EXIT
bash "$here/ledger.sh" --tabulate "$here/testdata/ledger" "$out"
diff -u "$here/testdata/ledger/want.json" "$out"
echo "ledger-test: ok"
