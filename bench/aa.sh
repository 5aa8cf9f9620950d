#!/usr/bin/env bash
# A/A check: runs the benchmark on the current tree in two alternating sets
# (A1 B1 A2 B2 ...) of N runs per workload, run i of either set with seed i,
# and prints for every end-to-end metric the two medians, how far B's is
# worse than A's, and each set's spread (quartile distance over median) —
# the two numbers the driver holds against the bound in BENCHMARK.json.
# Exits 1 if a drift or a spread (setup_s's spread excepted, as the driver
# excepts it) is beyond its bound.
#
#   bash bench/aa.sh [N]            # default N=5; the committed table used 10
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
n=${1:-5}
out="$root/bench/out/aa"
rm -rf "$out"
mkdir -p "$out"
seconds=$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")
for w in $workloads; do
	for i in $(seq 1 "$n"); do
		for set in A B; do
			echo "aa: $w run $i of $n, set $set" >&2
			bash "$root/bench/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
				2>/dev/null | tail -n 1 >"$out/$set-$w-$i.json"
		done
	done
done
python3 - "$root" "$out" "$n" $workloads <<'PY'
import json, statistics, sys
root, out, n, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
spec = json.load(open(f"{root}/BENCHMARK.json"))["end_to_end"]
def spread(vs):
    q = statistics.quantiles(vs, n=4)
    return (q[2] - q[0]) / statistics.median(vs)
bad = 0
print(f"A/A on one tree, {n} runs per set per workload\n")
print("| workload | metric | median A | median B | B worse by | spread A | spread B | bound |")
print("|---|---|---|---|---|---|---|---|")
for w in workloads:
    runs = {s: [json.load(open(f"{out}/{s}-{w}-{i}.json")) for i in range(1, n + 1)] for s in "AB"}
    for s in "AB":
        for r in runs[s]:
            if not r["correct"] or r["failed"]:
                print(f"aa: {w} set {s}: a run failed {r['failed']} of {r['attempted']} operations", file=sys.stderr)
                bad += 1
    for m in spec:
        a, b = ([r["metrics"][m["name"]]["value"] for r in runs[s]] for s in "AB")
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        flag = ""
        if worse > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"]):
            flag, bad = " **over**", bad + 1
        print(f"| {w} | {m['name']} | {ma:.6g} | {mb:.6g} | {worse:+.2%} | {sa:.2%} | {sb:.2%} | {m['bound']:.1%}{flag} |")
sys.exit(1 if bad else 0)
PY
