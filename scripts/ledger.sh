#!/usr/bin/env bash
# Ledger: the benchmark of BENCHMARK.json on a parent commit and on HEAD, in
# alternating pairs, tabulated the way the benchmark's rules read it.
#
#   bash scripts/ledger.sh PARENT [N [OUT]]    # N pairs a workload (default 10); OUT defaults to BENCH.json
#   bash scripts/ledger.sh --tabulate DIR OUT  # tabulate runs collected before
#
# PARENT and HEAD are checked out into two git worktrees under a temporary
# directory, which is removed afterwards: what is measured is committed
# code, never the working tree. For every workload, pair i runs seed i on
# both sides, the parent first in odd pairs and the change first in even
# ones. Each run is
#
#   bash <tree>/bench/run.sh --workload W --seed i --seconds <run_seconds> --trace 0
#
# and its last line is kept. The collected runs go into DIR (runs/, the
# change's BENCHMARK.json, both sides' non-test Go line counts and their
# internal/core and internal/atlas text symbols from `go tool nm`), and
# OUT is tabulated from DIR alone, which is what --tabulate does for runs
# collected before. For each workload and end-to-end metric OUT holds both
# sides' medians and quartiles, each pair's ratio (change over parent), the
# pairs the change wins, the bound and a verdict; both sides' failed
# operations; repo.nontest_go_loc on both sides, counted as bench/main.go
# counts it; every raw value; and the core and atlas functions whose address
# mod 64 differs between the two bench binaries. The verdict follows the
# benchmark's rules as bench/aa.sh reads them, and where it and the
# benchmark's own check differ, the benchmark's stands.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

tabulate() {
	python3 - "$1" "$2" <<'PY'
import json, math, os, statistics, sys

src, out = sys.argv[1], sys.argv[2]
bench = json.load(open(os.path.join(src, "benchmark.json")))
meta = json.load(open(os.path.join(src, "meta.json")))
n, sides = meta["pairs"], ("parent", "change")
workloads = [w["name"] for w in bench["workloads"]]

def run(side, w, i):
    path = os.path.join(src, "runs", f"{side}-{w}-{i}.json")
    try:
        return json.load(open(path))
    except (OSError, ValueError) as e:
        sys.exit(f"ledger: {path}: no run line ({e})")

def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0]
    q = statistics.quantiles(vs, n=4)
    return q[0], q[2]

def summary(vs):
    q1, q3 = quartiles(vs)
    med = statistics.median(vs)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}

def symbols(side):
    # "ADDR SIZE TYPE NAME" lines of go tool nm -size -sort address.
    out = {}
    for line in open(os.path.join(src, f"nm-{side}.txt")):
        f = line.split(None, 3)
        if len(f) == 4 and f[2] in "Tt":
            out[f[3].strip()] = int(f[0], 16) % 64
    return out

result = {
    "parent": meta["parent"],
    "change": meta["change"],
    "pairs": n,
    "run_seconds": bench["run_seconds"],
    "order": "pair i runs seed i on both sides; the parent runs first in odd pairs, the change in even ones",
    "note": "the verdict reads the benchmark's rules as bench/aa.sh does; where the benchmark's own check differs, it stands",
    "repo.nontest_go_loc": {s: meta["loc"][s] for s in sides},
    "verdict": "pass",
    "workloads": {},
}
worst = {"pass": 0, "unresolved": 1, "fail": 2}
for w in workloads:
    runs = {s: [run(s, w, i) for i in range(1, n + 1)] for s in sides}
    failed = {s: {"failed": sum(r["failed"] for r in runs[s]), "attempted": sum(r["attempted"] for r in runs[s]),
                  "incorrect_runs": sum(not r["correct"] for r in runs[s])} for s in sides}
    share = {s: failed[s]["failed"] / failed[s]["attempted"] if failed[s]["attempted"] else 0.0 for s in sides}
    entry = {"failed": failed, "failed_share_rose": share["change"] > share["parent"], "metrics": {}}
    verdict = "fail" if entry["failed_share_rose"] else "pass"
    for m in bench["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in sides}
        p, c = summary(vals["parent"]), summary(vals["change"])
        diff = c["median"] - p["median"] if lower else p["median"] - c["median"]
        worse = diff / p["median"] if p["median"] else 0.0
        ratios = [cv / pv if pv else None for pv, cv in zip(vals["parent"], vals["change"])]
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(vals["parent"], vals["change"]))
        gained = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
        if name != "setup_s" and max(p["spread"], c["spread"]) > bound:
            v = "unresolved"
        elif worse > bound:
            v = "worse"
        elif worse < 0 and wins >= math.ceil(0.9 * n) and gained:
            v = "better"
        else:
            v = "within bound"
        entry["metrics"][name] = {
            "better": m["better"], "bound": bound, "parent": p, "change": c, "worse_by": worse,
            "ratios": ratios, "wins": wins, "verdict": v,
            "values": vals,
        }
        verdict = max(verdict, {"worse": "fail", "unresolved": "unresolved"}.get(v, "pass"), key=worst.get)
    entry["verdict"] = verdict
    result["workloads"][w] = entry
    result["verdict"] = max(result["verdict"], verdict, key=worst.get)

p, c = symbols("parent"), symbols("change")
moved = [{"name": f, "parent": p[f], "change": c[f]} for f in sorted(p.keys() & c.keys()) if p[f] != c[f]]
result["layout"] = {"compared": len(p.keys() & c.keys()), "moved_mod_64": moved}
with open(out, "w") as f:
    json.dump(result, f, indent=1)
    f.write("\n")
PY
}

if [ "${1:-}" = "--tabulate" ]; then
	[ $# -eq 3 ] || { echo "usage: $0 --tabulate DIR OUT" >&2; exit 2; }
	tabulate "$2" "$3"
	exit 0
fi
[ $# -ge 1 ] && [ $# -le 3 ] || { echo "usage: $0 PARENT [N [OUT]]" >&2; exit 2; }
parent=$(git -C "$root" rev-parse --verify "$1^{commit}")
change=$(git -C "$root" rev-parse --verify HEAD)
n=${2:-10}
out=${3:-BENCH.json}

tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/parent" 2>/dev/null || true
	git -C "$root" worktree remove --force "$tmp/change" 2>/dev/null || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/parent" "$parent"
git -C "$root" worktree add --quiet --detach "$tmp/change" "$change"

data="$tmp/data"
mkdir -p "$data/runs"
cp "$tmp/change/BENCHMARK.json" "$data/benchmark.json"
seconds=$(python3 -c "import json, sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$data/benchmark.json")
workloads=$(python3 -c "import json, sys; print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" "$data/benchmark.json")
for w in $workloads; do
	for i in $(seq 1 "$n"); do
		order="parent change"
		if [ $((i % 2)) -eq 0 ]; then order="change parent"; fi
		for side in $order; do
			echo "ledger: $w pair $i of $n, $side" >&2
			bash "$tmp/$side/bench/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
				2>/dev/null | tail -n 1 >"$data/runs/$side-$w-$i.json" || true
		done
	done
done
for side in parent change; do
	go tool nm -size -sort address "$tmp/$side/.bench_build/inano-bench" |
		grep -E ' [Tt] inano/internal/(core|atlas)\.' >"$data/nm-$side.txt" || true
done
# repo.nontest_go_loc as bench/main.go counts it: every line of every
# non-test Go file, leaving out bench/ and directories whose name starts
# with a dot.
python3 - "$data/meta.json" "$parent" "$change" "$n" "$tmp/parent" "$tmp/change" <<'PY'
import json, os, sys
meta, parent, change, n, trees = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5:]
def loc(root):
    lines = 0
    for d, dirs, files in os.walk(root):
        dirs[:] = sorted(x for x in dirs if not x.startswith(".") and os.path.join(d, x) != os.path.join(root, "bench"))
        for f in files:
            if f.endswith(".go") and not f.endswith("_test.go"):
                data = open(os.path.join(d, f), "rb").read()
                lines += data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)
    return lines
json.dump({"parent": parent, "change": change, "pairs": n,
           "loc": {"parent": loc(trees[0]), "change": loc(trees[1])}}, open(meta, "w"), indent=1)
PY
tabulate "$data" "$out"
echo "ledger: wrote $out" >&2
