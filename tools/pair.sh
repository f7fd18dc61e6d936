#!/bin/sh
# Parent against working tree on one benchmark workload, the way a
# performance claim has to be shown (BENCHMARK.json, benchmark/README.md):
# alternating pairs, a fresh seed per pair, both sides on the same seed.
#
# Usage: tools/pair.sh <parent-rev> <workload> [pairs=10] [seconds=10]
#
# Exports <parent-rev> with `git archive` into .bench_build/<rev>/ (ignored;
# delete it to rebuild), builds the benchmark there and here with the
# manifest's own command line, and prints per end-to-end metric each side's
# median and quartiles, the ratio of the medians and the pairs the working
# tree won, then whether the two-part rule for a claim holds for it.
set -eu
cd "$(dirname "$0")/.."
if [ $# -lt 2 ]; then
    echo "usage: tools/pair.sh <parent-rev> <workload> [pairs=10] [seconds=10]" >&2
    exit 2
fi
rev=$(git rev-parse --short "$1^{commit}")
workload=$2
pairs=${3:-10}
seconds=${4:-10}
root=$PWD
parent=$root/.bench_build/$rev
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git archive "$rev" | tar -x -C "$parent"
fi
for dir in "$parent" "$root"; do
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
seed=$(date +%s)
i=0
while [ "$i" -lt "$pairs" ]; do
    if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$root; fi
        result=$(cd "$dir" && cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed $((seed + i)) --seconds "$seconds" --trace 0 | tail -n 1)
        echo "$side $result" >>"$runs"
    done
    i=$((i + 1))
    echo "pair $i of $pairs done (seed $((seed + i - 1)))" >&2
done

python3 - "$runs" "$rev" "$workload" "$seconds" <<'EOF'
import json, statistics, sys

path, rev, workload, seconds = sys.argv[1:5]
sides = {"parent": [], "change": []}
for line in open(path):
    side, result = line.split(" ", 1)
    sides[side].append(json.loads(result))
pairs = len(sides["parent"])
print(f"== {workload}: {pairs} pairs of {seconds} s, parent {rev} against the working tree")
for side, results in sides.items():
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    wrong = sum(not r["correct"] for r in results)
    print(f"{side}: {failed} of {attempted} operations failed, {wrong} runs failed their output check")

def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3

for metric in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    parent = [r["metrics"][name]["value"] for r in sides["parent"]]
    change = [r["metrics"][name]["value"] for r in sides["change"]]
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    tied = sum(c == p for p, c in zip(parent, change))
    ahead = (cm - pm) if higher else (pm - cm)
    holds = won * 10 >= 9 * pairs and ahead > p3 - p1
    print(f"{name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']})")
    print(f"    parent median {pm:.6g}  quartiles {p1:.6g} .. {p3:.6g}")
    print(f"    change median {cm:.6g}  quartiles {c1:.6g} .. {c3:.6g}  = {cm / pm if pm else float('nan'):.3f} x parent")
    print(f"    change ahead in {won} of {pairs} pairs ({tied} tied); medians {ahead:.6g} apart, "
          f"parent's quartiles {p3 - p1:.6g} apart: {'a gain by the rule' if holds else 'no gain by the rule'}")
    print("    parent runs: " + " ".join(f"{v:.5g}" for v in parent))
    print("    change runs: " + " ".join(f"{v:.5g}" for v in change))
EOF
