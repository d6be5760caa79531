#!/usr/bin/env bash
# Paired benchmark of two committed revisions.
#
#   tools/bench_pairs.sh <parent-rev> <change-rev> <workload> <seed> <pairs> <seconds>
#
# Extracts each revision with `git archive` into its own directory, builds
# its fluxbench there, then runs the two binaries in alternating pairs at
# `--trace 0`: the parent first in even pairs, the change first in odd
# ones, so a drift in host speed falls on both sides alike. Prints, for
# each end-to-end metric of BENCHMARK.json, the median and quartiles of
# each side, the ratio of the medians and in how many pairs the change
# did better, and the failed share of each side's operations. The
# checkout's own files, fluxbench/ included, are left as they are; the
# extracted copies go to a temporary directory (honouring TMPDIR) that is
# removed on exit.
set -euo pipefail

if [ "$#" -ne 6 ]; then
    sed -n '3p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5 seconds=$6
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

for side in parent change; do
    rev=${!side}
    mkdir "$work/$side"
    git -C "$root" archive "$rev" | tar -x -C "$work/$side"
    echo "building $side ($(git -C "$root" rev-parse --short "$rev"))" >&2
    cargo build --release --offline --quiet --manifest-path "$work/$side/fluxbench/Cargo.toml"
done

for ((k = 0; k < pairs; k++)); do
    order="parent change"
    if ((k % 2 == 1)); then order="change parent"; fi
    for side in $order; do
        (cd "$work/$side" && fluxbench/target/release/fluxbench --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 >"$work/$side.$k.json"
    done
    echo "pair $((k + 1))/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$work" "$pairs" "$workload" "$seed" <<'PY'
import json, statistics, sys

bench, work, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
runs = {side: [json.load(open(f"{work}/{side}.{k}.json")) for k in range(pairs)]
        for side in ("parent", "change")}

def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3

print(f"{sys.argv[4]} seed {sys.argv[5]}, {pairs} pairs: median [quartiles], parent -> change")
for metric in bench["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    side = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
    wins = sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))
    (pm, p1, p3), (cm, c1, c3) = spread(side["parent"]), spread(side["change"])
    print(f"  {name:16} {pm:.6g} [{p1:.6g}, {p3:.6g}] -> {cm:.6g} [{c1:.6g}, {c3:.6g}]"
          f"  x{cm / pm:.3f}  change better in {wins}/{pairs}  ({metric['unit']})")
for s in runs:
    failed = sum(r["failed"] for r in runs[s])
    attempted = sum(r["attempted"] for r in runs[s])
    correct = all(r["correct"] for r in runs[s])
    print(f"  {s}: {failed} of {attempted} operations failed, correct in every run: {correct}")
PY
