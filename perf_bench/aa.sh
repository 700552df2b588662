#!/usr/bin/env bash
# A/A check: two sets of full runs of the SAME code, alternating A, B, A, B...
# Prints, per workload and end-to-end metric, both sets' medians, the
# relative difference |B-A|/A and that difference as a share of the
# metric's bound. Exits non-zero if any share exceeds 1: the benchmark
# would then call a change that changed nothing a regression.
#
#   perf_bench/aa.sh [runs-per-set, default 5]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
runs="${1:-5}"
work="$here/out/aa"
rm -rf "$work"
mkdir -p "$work"
for i in $(seq 1 "$runs"); do
  for set in A B; do
    echo "aa.sh: run $i/$runs of set $set" >&2
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
      --seed "$i" > "$work/$set$i.log"
    mkdir -p "$work/$set$i"
    for w in coll3d_x flash_ckpt indep_rows indep_rows_cached; do
      cp "$here/out/$w.json" "$work/$set$i/"
    done
  done
done
python3 - "$here" "$work" "$runs" <<'PY'
import json, statistics, sys
here, work, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
bench = json.load(open(f"{here}/../BENCHMARK.json"))
worst = 0.0
print(f"| workload | metric | median A | median B | \\|Δ\\|/A | bound | \\|Δ\\|/bound |")
print("|---|---|---:|---:|---:|---:|---:|")
for w in (x["name"] for x in bench["workloads"]):
    for m in bench["end_to_end"]:
        med = {}
        for s in "AB":
            vals = [json.load(open(f"{work}/{s}{i}/{w}.json"))["metrics"][m["name"]]["value"]
                    for i in range(1, runs + 1)]
            med[s] = statistics.median(vals)
        delta = abs(med["B"] - med["A"]) / med["A"]
        share = delta / m["bound"]
        worst = max(worst, share)
        print(f"| {w} | {m['name']} | {med['A']:.6g} | {med['B']:.6g} | "
              f"{delta * 100:.3f} % | {m['bound'] * 100:g} % | {share:.2f} |")
print(f"\nworst |Δ|/bound: {worst:.2f}")
sys.exit(1 if worst > 1 else 0)
PY
