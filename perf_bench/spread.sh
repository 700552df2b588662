#!/usr/bin/env bash
# Steadiness check, the way the driver makes it: run BENCHMARK.json's own
# command ten times per workload, each time with another seed, and print
# for every end-to-end metric the distance between the first and third
# quartile of the ten values as a share of their median, beside the
# metric's bound. Exits non-zero if a spread (setup_s excepted) exceeds
# its bound. Run from the repository root.
#
#   perf_bench/spread.sh [first-seed, default 1]
set -euo pipefail
python3 - "${1:-1}" <<'PY'
import json, statistics, subprocess, sys
first = int(sys.argv[1])
bench = json.load(open("BENCHMARK.json"))
over = 0
print("| workload | metric | median | IQR/median | bound | spread/bound |")
print("|---|---|---:|---:|---:|---:|")
for w in (x["name"] for x in bench["workloads"]):
    runs = []
    for seed in range(first, first + 10):
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0, res
        runs.append(res["metrics"])
        print(f"spread.sh: {w} seed {seed} done", file=sys.stderr)
    for m in bench["end_to_end"]:
        vals = [r[m["name"]]["value"] for r in runs]
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q[2] - q[0]) / med
        share = spread / m["bound"]
        if m["name"] != "setup_s" and share > 1:
            over += 1
        print(f"| {w} | {m['name']} | {med:.6g} | {spread * 100:.3f} % | "
              f"{m['bound'] * 100:g} % | {share:.2f} |")
sys.exit(1 if over else 0)
PY
