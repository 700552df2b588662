#!/usr/bin/env bash
# Repository CI: tier-1 verification plus lint/format gates.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> product line count (tools/count_lines.sh; informational, no gate)"
tools/count_lines.sh | tail -n 1

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> bench smoke: fig7_flashio --quick (profiling enabled)"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/fig7_flashio --quick >/dev/null
report="$report_dir/fig7_flashio.profile.json"
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }
for key in exchange_offsets exchange_data disk_write disk_read metadata wait \
           collbuf_pack compute p2p cache coverage per_rank twophase \
           bytepath flatten_hits flatten_hit_rate fused_pack_bytes \
           copies_elided borrowed_bytes exchange_borrowed_bytes \
           collbuf_reuses; do
    grep -q "\"$key\"" "$report" || { echo "FAIL: report missing key \"$key\""; exit 1; }
done
rm -rf "$report_dir"
[ -f BENCH_fig7.json ] || { echo "FAIL: BENCH_fig7.json was not written"; exit 1; }
echo "    report OK: all phase keys present; BENCH_fig7.json written"

echo "==> fault smoke: FLASH checkpoint under injected faults"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/fault_smoke
report="$report_dir/fault_smoke.profile.json"
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }
for key in faults faults_injected retries backoff_time short_completions \
           agreed_errors byte_identical; do
    grep -q "\"$key\"" "$report" || { echo "FAIL: report missing key \"$key\""; exit 1; }
done
rm -rf "$report_dir"
echo "    fault report OK: injection and recovery counters present"

echo "==> failover smoke: parity carries the checkpoint through a server crash"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/failover_smoke
report="$report_dir/failover_smoke.profile.json"
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }
for key in degraded_reads reconstructed_bytes redirected_writes rebuilds \
           rebuilt_bytes parity_updates epochs rebuild_time; do
    grep -q "\"$key\"" "$report" || { echo "FAIL: report missing key \"$key\""; exit 1; }
done
# The degraded-mode counters must actually have moved: a zero here means
# the crash never engaged the parity layer.
for key in degraded_reads reconstructed_bytes redirected_writes rebuilds; do
    grep -q "\"$key\": 0\b" "$report" \
        && { echo "FAIL: failover counter \"$key\" is zero"; exit 1; }
done
grep -q '"byte_identical": true' "$report" \
    || { echo "FAIL: degraded/rebuilt file diverged from fault-free run"; exit 1; }
rm -rf "$report_dir"
echo "    failover report OK: degraded reads, redirects, and rebuild all engaged"

echo "==> cache smoke: FLASH checkpoint through the client page cache"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/cache_smoke
report="$report_dir/cache_smoke.profile.json"
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }
for key in hits hit_bytes misses evictions write_behind_flushes \
           write_behind_bytes readahead_issued invalidations \
           byte_identical cached_mb_s uncached_mb_s; do
    grep -q "\"$key\"" "$report" || { echo "FAIL: report missing key \"$key\""; exit 1; }
done
grep -q '"byte_identical": true' "$report" \
    || { echo "FAIL: cached output not byte-identical"; exit 1; }
rm -rf "$report_dir"
echo "    cache report OK: hit/write-behind counters present, bytes identical"

echo "==> twophase smoke: pipelined vs serial collective engines"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/twophase_smoke
report="$report_dir/twophase_smoke.profile.json"
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }
for key in rounds overlap_saved_ns serial_mb_s pipelined_mb_s \
           byte_identical; do
    grep -q "\"$key\"" "$report" || { echo "FAIL: report missing key \"$key\""; exit 1; }
done
# Dual-resource server engine: per-server queue/stage counters and the
# dynamically chosen aggregator count must land in the profile.
for key in nic_busy_s disk_busy_s overlap_s queue_stall_s max_queue_depth \
           cb_nodes; do
    grep -q "\"$key\"" "$report" || { echo "FAIL: report missing key \"$key\""; exit 1; }
done
grep -q '"byte_identical": true' "$report" \
    || { echo "FAIL: pipelined output not byte-identical"; exit 1; }
grep -q '"overlap_saved_ns": 0' "$report" \
    && { echo "FAIL: pipelining hid no exchange time"; exit 1; }
rm -rf "$report_dir"
echo "    twophase report OK: overlap + server pipeline counters, bytes identical"

echo "==> trace smoke: 64-rank FLASH checkpoint with pnc_trace_events on"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/trace_smoke >/dev/null
trace="$report_dir/trace_smoke.trace.json"
report="$report_dir/trace_smoke.critical_path.json"
[ -f "$trace" ] || { echo "FAIL: $trace was not written"; exit 1; }
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }
# The Chrome export must be well-formed JSON whose complete (X) spans are
# all balanced (non-negative durations) and whose only other events are
# metadata and flow links.
python3 - "$trace" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
evs = t["traceEvents"]
assert evs, "empty traceEvents"
spans = [e for e in evs if e["ph"] == "X"]
assert spans, "no complete spans"
bad = [e for e in spans if e.get("dur", -1) < 0]
assert not bad, f"unbalanced spans: {bad[:3]}"
other = {e["ph"] for e in evs} - {"X", "M", "s", "f"}
assert not other, f"unexpected event phases: {other}"
print(f"    trace JSON OK: {len(spans)} balanced spans")
EOF
for key in windows stage_totals_ns bound_counts dominant_stage \
           disk nic exchange pack queue retry cache bound_by; do
    grep -q "\"$key\"" "$report" || { echo "FAIL: critical-path report missing key \"$key\""; exit 1; }
done
rm -rf "$report_dir"
echo "    critical-path report OK: stage keys and per-window attribution present"

echo "==> service smoke: 16 sessions on a shared 4-server cluster"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/service_smoke >/dev/null 2>&1
report="$report_dir/service_smoke.profile.json"
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }
for key in aggregate_mb_s max_session_mb_s cross_file_stall_total_nanos \
           cross_file_stall_s hints_rejected deterministic; do
    grep -q "\"$key\"" "$report" || { echo "FAIL: report missing key \"$key\""; exit 1; }
done
# The fleet must actually contend across files, beat its best single
# session in aggregate, and notice the deliberately misspelled hint.
grep -q '"cross_file_stall_total_nanos": 0\b' "$report" \
    && { echo "FAIL: no cross-file contention on the shared servers"; exit 1; }
grep -q '"aggregate_ge_max_session": true' "$report" \
    || { echo "FAIL: aggregate throughput below best single session"; exit 1; }
grep -q '"hints_rejected": 0\b' "$report" \
    && { echo "FAIL: misspelled pnc_ hint was not rejected"; exit 1; }
grep -q '"deterministic": true' "$report" \
    || { echo "FAIL: session fleet not deterministic across reruns"; exit 1; }
rm -rf "$report_dir"
echo "    service report OK: cross-file stall, aggregate >= best session, hint audit"

echo "==> bench results: twophase_bench (BENCH_twophase.json)"
./target/release/twophase_bench >/dev/null
[ -f BENCH_twophase.json ] || { echo "FAIL: BENCH_twophase.json was not written"; exit 1; }
grep -q '"speedup"' BENCH_twophase.json \
    || { echo "FAIL: BENCH_twophase.json missing speedup rows"; exit 1; }
# The file is pure virtual time (serial and pipelined MB/s, rounds, hidden
# nanoseconds at 16/64 ranks x 3 buffer sizes), so any difference from the
# recorded one is a change of the two-phase model, not noise.
cmp BENCH_twophase.json crates/bench/golden/BENCH_twophase.json \
    || { echo "FAIL: BENCH_twophase.json differs from crates/bench/golden/BENCH_twophase.json"; exit 1; }
echo "    BENCH_twophase.json identical to the recorded one (the bench itself asserts >1.2x at 64 ranks)"

echo "==> bench results: fig6_scalability --quick (BENCH_fig6.json)"
report_dir=$(mktemp -d)
PNETCDF_REPORT_DIR="$report_dir" ./target/release/fig6_scalability --quick >/dev/null
rm -rf "$report_dir"
[ -f BENCH_fig6.json ] || { echo "FAIL: BENCH_fig6.json was not written"; exit 1; }
echo "    BENCH_fig6.json written"

echo "==> perf_bench smoke: the benchmark of BENCHMARK.json, quick mode"
# perf_bench is a package of its own pinned to this repo's public surface
# (Comm, MpiFile, Dataset, the profile JSON keys). It exits non-zero on any
# failed operation or missing metric, so a change that breaks that surface
# fails here instead of in the benchmark run.
# A local run appends to perf_bench/Cargo.lock the dependency edges product
# crates gained since it was written; nothing under perf_bench/ may be
# committed changed, so the stage puts the lock file back as it found it.
lock_backup=$(mktemp)
cp perf_bench/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" perf_bench/Cargo.lock; rm -f "$lock_backup"' EXIT
cargo run --release --offline --quiet --manifest-path perf_bench/Cargo.toml -- --quick >/dev/null
# The heap budget of the independent request path, at smoke size. One pass
# over the array cannot go below 1.0 heap byte per payload byte (the stripe
# store keeps what was written, 0.5, and every get returns its Vec, 0.5);
# 1.007 is measured, and a request path that allocates per call sits at 2.96.
# The collective path has the same floor plus the write's and the read's
# 4 MiB collective buffers on a 16 MiB array: 1.328 B/B and 37.02 MiB of peak
# heap are measured; a put that stages an external copy of its values and a
# get that reads into staging beside its result sit at 2.414 and 48.52.
# The FLASH checkpoint queues ~30 variables per file and reads them back one
# collective at a time: 1.959 B/B and 53.06 MiB are measured (the budgets add
# 5 %); a flush that merges the queue's staged buffers into one more copy and
# a collective buffer allocated per call sit at 3.580 and 68.07.
python3 - perf_bench/out/indep_rows.json perf_bench/out/coll3d_x.json perf_bench/out/flash_ckpt.json <<'EOF'
import json, sys
indep, coll, flash = (json.load(open(p)) for p in sys.argv[1:4])
value = lambda r, m: r["metrics"][m]["value"]
for name, r in (("indep_rows", indep), ("coll3d_x", coll), ("flash_ckpt", flash)):
    assert r["ops_failed"] == 0, f"{name}: {r['ops_failed']} operations failed"
alloc = value(indep, "alloc_bytes_per_byte")
assert alloc <= 1.05, f"indep_rows requests {alloc:.3f} heap B per payload B (budget 1.05)"
coll_alloc, coll_peak = value(coll, "alloc_bytes_per_byte"), value(coll, "peak_heap_mb")
assert coll_alloc <= 1.50, f"coll3d_x requests {coll_alloc:.3f} heap B per payload B (budget 1.50)"
assert coll_peak <= 40, f"coll3d_x peaks at {coll_peak:.2f} MiB of heap (budget 40)"
flash_alloc, flash_peak = value(flash, "alloc_bytes_per_byte"), value(flash, "peak_heap_mb")
assert flash_alloc <= 2.06, f"flash_ckpt requests {flash_alloc:.3f} heap B per payload B (budget 2.06)"
assert flash_peak <= 55.7, f"flash_ckpt peaks at {flash_peak:.2f} MiB of heap (budget 55.7)"
print(f"    perf_bench --quick OK: every workload ran, every metric present; "
      f"indep_rows {alloc:.3f} heap B/B, coll3d_x {coll_alloc:.3f} heap B/B and "
      f"{coll_peak:.2f} MiB peak heap, flash_ckpt {flash_alloc:.3f} heap B/B and "
      f"{flash_peak:.2f} MiB peak heap, no failed operation")
EOF

echo "CI OK"
