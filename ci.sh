#!/usr/bin/env bash
# Repository CI: tier-1 verification plus lint/format gates.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> product line count (tools/count_lines.sh) against tools/line_ceiling"
# A PR that grows the product says so by raising the one number in that file.
lines=$(tools/count_lines.sh | tail -n 1 | cut -d' ' -f1)
ceiling=$(cat tools/line_ceiling)
echo "    $lines counted product lines, ceiling $ceiling"
[ "$lines" -le "$ceiling" ] || { echo "FAIL: the product grew past tools/line_ceiling"; exit 1; }

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# The stages below write to one scratch directory. perf_bench appends to its
# Cargo.lock the dependency edges product crates gained since it was written;
# nothing under perf_bench/ may be committed changed, so the file goes back.
report_dir=$(mktemp -d)
cp perf_bench/Cargo.lock "$report_dir/perf_bench.lock"
trap 'cp "$report_dir/perf_bench.lock" perf_bench/Cargo.lock; rm -rf "$report_dir"' EXIT

echo "==> repro check --quick: every experiment against crates/bench/golden/quick, twice"
# Every cell that repeats bit for bit today (collective, serial and one-rank
# series) against its golden: a difference is a change of the model, not
# noise. Each experiment also asserts its own gates. The second run must write
# the pinned cells the first wrote: ROADMAP item 1's gate, where it can pass.
PNETCDF_REPORT_DIR="$report_dir/a" ./target/release/repro check --quick 2>"$report_dir/a.log" \
    || { cat "$report_dir/a.log"; exit 1; }
PNETCDF_REPORT_DIR="$report_dir/b" ./target/release/repro check --quick >/dev/null 2>&1
diff -r "$report_dir/a/golden" "$report_dir/b/golden" \
    || { echo "FAIL: two runs of repro check --quick wrote different pinned cells"; exit 1; }

echo "==> the trace test's Chrome export, read by an independent parser"
# Well-formed JSON whose complete (X) spans are all balanced (non-negative
# durations) and whose only other events are metadata and flow links.
python3 - target/tmp/trace_smoke.trace.json <<'EOF'
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

echo "==> perf_bench smoke: the benchmark of BENCHMARK.json, quick mode"
# perf_bench is a package of its own pinned to this repo's public surface
# (Comm, MpiFile, Dataset, the profile JSON keys). It exits non-zero on any
# failed operation or missing metric, so a change that breaks that surface
# fails here instead of in the benchmark run.
cargo run --release --offline --quiet --manifest-path perf_bench/Cargo.toml -- --quick >/dev/null
# The heap budgets, at smoke size: each is the value measured when it was
# last set plus 5 %. They count what one timed iteration requests after the
# warm-up, which has left its stripes and its queued puts' staging in the
# process's byte pool, where every later iteration finds them: stored and
# queued bytes are not counted, so these are the library's own
# allocations, and the floor is the vectors the gets return (0.5 B/B on
# these workloads, which read what they write).
# - indep_rows: 0.501 B/B, the vectors its gets return; a request path that
#   allocates per call sat at 2.96 on an empty pool.
# - coll3d_x: 0.594 B/B and 16.89 MiB, the returned vectors and the
#   window plans on a 16 MiB array. Neither direction allocates a
#   collective buffer: the write's windows have no holes and gather
#   straight from the ranks' payloads, the read's scatter straight into
#   the ranks' memory (0.703 B/B while the write assembled its windows in
#   a 4 MiB buffer).
# - flash_ckpt: 0.557 B/B and 1.44 MiB. It queues ~30 variables per file
#   and stages each in a buffer of the process's byte pool, which the
#   warm-up filled: the wait call gives every buffer back, and the next
#   file's puts take them again, so the staged bytes are not counted
#   (1.160 B/B and 15.36 MiB while each put staged into a fresh vector).
#   Its write windows gather from those buffers, and it reads the
#   variables back one collective at a time, each rank its own blocks, so
#   the restart's read windows need no buffer either. The peak is the
#   write flush's, which every rank reaches holding its stripped unknowns:
#   freed before the flush, they left the peak to thread order (0.73 or
#   1.43 MiB from one build).
# - indep_rows_cached: 0.751 B/B and 8.15 MiB, indep_rows' vectors plus two
#   opens' 8 MiB of page slots on 64 MiB moved. Write-behind lends slot
#   memory to the PFS and every fill reads its pages' gaps straight into
#   slot memory, so the cache has no staging buffer.
# Its simulated bandwidths are virtual time, exact on any machine: 98.131 MB/s
# written is measured with write-behind that goes on at a request's NIC
# handoff, an eviction that writes its victim's stretch of dirty neighbours,
# up to a stripe row, in one request, and waits for the disk at the flush
# points (one page per eviction request sits at 75.957, a cache that waits
# for the disk at every eviction at 46.579); 103.494 MB/s read is measured
# with readahead the rank does not wait for until it touches a page, every
# read queued on the rank's one client link (a rank that waits for every
# readahead sits at 66.530, readahead that shares no link at 132).
# Both one-rank workloads have one client link, so no simulated bandwidth of
# theirs may exceed Blue Horizon's 110 MB/s client_link_bw: the platform's
# first conservation law (ROADMAP item 8), checked on data.
# The FLASH checkpoint's simulated bandwidths are virtual time as well:
# 51.536 MB/s written and 59.631 read are measured with one aggregator per
# I/O server whatever a collective's size; a default that shrank the count to
# ⌈request volume / cb_buffer_size⌉ sent every plotfile, corner and restart
# variable through one of the two ranks' client links, and sat at 49.080 and
# 52.111.
# The 64 MiB collective's simulated bandwidths are virtual time too: 172.309
# MB/s written and 189.277 read are measured with one client-link price for
# every PFS write, each server's portion sent whole in issue order; a window
# priced as a run list, its portion arriving when the file-order stream
# reached its last chunk, sat at 165.193 written.
# indep_rows' simulated read bandwidth is virtual time as well: its 1024
# plane gets are one run each, which `sieve::read` sends through the PFS's
# one vectored read door; 62.768 MB/s is measured. Its simulated write
# bandwidth is as exact: 0.208232 MB/s is measured, and a change that only
# makes the request path cheaper on the host must leave it where it is.
# (`ops_failed == 0` below repeats, per file, what the binary's exit code has
# already said for all four workloads.)
python3 - perf_bench/out/indep_rows.json perf_bench/out/coll3d_x.json perf_bench/out/flash_ckpt.json \
    perf_bench/out/indep_rows_cached.json <<'EOF'
import json, sys
indep, coll, flash, cached = (json.load(open(p)) for p in sys.argv[1:5])
value = lambda r, m: r["metrics"][m]["value"]
for name, r in (("indep_rows", indep), ("coll3d_x", coll), ("flash_ckpt", flash), ("indep_rows_cached", cached)):
    assert r["ops_failed"] == 0, f"{name}: {r['ops_failed']} operations failed"
alloc = value(indep, "alloc_bytes_per_byte")
assert alloc <= 0.53, f"indep_rows requests {alloc:.3f} heap B per payload B (budget 0.53)"
coll_alloc, coll_peak = value(coll, "alloc_bytes_per_byte"), value(coll, "peak_heap_mb")
assert coll_alloc <= 0.62, f"coll3d_x requests {coll_alloc:.3f} heap B per payload B (budget 0.62)"
assert coll_peak <= 17.7, f"coll3d_x peaks at {coll_peak:.2f} MiB of heap (budget 17.7)"
flash_alloc, flash_peak = value(flash, "alloc_bytes_per_byte"), value(flash, "peak_heap_mb")
assert flash_alloc <= 0.585, f"flash_ckpt requests {flash_alloc:.3f} heap B per payload B (budget 0.585)"
assert flash_peak <= 1.51, f"flash_ckpt peaks at {flash_peak:.2f} MiB of heap (budget 1.51)"
flash_write, flash_read = value(flash, "sim_write_mb_s"), value(flash, "sim_read_mb_s")
assert flash_write >= 51.53, f"flash_ckpt writes {flash_write:.3f} simulated MB/s (51.536 measured)"
assert flash_read >= 59.63, f"flash_ckpt reads {flash_read:.3f} simulated MB/s (59.631 measured)"
coll_write, coll_read = value(coll, "sim_write_mb_s"), value(coll, "sim_read_mb_s")
assert coll_write >= 172.30, f"coll3d_x writes {coll_write:.3f} simulated MB/s (172.309 measured)"
assert coll_read >= 189.27, f"coll3d_x reads {coll_read:.3f} simulated MB/s (189.277 measured)"
cached_alloc, cached_peak = value(cached, "alloc_bytes_per_byte"), value(cached, "peak_heap_mb")
assert cached_alloc <= 0.79, f"indep_rows_cached requests {cached_alloc:.3f} heap B per payload B (budget 0.79)"
assert cached_peak <= 8.56, f"indep_rows_cached peaks at {cached_peak:.2f} MiB of heap (budget 8.56)"
indep_write, indep_read = value(indep, "sim_write_mb_s"), value(indep, "sim_read_mb_s")
assert indep_write >= 0.2082, f"indep_rows writes {indep_write:.6f} simulated MB/s (0.208232 measured)"
assert indep_read >= 62.76, f"indep_rows reads {indep_read:.3f} simulated MB/s (62.768 measured)"
cached_write, cached_read = value(cached, "sim_write_mb_s"), value(cached, "sim_read_mb_s")
assert cached_write >= 98.13, f"indep_rows_cached writes {cached_write:.3f} simulated MB/s (98.131 measured)"
assert cached_read >= 103.49, f"indep_rows_cached reads {cached_read:.3f} simulated MB/s (103.494 measured)"
for name, r in (("indep_rows", indep), ("indep_rows_cached", cached)):
    for m in ("sim_write_mb_s", "sim_read_mb_s"):
        assert value(r, m) <= 110, f"{name}: {m} = {value(r, m):.3f} MB/s through one 110 MB/s client link"
print(f"    perf_bench --quick OK: every workload ran, every metric present; "
      f"indep_rows {alloc:.3f} heap B/B, coll3d_x {coll_alloc:.3f} heap B/B and "
      f"{coll_peak:.2f} MiB peak heap, flash_ckpt {flash_alloc:.3f} heap B/B and "
      f"{flash_peak:.2f} MiB peak heap, indep_rows_cached {cached_alloc:.3f} heap B/B and "
      f"{cached_peak:.2f} MiB peak heap, no failed operation")
EOF

echo "==> tools/hotspots.sh smoke: one flash_ckpt iteration under the sampler"
# The SIGPROF sampler behind EXPERIMENTS.md's sampler tables must still build,
# run and resolve frames through inlining: the FLASH write phase and the
# restart read phase have to show. The caller breakdown runs once, on the
# PFS read's scatter: every chain it prints must pass through try_read.
if command -v cc >/dev/null && command -v addr2line >/dev/null && command -v readelf >/dev/null; then
    tools/hotspots.sh flash_ckpt 1 write_as,read_pnetcdf Scatter::each >"$report_dir/hotspots.txt"
    for frame in write_as read_pnetcdf; do
        awk -v f="$frame" '$NF == f && $1 > 0 {ok = 1} END {exit !ok}' "$report_dir/hotspots.txt" \
            || { cat "$report_dir/hotspots.txt"; echo "FAIL: hotspots.sh did not resolve $frame"; exit 1; }
    done
    awk '/^callers of Scatter::each:/ {seen = 1; next} seen && !/try_read/ {bad = 1}
         END {exit !(seen && !bad)}' "$report_dir/hotspots.txt" \
        || { cat "$report_dir/hotspots.txt"; echo "FAIL: hotspots.sh's caller breakdown"; exit 1; }
    echo "    hotspots OK: $(head -n 1 "$report_dir/hotspots.txt"), write_as and read_pnetcdf resolved," \
        "$(grep '^callers of' "$report_dir/hotspots.txt")"
else
    echo "    skipped: cc, addr2line or readelf not found"
fi

echo "CI OK"
