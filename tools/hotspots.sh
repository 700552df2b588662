#!/usr/bin/env bash
# Where a perf_bench workload spends its host CPU time, by function.
#
# Builds a small sampler with the system C compiler and preloads it into one
# `perf_bench --child W` process. The sampler takes a backtrace every 1 ms of
# process CPU time (ITIMER_PROF, any thread) and writes the samples and the
# process's memory map when the process exits. The frames are then resolved
# with `addr2line -f -i -C`, inlined frames included.
#
# Prints the total sample count, the self frames (the innermost frame of each
# sample that has line information: an anonymous libc frame, such as memcpy,
# is charged to its first Rust caller), and for each FRAME given, the samples
# with a frame whose function name contains it (inclusive; rows overlap).
# With SELF, it also breaks down the samples whose self frame contains SELF
# by caller: the ten most frequent chains of the five frames above it,
# innermost first, each named by its function (not by what is inlined
# into it).
#
# Usage: tools/hotspots.sh WORKLOAD [ITERS, default 20] [FRAME,FRAME,...] [SELF]
#   e.g. tools/hotspots.sh flash_ckpt 20 write_as,interior_buffer_into,build_region
#        tools/hotspots.sh flash_ckpt 20 '' __rust_alloc_zeroed
# Needs cc, addr2line, readelf and python3. perf_bench/Cargo.lock is restored.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 1 ] || { sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }
workload=$1
iters=${2:-20}
frames=${3:-}
self_frame=${4:-}
for tool in cc addr2line readelf python3; do
  command -v "$tool" >/dev/null || { echo "hotspots.sh: $tool not found" >&2; exit 2; }
done

work=$(mktemp -d)
cp perf_bench/Cargo.lock "$work/Cargo.lock"
trap 'cp "$work/Cargo.lock" perf_bench/Cargo.lock; rm -rf "$work"' EXIT

cat >"$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES 65536
#define DEPTH 64

static void *stacks[MAX_SAMPLES][DEPTH];
static int depths[MAX_SAMPLES];
static int taken;

/* The interrupted instruction first, then the return addresses above it:
 * the handler's own frames and the signal trampoline are cut off. */
static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig;
    (void)si;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
    void *pc = (void *)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
    void *buf[DEPTH + 8];
    int n = backtrace(buf, DEPTH + 8), k = 0;
    while (k < n && buf[k] != pc)
        k++;
    if (k == n) {
        stacks[i][0] = pc;
        depths[i] = 1;
        return;
    }
    int d = n - k < DEPTH ? n - k : DEPTH;
    memcpy(stacks[i], buf + k, d * sizeof(void *));
    depths[i] = d;
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder outside the handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOTSPOTS_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    fclose(maps);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        fputs("S", out);
        for (int k = 0; k < depths[i]; k++)
            fprintf(out, " %lx", (unsigned long)stacks[i][k]);
        fputs("\n", out);
    }
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

cargo build --release --offline --quiet --manifest-path perf_bench/Cargo.toml
HOTSPOTS_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" \
  perf_bench/target/release/perf_bench --child "$workload" --iters "$iters" >/dev/null

python3 - "$work/samples" "$frames" "$self_frame" <<'EOF'
import collections, re, subprocess, sys

maps, stacks = [], []
for line in open(sys.argv[1]):
    kind, rest = line[0], line[2:].split()
    if kind == "M" and len(rest) == 6:
        lo, hi = (int(x, 16) for x in rest[0].split("-"))
        maps.append((lo, hi, int(rest[2], 16), rest[5]))
    elif kind == "S":
        stacks.append([int(a, 16) for a in rest])

def loads(path):
    """(file offset, size, vaddr) of each LOAD segment of an ELF file."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    return [(int(m[1], 16), int(m[3], 16), int(m[2], 16))
            for m in re.finditer(r"LOAD\s+(0x\w+)\s+(0x\w+)\s+0x\w+\s+(0x\w+)", out)]

# Every frame but the interrupted one is a return address: look up the call.
wanted = collections.defaultdict(set)
where = {}
segments = {}
for stack in stacks:
    for k, addr in enumerate(stack):
        pc = addr if k == 0 else addr - 1
        if pc in where:
            continue
        hit = next((m for m in maps if m[0] <= pc < m[1]), None)
        if hit is None:
            where[pc] = None
            continue
        lo, _, off, path = hit
        if path not in segments:
            segments[path] = loads(path)
        foff = pc - lo + off
        seg = next((s for s in segments[path] if s[0] <= foff < s[0] + s[1]), None)
        vaddr = foff - seg[0] + seg[2] if seg else foff
        where[pc] = (path, vaddr)
        wanted[path].add(vaddr)

names = {}
for path, addrs in wanted.items():
    addrs = sorted(addrs)
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path],
                         input="".join(f"{a:#x}\n" for a in addrs),
                         capture_output=True, text=True).stdout.splitlines()
    cur, k = None, 0
    while k < len(out):
        if out[k].startswith("0x"):
            cur = int(out[k], 16)
            names[(path, cur)] = []
            k += 1
        else:
            # Without line information the name is only the nearest exported
            # symbol (stripped libc), so the frame counts as anonymous.
            if not out[k + 1].startswith("??"):
                names[(path, cur)].append(out[k])
            k += 2

def functions(stack):
    """Each frame's function names, innermost inline first; [] if anonymous."""
    for k, addr in enumerate(stack):
        loc = where.get(addr if k == 0 else addr - 1)
        yield names.get(loc, []) if loc else []

self_counts = collections.Counter()
stacks_named = []
for stack in stacks:
    fns = list(functions(stack))
    stacks_named.append(fns)
    first = next((f[0] for f in fns if f), "??")
    self_counts[first] += 1

total = len(stacks)
print(f"total samples: {total}")
print("self frames:")
for fn, n in self_counts.most_common(25):
    print(f"  {n:7d} {100 * n / max(total, 1):6.1f} %  {fn}")
patterns = [p for p in sys.argv[2].split(",") if p]
if patterns:
    print("inclusive:")
for p in patterns:
    n = sum(any(p in f for fns in s for f in fns) for s in stacks_named)
    print(f"  {n:7d} {100 * n / max(total, 1):6.1f} %  {p}")
def bare(name):
    """A function name without its generic arguments."""
    out, depth = [], 0
    for ch in name:
        depth += ch == "<"
        if depth == 0:
            out.append(ch)
        depth -= ch == ">" and depth > 0
    return "".join(out)

if sys.argv[3]:
    chains = collections.Counter()
    for fns in stacks_named:
        named = [frame for frame in fns if frame]
        if named and sys.argv[3] in named[0][0]:
            outer = [bare(frame[-1]) for frame in named[1:6]]
            chains[" < ".join(outer) or "(no caller)"] += 1
    n = sum(chains.values())
    print(f"callers of {sys.argv[3]}: {n} samples")
    for chain, k in chains.most_common(10):
        print(f"  {k:7d} {100 * k / max(n, 1):6.1f} %  {chain}")
EOF
