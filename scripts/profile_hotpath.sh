#!/usr/bin/env bash
# Samples the host benchmark's hot path and prints where the CPU time
# goes, below the per-stage attribution of `hostbench --trace 1`.
#
# Usage: scripts/profile_hotpath.sh [--workload W] [top-N]
#
# W is a hostbench workload (default kernel-mem4); top-N (default 25)
# bounds each table. With Linux `perf` available and permitted it prints
# the top symbols. Otherwise it loads a small SIGPROF sampler with
# LD_PRELOAD: an ITIMER_PROF timer records the interrupted instruction
# pointer, and at exit the sampler writes /proc/self/maps and the
# samples. `addr2line -a -f -i` then attributes each sample to its
# innermost source line, to a stage bucket (crate and file of the
# innermost in-repo frame) and, inclusively, to every distinct function
# of its inline chain (generic arguments dropped), so a helper inlined
# into many callers, such as a `BinaryHeap` sift, shows as one row
# rather than scattered over `index.rs` and `ptr` lines. The inclusive
# shares add up to more than 100%. The kernel tick caps the rate at about 250
# samples per CPU-second. The fallback needs gcc, addr2line, readelf
# and python3.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD=kernel-mem4
if [[ "${1:-}" == "--workload" ]]; then
    WORKLOAD="${2:?--workload needs a value}"
    shift 2
fi
TOP="${1:-25}"

# Debug symbols without losing optimisation: hostbench's release profile
# plus debuginfo, so samples resolve to inlined hot-path source lines. A
# target directory of its own keeps hostbench/run.py's build untouched.
export CARGO_PROFILE_RELEASE_DEBUG=true
export CARGO_TARGET_DIR=target/profile-hotpath
cargo build --release --offline --quiet --manifest-path hostbench/Cargo.toml
BIN="$CARGO_TARGET_DIR/release/hostbench"
RUN=("$BIN" --workload "$WORKLOAD" --seed 42 --seconds 5 --trace 0)

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

PARANOID="$(cat /proc/sys/kernel/perf_event_paranoid 2>/dev/null || echo 3)"
if command -v perf >/dev/null 2>&1 && [[ "$PARANOID" -le 2 ]]; then
    perf record -o "$TMP/perf.data" --call-graph dwarf -F 997 -- "${RUN[@]}" >/dev/null
    echo
    echo "== top $TOP symbols (self time) =="
    perf report -i "$TMP/perf.data" --stdio --no-children --percent-limit 0.5 2>/dev/null \
        | grep -v '^#' | grep -v '^$' | head -n "$TOP"
    exit 0
fi

echo "profile_hotpath: perf unavailable; sampling with SIGPROF instead." >&2
cat >"$TMP/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES];
static long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(getenv("SIGPROF_OUT"), "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    for (long i = 0; i < taken && i < MAX_SAMPLES; i++) fprintf(out, "pc %lx\n", samples[i]);
    fclose(maps), fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
EOF
gcc -O2 -shared -fPIC -o "$TMP/sampler.so" "$TMP/sampler.c"
LD_PRELOAD="$TMP/sampler.so" SIGPROF_OUT="$TMP/samples" "${RUN[@]}" >/dev/null

python3 - "$BIN" "$TMP/samples" "$TOP" <<'EOF'
import collections, os, re, subprocess, sys

binary, samples, top = os.path.realpath(sys.argv[1]), sys.argv[2], int(sys.argv[3])
maps, pcs = [], []
for line in open(samples):
    kind, rest = line.split(" ", 1)
    if kind == "pc":
        pcs.append(int(rest, 16))
        continue
    f = rest.split()
    if len(f) >= 6 and os.path.realpath(f[5]) == binary:
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16)))
# File offset -> link-time address, through the LOAD program headers.
loads = []
for line in subprocess.run(["readelf", "-lW", binary], capture_output=True,
                           text=True, check=True).stdout.splitlines():
    f = line.split()
    if f and f[0] == "LOAD":
        loads.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
def vaddr(pc):
    for lo, hi, off in maps:
        if lo <= pc < hi:
            o = pc - lo + off
            for fo, va, size in loads:
                if fo <= o < fo + size:
                    return o - fo + va
    return None
addrs = [vaddr(pc) for pc in pcs]
uniq = sorted({a for a in addrs if a is not None})
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                     input="".join(f"{a:#x}\n" for a in uniq),
                     capture_output=True, text=True, check=True).stdout.splitlines()
# Per address: the address line, then (function, file:line) pairs from
# the innermost inlined frame outwards.
frames, cur, func = {}, None, None
for line in out:
    if line.startswith("0x"):
        cur, func = int(line, 16), None
        frames[cur] = []
    elif func is None:
        func = line
    else:
        frames[cur].append((func, line.split(" (discriminator")[0]))
        func = None
root = os.getcwd() + "/"
def bucket(loc):  # "crate:file" for frames inside this repository
    rel = loc[len(root):].removeprefix("crates/") if loc.startswith(root) else None
    return rel and re.sub(r"/(src|benches)/(.*)\.rs:.*", r":\2", rel)
def function(name):  # without generic arguments or symbol hash
    out, depth, prev = [], 0, ""
    for ch in name:
        if ch == "<" and (depth or (out and (out[-1].isalnum() or out[-1] == "_"))):
            depth += 1
        elif ch == ">" and depth and prev != "-":  # not the arrow of `fn() -> T`
            depth -= 1
        elif not depth:
            out.append(ch)
        prev = ch
    return re.sub(r"::h[0-9a-f]{16}$", "", "".join(out))
lines, buckets, funcs = (collections.Counter() for _ in range(3))
for a in addrs:
    chain = frames.get(a, []) if a is not None else []
    func, loc = chain[0] if chain else ("", "(outside the binary)")
    lines[f"{loc.rsplit('/', 1)[-1]:28} {func[:70]}"] += 1
    inner = next((b for b in (bucket(l) for _, l in chain) if b), None)
    buckets[inner or "(std, libc, kernel)"] += 1
    funcs.update({function(f)[:100] for f, _ in chain})
n = len(pcs) or 1
print(f"\n== {len(pcs)} samples ==")
for title, table in (("innermost source lines", lines), ("stage buckets", buckets),
                     ("functions, inclusive of what is inlined into them", funcs)):
    print(f"\n== top {top} {title} ==")
    for key, c in table.most_common(top):
        print(f"{100 * c / n:6.2f}%  {key}")
EOF
