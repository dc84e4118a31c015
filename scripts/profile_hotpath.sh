#!/usr/bin/env bash
# Samples the simulator hot path with `perf` and prints the top symbols,
# so perf hunts can work from real profile data instead of the coarse
# per-stage wall-clock attribution of the host benchmark.
#
# Usage:
#   scripts/profile_hotpath.sh [top-N]        # default: top 25 symbols
#
# Requires Linux `perf` (linux-tools). When perf is unavailable — not
# installed, or the kernel forbids sampling (perf_event_paranoid) — the
# script says so and exits non-zero rather than silently printing nothing;
# fall back to the `sim.stage.*_pct` metrics of
# `python3 hostbench/run.py --workload kernel-mem4 --trace 1`.
set -euo pipefail
cd "$(dirname "$0")/.."

TOP="${1:-25}"

if ! command -v perf >/dev/null 2>&1; then
    echo "profile_hotpath: \`perf\` is not installed on this host." >&2
    echo "  Install linux-tools (e.g. apt install linux-perf) to sample the hot path." >&2
    echo "  Until then, the stage-level attribution is the available signal:" >&2
    echo "  python3 hostbench/run.py --workload kernel-mem4 --seed 42 --seconds 5 --trace 1" >&2
    echo "  reports it as sim.stage.*_pct." >&2
    exit 2
fi

PARANOID="$(cat /proc/sys/kernel/perf_event_paranoid 2>/dev/null || echo '?')"
if [[ "$PARANOID" != "?" && "$PARANOID" -gt 2 ]]; then
    echo "profile_hotpath: kernel.perf_event_paranoid=$PARANOID forbids sampling." >&2
    echo "  Lower it (sysctl kernel.perf_event_paranoid=1) or run with CAP_PERFMON." >&2
    exit 2
fi

# Debug symbols without losing optimisation: hostbench's release profile
# plus debuginfo, so perf resolves inlined hot-path symbols. A target
# directory of its own keeps hostbench/run.py's build untouched.
export CARGO_PROFILE_RELEASE_DEBUG=true
export CARGO_TARGET_DIR=target/profile-hotpath
cargo build --release --offline --quiet --manifest-path hostbench/Cargo.toml

DATA="$(mktemp --suffix=.perf.data)"
trap 'rm -f "$DATA"' EXIT

# The stall-bound kernel: nine policies on the MEM 4-thread mixes, so the
# events, fast-forward and fetch paths all carry time.
perf record -o "$DATA" --call-graph dwarf -F 997 -- \
    "$CARGO_TARGET_DIR/release/hostbench" --workload kernel-mem4 --seed 42 \
    --seconds 5 --trace 0 >/dev/null

echo
echo "== top $TOP symbols (self time) =="
perf report -i "$DATA" --stdio --no-children --percent-limit 0.5 2>/dev/null \
    | grep -v '^#' | grep -v '^$' | head -n "$TOP"
