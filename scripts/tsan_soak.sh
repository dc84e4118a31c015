#!/usr/bin/env bash
# Runs the chaos-soak suite under ThreadSanitizer: the worker pool's
# shared work queue, the single-flight prewarm memo and the baseline
# cache are the only concurrent code in the workspace, and the soak
# drives them through hundreds of good/faulty runs per pool width —
# exactly the workload a data race would hide in.
#
# Usage:
#   scripts/tsan_soak.sh
#
# TSan needs the nightly toolchain (-Zsanitizer is unstable) plus the
# rust-src component (-Zbuild-std instruments std itself; without that,
# std's allocator/locks are uninstrumented and TSan false-positives).
# When either is missing the script explains how to get them and exits 0,
# so the CI job is advisory on runners without nightly rather than red.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "tsan_soak: no nightly toolchain; ThreadSanitizer needs -Zsanitizer (unstable)." >&2
    echo "  Install one with: rustup toolchain install nightly" >&2
    echo "  Skipping the TSan soak (the plain chaos_soak suite still runs in CI)." >&2
    exit 0
fi

if ! rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src.*(installed)'; then
    echo "tsan_soak: nightly is missing the rust-src component (-Zbuild-std needs it)." >&2
    echo "  Install it with: rustup component add rust-src --toolchain nightly" >&2
    echo "  Skipping the TSan soak (the plain chaos_soak suite still runs in CI)." >&2
    exit 0
fi

HOST="$(rustc -vV | sed -n 's/^host: //p')"

echo "tsan_soak: running chaos_soak under ThreadSanitizer on $HOST (nightly, build-std)"
RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target "$HOST" --release \
    -p dcra-smt --test chaos_soak
echo "tsan_soak: clean — no data races reported."
