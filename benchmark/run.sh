#!/usr/bin/env bash
# The repo's benchmark, one command:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, result line last
#   benchmark/run.sh [--seed N] [--seconds S] [--repeats R]          every workload, full ledger
#   benchmark/run.sh --agree                                         two sets of the same build, compared
#   benchmark/run.sh --quick                                         every code path in ~30 s
#   benchmark/run.sh --spec                                          print BENCHMARK.json from the tables
#
# Builds the release binaries and the harness from source, runs, checks
# outputs, prints every metric by name with its unit and writes results
# under benchmark/out/. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"

# One target directory for both workspaces, so set-up never compiles the
# repo's crates twice. A relative CARGO_TARGET_DIR means "inside the repo".
target="${CARGO_TARGET_DIR:-$repo/target}"
case "$target" in
    /*) ;;
    *) target="$repo/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build logs go to stderr; stdout carries only the harness's report.
cargo build --release --offline --manifest-path "$repo/Cargo.toml" \
    -p ccfuzz-corpus --bins >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

# All scratch state lives under one fresh directory, removed on exit. It is
# inside the checkout (never /tmp) so the checkpoint and corpus fsyncs hit
# the same disk a user's would.
mkdir -p "$here/out"
scratch="$(mktemp -d -p "$here/out" scratch.XXXXXX)"
cleanup() {
    # A harness killed mid-run may leave children behind in their own
    # process groups; everything it spawns runs from this scratch directory.
    pkill -KILL -f "$scratch" 2>/dev/null || true
    rm -rf "$scratch"
}
trap cleanup EXIT
trap 'exit 143' TERM INT

# In the background and waited for, so that a TERM/INT reaches the traps at
# once instead of after the harness has finished.
"$target/release/ccfuzz-benchmark" \
    --repo "$repo" --bin-dir "$target/release" \
    --scratch "$scratch" --out "$here/out" "$@" &
wait $!
