#!/usr/bin/env bash
# The benchmark's one command. Builds the package offline (release),
# then either
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one measured run; the last stdout line is the result object
#       (this is how BENCHMARK.json's `command` is called), or
#   run.sh [--smoke] [--seed N] [--reps R] [--only W]
#       the whole suite: every workload R times in fresh child processes,
#       one traced run per workload (which ends with the layer probes),
#       the checks, the table, benchmark/out/results.json and
#       benchmark/out/trace-*.json.
# Run it from the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build products stay inside the checkout: where CARGO_TARGET_DIR says,
# or target/benchmark beside the repo's own target directory.
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"

# One malloc arena: with glibc's per-thread arenas the resident peak of
# tcp_hard (socket service threads) varied 54-89 MiB between identical
# runs; with one it repeats to 0.3 MiB. The engine workloads have one
# thread and do not notice.
export MALLOC_ARENA_MAX=1

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

# One CPU, the last this shell may use (interrupts favour the first).
# Every workload has one driver thread; tcp_hard's socket service
# threads only ever run while the driver waits for them. Spread over two
# cores each of its calls pays a cross-core wake-up: 8 kops/s, or 23
# when the scheduler happens to keep the threads together. Pinned it is
# 23 every time.
pin=()
if command -v taskset >/dev/null; then
    cpu="$(taskset -cp $$ | sed 's/.*[:, -]//')"
    pin=(taskset -c "$cpu")
fi

bin="$target/release/arkfs-benchmark"
case " $* " in
    *" --workload "*) exec ${pin[@]+"${pin[@]}"} "$bin" run --out "$here/out" "$@" ;;
    *) exec ${pin[@]+"${pin[@]}"} "$bin" suite --out "$here/out" "$@" ;;
esac
