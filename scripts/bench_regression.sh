#!/usr/bin/env bash
# Re-runs the four benchmark sweeps and diffs each against its committed
# baseline. Every gate lives in the sweep binaries, driven by the field
# roles of the row schemas in crates/bench/src/lib.rs (SOLVER, RUNTIME,
# EPOCHS, GOSSIP): identity fields pair rows, exact fields must match,
# wall_ms may not regress by more than 20% on rows of 250 ms and up,
# informational fields are never gated, and each schema's invariants hold
# every fresh row whether or not a baseline row matches it.
#
# Solver (BENCH_solver.json): seed-deterministic counters exact, wall with
# tolerance, a blown --budget-ms fails; whenever the sweep reaches n=1e6
# the certified warm replay must settle checks from certificates
# (certificate_skips + coarse_cert_hits > 0). Extra flags are forwarded to
# solver_scale verbatim; baseline rows above --max-n are not compared.
#
# Runtime (BENCH_runtime.json): the threaded-runtime smoke sweep over the
# channel and loopback-socket transports; commits and twin status exact.
# Any twin divergence fails on its own, baseline or not.
#
# Epochs (BENCH_epochs.json): the chain x churn replay scenarios;
# solver-work counters exact, bracket_divergence informational, plus the
# epochs bin's own --ci-smoke gates.
#
# Gossip (BENCH_gossip.json): the overlay dissemination sweep (--ci-smoke
# drops the two slow cells); simulator counters exact, threaded rows on
# reach and twin status, reach 100% and overlay beating the n^2 flood at
# n >= 256 on every fresh row.
#
# Runtime, epochs and gossip compare only the baseline rows the fresh run
# covers. Fresh rows go to temporary files; the baselines are only read.
#
# Usage: scripts/bench_regression.sh [--max-n N] [--budget-ms MS]
set -euo pipefail

cd "$(dirname "$0")/.."

FRESH="$(mktemp -d /tmp/bench_regression.XXXXXX)"
trap 'rm -rf "$FRESH"' EXIT

cargo run --release -p swiper-bench --bin solver_scale -- \
    --out "$FRESH/solver.json" --diff BENCH_solver.json "$@"
cargo run --release -p swiper-bench --bin runtime_scale -- \
    --ci-smoke --transport both --out "$FRESH/runtime.json" --diff BENCH_runtime.json
cargo run --release -p swiper-bench --bin epochs -- \
    --ci-smoke --quiet --out "$FRESH/epochs.json" --diff BENCH_epochs.json
cargo run --release -p swiper-bench --bin gossip_scale -- \
    --ci-smoke --out "$FRESH/gossip.json" --diff BENCH_gossip.json
