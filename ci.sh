#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tier-1 tests (default and
# `parallel` feature) plus the workspace crates' own tests. Run from the
# repo root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

# --shard-stress: loop the cross-runtime equivalence suite and the
# multi-worker ThreadWorld tests 20x to shake out scheduling races in
# the sharded/threaded paths, then exit. Does not run the normal gate.
# --query-stress: hammer the ANN query tier — 10 iterations of the ANN
# suite at 10^4 consumers plus the query-tier property tests, then the
# full-scale query bench including the 10^6-consumer axis. Does not run
# the normal gate.
# --recovery-stress: loop the crash-point matrix and WAL property tests
# 10x (both feature sets, so the sharded/threaded recovery paths get
# shaken too), then the full E14 recovery series. Does not run the
# normal gate.
# --resilience-stress: loop the self-healing suite 10x on both feature
# sets — the 32-seed supervised chaos sweep, the DES ≡ ThreadWorld
# failover/hang equivalence (real threads + wall-clock leases, the racy
# part) and the file-WAL torn-tail properties — then the full E15
# MTTR/overhead series. Does not run the normal gate.
if [[ "${1:-}" == "--resilience-stress" ]]; then
  echo "==> resilience stress (10x supervised sweep + runtime equivalence, both feature sets)"
  for i in $(seq 1 10); do
    echo "--- iteration $i/10 ---"
    cargo test -q --release --test resilience
    cargo test -q --release --test resilience --features parallel
    cargo test -q --release -p simdb --test file_wal
  done
  echo "==> full E15 resilience series"
  cargo bench -p bench --bench resilience
  echo "resilience stress green."
  exit 0
fi
if [[ "${1:-}" == "--recovery-stress" ]]; then
  echo "==> recovery stress (10x crash-point matrix + WAL properties, both feature sets)"
  for i in $(seq 1 10); do
    echo "--- iteration $i/10 ---"
    cargo test -q --release --test recovery
    cargo test -q --release --test recovery --features parallel
    cargo test -q --release --test properties durable_replay
    cargo test -q --release --test properties any_torn_log_prefix
    cargo test -q --release --test properties crash_preserves
  done
  echo "==> full E14 recovery series"
  cargo bench -p bench --bench recovery
  echo "recovery stress green."
  exit 0
fi
if [[ "${1:-}" == "--query-stress" ]]; then
  echo "==> query stress (10x ANN suite @ 10^4 users + query-tier property tests)"
  for i in $(seq 1 10); do
    echo "--- iteration $i/10 ---"
    ANN_USERS=10000 cargo test -q --release --test ann
    cargo test -q --release --test properties incremental_index_matches_rebuild
    cargo test -q --release --test properties ann_neighbours_subset
  done
  echo "==> full query scaling bench (QUERY_BENCH_FULL=1: 10^4/10^5/10^6 axis)"
  QUERY_BENCH_FULL=1 cargo bench -p bench --bench query_hot_path
  echo "query stress green."
  exit 0
fi

if [[ "${1:-}" == "--shard-stress" ]]; then
  echo "==> shard stress (20x cross-runtime equivalence + multi-worker thread tests)"
  for i in $(seq 1 20); do
    echo "--- iteration $i/20 ---"
    cargo test -q --test equivalence cross_runtime
    cargo test -q -p agentsim thread_net::tests::multi_worker
    cargo test -q -p agentsim thread_net::tests::dispose_while_deactivated
  done
  echo "shard stress green."
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (default features)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone -D clippy::large_enum_variant -D clippy::dbg_macro -D clippy::needless_collect

echo "==> cargo clippy (--features parallel)"
cargo clippy --workspace --all-targets --features parallel -- -D warnings -D clippy::redundant_clone -D clippy::large_enum_variant -D clippy::dbg_macro -D clippy::needless_collect

# The WAL/store layer must not panic on malformed durable input: hold
# simdb to the stricter no-unwrap bar (its tests opt out locally).
echo "==> cargo clippy -p simdb (-D clippy::unwrap_used)"
cargo clippy -p simdb --all-targets -- -D warnings -D clippy::unwrap_used

# The runtime that supervises everyone else must not panic itself: hold
# agentsim to the no-panic bar (its tests opt out locally).
echo "==> cargo clippy -p agentsim (-D clippy::panic)"
cargo clippy -p agentsim --all-targets -- -D warnings -D clippy::panic

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1)"
cargo test -q

# `cargo test` at the root runs only the root package; the crates' own
# unit and integration tests (durable store, marketplace, runtimes,
# simdb, ...) run here.
echo "==> cargo test (workspace crates)"
cargo test -q --workspace --exclude abcrm

echo "==> cargo test --features parallel"
cargo test -q --features parallel

# Benchmark smoke: e2ebench is a workspace of its own, so the root build
# never compiles it. Its toy-size tests drive the public platform API it
# benchmarks; a core API change that breaks the benchmark fails here.
echo "==> e2ebench smoke tests"
cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml

# Chaos seed sweep: quick mode pins an 8-seed threaded matrix (the DES
# side always runs all 32 seeds); CHAOS_FULL=1 widens the threaded
# matrix to 32. Failures print the offending (seed, plan) JSON line —
# replay with: CHAOS_SEED=<seed> cargo test --test chaos repro_single_seed
if [[ "${CHAOS_FULL:-0}" == "1" ]]; then
  echo "==> chaos sweep (full: 32 seeds per runtime)"
  CHAOS_SEEDS=32 cargo test -q --test chaos
else
  echo "==> chaos sweep (quick: 8 threaded seeds; CHAOS_FULL=1 for 32)"
  CHAOS_SEEDS=8 cargo test -q --test chaos
fi

# Telemetry smoke: drive the quickstart workflows with tracing on,
# export the Chrome trace_event JSON and self-validate its schema (the
# binary exits non-zero on an invalid document), then measure the
# disabled-path overhead in bench quick mode.
echo "==> telemetry smoke (traced quickstart + chrome-trace schema)"
CHROME_TRACE_OUT="$(mktemp)"
cargo run --release -p bench --bin telemetry_report -- --quick --chrome-out "$CHROME_TRACE_OUT" >/dev/null
test -s "$CHROME_TRACE_OUT"
rm -f "$CHROME_TRACE_OUT"

# Shard smoke: the sharded quickstart at 1/2/4 shards. The 1-shard run
# self-checks byte-identity against the unsharded platform (trace labels
# and metrics); multi-shard runs assert every boundary migration
# authenticates.
echo "==> shard smoke (sharded quickstart at 1/2/4 shards)"
for n in 1 2 4; do
  cargo run --release -q --example sharded -- "$n" >/dev/null
done

# ANN smoke: oracle equivalence, subset/score agreement and the 0.95
# recall floor at 10^4 consumers, on both feature sets — plus the
# zero-allocation gate on the warm candidate path.
echo "==> ann smoke (exact ≡ oracle + recall floor @ 10^4 users, both feature sets)"
ANN_USERS=10000 cargo test -q --release --test ann
ANN_USERS=10000 cargo test -q --release --test ann --features parallel
cargo bench -p bench --bench query_hot_path -- --assert-no-alloc

echo "==> bench smoke (quick mode; includes telemetry-overhead gate)"
PLATFORM_BENCH_QUICK=1 cargo bench -p bench --bench platform_throughput
cargo bench -p bench --bench query_hot_path

# Overload smoke: the E12 series in quick mode (100 requests) — admission
# shedding, bounded-mailbox depth and deadline accounting on the full
# platform — plus the dedicated behavioural suite.
echo "==> overload smoke (quick E12 series + tests/overload.rs)"
OVERLOAD_BENCH_QUICK=1 cargo bench -p bench --bench overload
cargo test -q --test overload

# Recovery smoke: the crash-point matrix (every stage of the Fig 4.3
# buy, ledger resolution, byte-identity with durability off, sharded
# crash at 1/2/4 shards, DES ≡ ThreadWorld outcome classes) on both
# feature sets, plus the quick E14 recovery-cost series.
echo "==> recovery smoke (crash-point matrix, both feature sets + quick E14 series)"
cargo test -q --test recovery
cargo test -q --test recovery --features parallel
RECOVERY_BENCH_QUICK=1 cargo bench -p bench --bench recovery

# Resilience smoke: self-healing supervision (unarmed byte-identity,
# the 32-seed supervised sweep with zero manual restarts, crash
# failover, hang bouncing, quarantine, DES ≡ ThreadWorld outcome
# classes) on both feature sets, plus the quick E15 MTTR series.
echo "==> resilience smoke (self-healing suite, both feature sets + quick E15 series)"
cargo test -q --test resilience
cargo test -q --test resilience --features parallel
RESILIENCE_BENCH_QUICK=1 cargo bench -p bench --bench resilience

echo "CI green."
