#!/usr/bin/env sh
# Differential fuzz campaign under AddressSanitizer + UBSan:
# configures a dedicated build tree with -DRADB_SANITIZE=address,undefined,
# builds the fuzz_queries driver, replays the pinned regression seeds,
# then runs a seeded random sweep (>= 500 queries, each executed under
# all twelve engine configurations — {DP, greedy, no-early-projection}
# x {1t, 8t} x {row, batch} — and compared cell-exactly against the
# brute-force reference evaluator). Exits non-zero on any divergence
# or sanitizer report; divergences are shrunk to a minimal repro to
# paste into src/testing/regression_seeds.h.
#
# Usage: scripts/fuzz.sh [build-dir] [queries] [seed]
#   defaults: build-fuzz 600 1
set -eu

BUILD_DIR="${1:-build-fuzz}"
QUERIES="${2:-600}"
SEED="${3:-1}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

cmake -S "$(dirname "$0")/.." -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRADB_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j "$JOBS" --target fuzz_queries
# halt_on_error so a UBSan report fails the run instead of scrolling by.
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  "$BUILD_DIR/bench/fuzz_queries" --queries "$QUERIES" --seed "$SEED"

# Tight-budget pass: rerun the SQL-LA / aggregation suites with a
# 16 MB per-query memory budget (ctest label memory_budget), so the
# spill paths face the same assertions as the unbudgeted runs —
# under the sanitizers.
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target sql_la_test sql_agg_test
(cd "$BUILD_DIR" && ctest -L memory_budget --output-on-failure)

# Concurrency pass: the service/cancellation suites and the
# multi-session bench smoke under ASan+UBSan (scripts/stress.sh runs
# the same label under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target service_test cancel_test exec_context_test systab_test \
  ablation_concurrency
(cd "$BUILD_DIR" && ctest -L concurrency --output-on-failure)

# Observability pass: system tables, telemetry ring, exporter — the
# same `obs` label scripts/stress.sh runs under TSan.
(cd "$BUILD_DIR" && ctest -L obs --output-on-failure)

# Vectorized engine pass: the row-vs-batch bit-identity battery and
# selection-vector edge cases under ASan+UBSan — columnar kernels index
# through selection vectors, so out-of-bounds lane math surfaces here
# first (scripts/stress.sh runs the same label under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" --target vectorized_test
(cd "$BUILD_DIR" && ctest -L vectorized --output-on-failure)

# Cache pass: plan/result cache hit/miss/invalidation suites and the
# cache ablation smoke (label `cache`), then the DDL-interleaved
# differential rounds — caches-on vs caches-off databases replaying
# hot statements across INSERT / CREATE-DROP / PREPARE churn — all
# under ASan+UBSan. A stale-cache bug surfaces here as a divergence;
# a lifetime bug in the shared entries surfaces as a sanitizer report
# (scripts/stress.sh runs the same label + rounds under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" --target cache_test ablation_cache
(cd "$BUILD_DIR" && ctest -L cache --output-on-failure)
"$BUILD_DIR/bench/fuzz_queries" --queries 0 --ddl-churn 200 --seed "$SEED"

# Storage pass: the persistence battery (pager/B+ tree/buffer-pool
# units, cold restarts, fork+SIGKILL crash recovery, larger-than-pool
# scans) and the fuzzer's close-reopen-compare rounds — page-file and
# WAL framing code is pointer-heavy, so ASan+UBSan is its first line
# of defense (scripts/stress.sh runs the same label under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" --target persist_test ablation_storage
(cd "$BUILD_DIR" && ctest -L storage --output-on-failure)
"$BUILD_DIR/bench/fuzz_queries" --queries 0 --reopen 8 --seed "$SEED"

# Sparse pass: CSR/COO kernels, semiring dispatch, sparse Value
# serialization through spill / cache / reopen, and the graph
# workload — pointer-walking CSR merge loops are classic off-by-one
# territory, so ASan+UBSan runs the whole label (scripts/stress.sh
# runs the same label under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" --target sparse_test ablation_sparse
(cd "$BUILD_DIR" && ctest -L sparse --output-on-failure)
