#!/usr/bin/env bash
# Tier-1 verify plus a ThreadSanitizer pass over the concurrency-sensitive tests.
#
#   scripts/check.sh                     # configure, build, ctest, then TSan concurrency tests
#   scripts/check.sh --labels eviction   # ctest filtered to a label (regex), e.g. the
#                                        # cost-aware policy suite; the TSan pass narrows to
#                                        # the same label
#   scripts/check.sh --labels membership # the elastic-membership/churn suite
#   scripts/check.sh --bench-smoke       # additionally Release-build every bench/micro_*
#                                        # binary and run it with tiny iteration counts, so
#                                        # benchmarks cannot bit-rot between perf PRs
#   scripts/check.sh --asan              # additionally build the whole tier-1 suite under
#                                        # AddressSanitizer+UBSan and run it (alongside the
#                                        # existing TSan set, which stays thread-focused)
#   scripts/check.sh --repeat 50         # additionally rerun the `concurrency` label with
#                                        # ctest --repeat until-fail:50 after tier-1 (and, with
#                                        # --asan, again under ASan), so an intermittent fault
#                                        # fails the run instead of passing by luck
#   SKIP_TSAN=1 scripts/check.sh         # tier-1 only
#
# Also fails fast if any tests/*_test.cc is missing from the registered ctest targets, so a
# new suite can never silently not build.
set -euo pipefail
cd "$(dirname "$0")/.."

LABELS=""
BENCH_SMOKE=0
ASAN=0
REPEAT=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --labels)
      [[ $# -ge 2 ]] || { echo "check.sh: --labels needs an argument" >&2; exit 2; }
      LABELS="$2"
      shift 2
      ;;
    --labels=*)
      LABELS="${1#*=}"
      shift
      ;;
    --bench-smoke)
      BENCH_SMOKE=1
      shift
      ;;
    --asan)
      ASAN=1
      shift
      ;;
    --repeat)
      [[ $# -ge 2 && "$2" =~ ^[1-9][0-9]*$ ]] ||
        { echo "check.sh: --repeat needs a positive count" >&2; exit 2; }
      REPEAT="$2"
      shift 2
      ;;
    *)
      echo "check.sh: unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"

# --- tier-1 verify ---
cmake -B build -S .

# Guard: every tests/*_test.cc must be a registered ctest target. The test list is built by a
# CMake GLOB, so a stale configure (or a future move away from globbing) could silently drop a
# suite — fail fast instead of green-lighting a build that never ran it.
registered="$(cd build && ctest -N)"
missing=0
for src in tests/*_test.cc; do
  name="$(basename "$src" .cc)"
  if ! grep -Eq "Test +#[0-9]+: ${name}\$" <<< "$registered"; then
    echo "check.sh: test suite '$name' (from $src) is not a registered ctest target" >&2
    missing=1
  fi
done
if [[ "$missing" != "0" ]]; then
  echo "check.sh: refusing to continue with unbuilt test suites" >&2
  exit 1
fi

cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS" ${LABELS:+-L "$LABELS"})

# The optimistic read-write transaction suite (label `txn`) is a standing gate: run it as a
# dedicated pass so a label rename or a GLOB miss can never leave serializability untested.
if [[ -z "$LABELS" ]]; then
  (cd build && ctest --output-on-failure -L txn)
fi

# --- repeated concurrency pass (opt-in) ---
# The concurrency suites race real threads, so a fault that strikes one run in ten passes a
# single run most of the time. Rerunning each until it fails (at most N times) makes it show.
if [[ "$REPEAT" != "0" ]]; then
  (cd build && ctest --output-on-failure -j "$JOBS" -L concurrency --repeat "until-fail:$REPEAT")
fi

# --- socket-transport parity pass ---
# The cross-node suites rerun with TXCACHE_TRANSPORT=socket: AddNode(CacheServer*) then
# self-hosts every node behind a real epoll NetServer and routes the data plane through the
# binary wire protocol over TCP. The parity contract (src/net/transport.h) says the answers
# are identical to loopback, so the SAME tests must pass unchanged — this pass is what
# enforces it. Scoped to the suites that exercise cluster routing; pure-unit suites gain
# nothing from riding a socket. sql_tag_derivation_test rides along: the derived-vs-handwritten
# equivalence diff and the derived-mode wiki/RUBiS end-to-end runs must hold identically when
# every cache lookup/insert crosses a real socket.
if [[ -z "$LABELS" ]]; then
  (cd build && TXCACHE_TRANSPORT=socket ctest --output-on-failure -j "$JOBS" \
      -R '^(core_lookup_semantics_test|core_client_test|core_invariant_property_test|membership_test|cache_replication_test|cache_write_tx_test|net_transport_test|sql_tag_derivation_test)$')
fi

# --- ThreadSanitizer build of the concurrency-sensitive tests ---
# cache_eviction_test and cache_property_test ride along: the eviction/admission suite must be
# deterministic AND data-race-free (its stats are read concurrently by the stress tests).
# membership_test rides along too: the join protocol and cluster membership mutex must stay
# race-free against the churn thread in concurrency_stress_test. cache_snapshot_test and
# cache_replication_test join them: snapshot persistence fires from Deliver and replica
# pushes/failover cross node boundaries, both of which must stay race-free.
# cache_write_tx_test (label txn) completes the set: write intents and commit-time read
# validation race against the invalidation stream and concurrent zero-copy readers.
# net_transport_test joins them: epoll workers, pipelined clients and the socket no-stale-read
# property test are the transport's own race surface.
# sql_test and sql_tag_derivation_test (label sql) join them: the derivation suites drive full
# client/cache/bus stacks, and cache_property_test's derived-tag interleavings already ride
# here — the front-end suites must be equally clean under TSan.
if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  TSAN_TARGETS=(concurrency_stress_test cache_shard_test cache_eviction_test cache_property_test
                membership_test cache_readpath_test cache_admission_sizing_test cache_ebr_test
                cache_snapshot_test cache_replication_test cache_write_tx_test net_transport_test
                sql_test sql_tag_derivation_test)
  cmake -B build-tsan -S . -DTXCACHE_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$JOBS" --target "${TSAN_TARGETS[@]}"
  if [[ -n "$LABELS" ]]; then
    (cd build-tsan && ctest --output-on-failure -L "$LABELS" \
        -R "$(IFS='|'; echo "${TSAN_TARGETS[*]}")")
  else
    (cd build-tsan && ctest --output-on-failure -R "$(IFS='|'; echo "${TSAN_TARGETS[*]}")")
  fi
fi

# --- AddressSanitizer + UndefinedBehaviorSanitizer pass (opt-in) --------------
# The full tier-1 test suite, rebuilt with -fsanitize=address,undefined. Complements the
# TSan pass above: TSan finds races, ASan/UBSan find the lifetime and arithmetic bugs the
# zero-copy aliasing and multi-MB buffer paths could hide. detect_leaks stays on (default);
# halt_on_error makes UBSan findings fail the run instead of scrolling past.
if [[ "$ASAN" == "1" ]]; then
  cmake -B build-asan -S . -DTXCACHE_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS"
  (cd build-asan && UBSAN_OPTIONS=halt_on_error=1 \
      ctest --output-on-failure -j "$JOBS" ${LABELS:+-L "$LABELS"})
  if [[ "$REPEAT" != "0" ]]; then
    (cd build-asan && UBSAN_OPTIONS=halt_on_error=1 \
        ctest --output-on-failure -j "$JOBS" -L concurrency --repeat "until-fail:$REPEAT")
  fi
fi

# --- benchmark smoke (opt-in) -------------------------------------------------
# Release-builds every bench/micro_* binary with -DTXCACHE_LOCK_STATS=OFF — the measured hot
# path must carry no lock-acquisition accounting — and runs it with tiny iteration counts.
# Gates are disabled (TXCACHE_BENCH_GATE=0): the point is that the binaries still build and
# run end to end (including the micro_lookup_hotpath thread sweep), not that a 0.2 s run
# clears a throughput bar. Smoke-run BENCH_*.json artifacts land in build-bench/ — NOT the
# repo root, whose checked-in JSONs hold full-length measured runs — and each one is then
# checked for its gate/headline keys, so a benchmark that silently stops emitting the metric
# a gate reads fails here instead of after a perf PR lands.
if [[ "$BENCH_SMOKE" == "1" ]]; then
  micro_targets=()
  for src in bench/micro_*.cc; do
    micro_targets+=("bench_$(basename "$src" .cc)")
  done
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DTXCACHE_LOCK_STATS=OFF
  cmake --build build-bench -j "$JOBS" --target "${micro_targets[@]}"
  for target in "${micro_targets[@]}"; do
    echo "check.sh: bench smoke: $target"
    if [[ "$target" == "bench_micro_components" ]]; then
      # google-benchmark binary: bound wall time through its own flag.
      TXCACHE_BENCH_JSON_DIR=build-bench \
      ./build-bench/"$target" --benchmark_min_time=0.01 >/dev/null
    else
      TXCACHE_BENCH_SCALE=0.005 TXCACHE_BENCH_MEASURE_S=0.2 TXCACHE_BENCH_GATE=0 \
      TXCACHE_BENCH_OPS=2000 TXCACHE_BENCH_JSON_DIR=build-bench \
      ./build-bench/"$target" >/dev/null
    fi
  done

  # Gate-key presence check: every metric a bench gate (or the cross-PR tracking) reads must
  # appear in the JSON the smoke run just produced.
  declare -A required_keys=(
    [lookup_hotpath]="gate_single_shard_4k_speedup scaling_8t_over_1t"
    [shard_scaling]="gate_16_shard_speedup"
    [membership_churn]="leave_remapped_fraction recovered_fraction_of_steady warm_rejoin_hit_rate flash_crowd_floor join_snapshot_restores"
    [large_values]="recompute_saved_with_feedback ttl_consistency_miss_reduction"
    [write_tx]="abort_rate commit_throughput no_stale_reads"
    [net_rpc]="pipeline_speedup p99_us conns_128_mops"
  )
  for bench in "${!required_keys[@]}"; do
    json="build-bench/BENCH_${bench}.json"
    if [[ ! -f "$json" ]]; then
      echo "check.sh: bench smoke did not produce $json" >&2
      exit 1
    fi
    for key in ${required_keys[$bench]}; do
      if ! grep -q "\"$key\"" "$json"; then
        echo "check.sh: $json is missing required key \"$key\"" >&2
        exit 1
      fi
    done
  done
fi

echo "check.sh: all green"
