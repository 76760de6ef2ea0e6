#!/usr/bin/env bash
# Checks that a change leaves the simulated figure reproductions byte-identical.
#
#   scripts/fig_diff.sh <rev>            # e.g. scripts/fig_diff.sh HEAD~1
#   KEEP=1 scripts/fig_diff.sh <rev>     # keep the temp dir (builds + outputs) for inspection
#
# Extracts <rev> with `git archive` into a temp dir and builds only the bench_fig5..8 targets
# (Release) for it and for the working tree, each in its own build directory inside the temp
# dir, so the working tree's own build/ is left alone. Each fig bench then runs once per tree
# (the two trees' runs side by side) and its stdout is diffed. The figures run in simulated
# time, so their stdout is deterministic: any difference means a simulated decision changed.
# TXCACHE_BENCH_* variables (scale, measure seconds) pass through to both runs alike.
#
# Exits 0 when all four figures match, 1 on any difference, 2 on a usage or build error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/fig_diff.sh <rev>" >&2
  exit 2
fi
REV="$1"
git rev-parse --verify --quiet "${REV}^{commit}" > /dev/null ||
  { echo "fig_diff.sh: unknown revision: $REV" >&2; exit 2; }

BENCHES=(bench_fig5_throughput bench_fig6_hitrate bench_fig7_staleness bench_fig8_miss_breakdown)
JOBS="$(nproc 2>/dev/null || echo 2)"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/fig_diff.XXXXXX")"
if [[ "${KEEP:-0}" == "1" ]]; then
  echo "fig_diff.sh: keeping $TMP"
else
  trap 'rm -rf "$TMP"' EXIT
fi

mkdir -p "$TMP/rev-src"
git archive "$REV" | tar -x -C "$TMP/rev-src"

build() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release > "$2.log" 2>&1 &&
    cmake --build "$2" -j "$JOBS" --target "${BENCHES[@]}" >> "$2.log" 2>&1 ||
    { echo "fig_diff.sh: build of $1 failed, see $2.log" >&2; return 1; }
}
build "$TMP/rev-src" "$TMP/rev-build" || exit 2
build "$PWD" "$TMP/work-build" || exit 2

status=0
for bench in "${BENCHES[@]}"; do
  "$TMP/rev-build/$bench" > "$TMP/$bench.rev.out" 2> /dev/null &
  rev_pid=$!
  "$TMP/work-build/$bench" > "$TMP/$bench.work.out" 2> /dev/null &
  work_pid=$!
  wait "$rev_pid" || { echo "fig_diff.sh: $bench failed at $REV" >&2; status=1; }
  wait "$work_pid" || { echo "fig_diff.sh: $bench failed in the working tree" >&2; status=1; }
  if diff -u "$TMP/$bench.rev.out" "$TMP/$bench.work.out"; then
    echo "$bench: identical"
  else
    echo "$bench: DIFFERS" >&2
    status=1
  fi
done
exit "$status"
