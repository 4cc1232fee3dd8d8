#!/usr/bin/env bash
# Compare a bench JSON with its committed baseline:
#
#   bash .github/scripts/check-regression.sh BENCH_binning.json
#
# Exit 1 from check-regression (a regression) fails the step. Exit 2 (not
# comparable) becomes a warning annotation only when every incomparable
# file is refused for a host core-count mismatch (a runner whose core count
# differs from the baseline's `host_parallelism`), since no verdict can be
# drawn from it either way. Any other exit 2 — a missing baseline, a
# workload or layout mismatch, a guarded axis that stopped reporting —
# still fails the step.
set -uo pipefail
report=$(cargo run --release -p medshield-bench --bin check-regression "$@" 2>&1)
status=$?
printf '%s\n' "$report"
if [ "$status" -eq 2 ]; then
  refused=$(printf '%s\n' "$report" | grep '^error: not comparable:')
  if [ -n "$refused" ] && ! printf '%s\n' "$refused" | grep -qv 'host core-count mismatch'; then
    while IFS= read -r line; do
      echo "::warning title=check-regression $*::${line#error: }"
    done <<<"$refused"
    exit 0
  fi
fi
exit "$status"
