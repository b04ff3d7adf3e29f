#!/usr/bin/env bash
# Allocation ceiling gate.
#
# Runs the data-plane allocation benchmarks (one full
# dispatcher→shuffler→joiner→sink run per op, chunked store, default batch
# size: BenchmarkDataPlaneBatch32 on a sparse key space where transport
# dominates, BenchmarkDataPlaneBatch32Emit on a dense one where result
# emission does) and enforces that each one's allocs/op stays at or below
# its checked-in ceiling in ci/alloc_ceiling.txt. The ceilings were set
# from the measured steady state (~25k allocs/op) plus headroom for CI
# jitter; the pre-arena tree measured ~51k. Alloc counts are deterministic
# enough that a breach means a real regression — a new per-tuple, per-run
# or per-pair allocation on the hot path — not noise. Lowering a ceiling
# after an optimization is encouraged; raising one needs a very good
# reason in the commit message.
set -euo pipefail
cd "$(dirname "$0")/.."

names="$(grep -v '^#' ci/alloc_ceiling.txt | awk '{print $1}' | paste -sd'|')"
out="$(go test -run='^$' -bench "^(${names})\$" -benchtime=10x -benchmem ./internal/biclique)"
echo "$out"
echo

failed=0
while read -r name ceiling; do
  allocs=$(echo "$out" | awk -v b="$name" '$1 ~ "^"b"(-[0-9]+)?$" {for (i=1; i<=NF; i++) if ($i == "allocs/op") print $(i-1)}')
  if [ -z "$allocs" ]; then
    echo "alloc gate FAILED: could not parse allocs/op of ${name} from benchmark output" >&2
    failed=1
  elif [ "$allocs" -gt "$ceiling" ]; then
    echo "alloc gate FAILED: ${name} ${allocs} allocs/op > ceiling ${ceiling}" >&2
    failed=1
  else
    echo "${name}: ${allocs} allocs/op (ceiling ${ceiling})"
  fi
done < <(grep -v '^#' ci/alloc_ceiling.txt)

if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "alloc gate OK"
