#!/usr/bin/env bash
# Store footprint gate.
#
# Runs BenchmarkStoreFootprint (internal/window: reserved bytes per resident
# tuple of the chunked store for one-tuple keys, low-rate keys in steady
# churn, and one hot key) and enforces that each shape stays at or below its
# checked-in ceiling in ci/store_bytes_ceiling.txt. The metric is
# Footprint().Reserved / Len() — slabs, index and expiry heap as the store
# itself accounts them — so it does not depend on the GC or the host and a
# breach means the layout really grew: a fatter header or index entry, a
# class rule that reserves ahead of the live count again, or memory that is
# no longer released. Lowering a ceiling after an optimization is
# encouraged; raising one needs a very good reason in the commit message.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(go test -run='^$' -bench '^BenchmarkStoreFootprint$' -benchtime=1x ./internal/window)"
echo "$out"
echo

failed=0
while read -r name ceiling; do
  bytes=$(echo "$out" | awk -v b="$name" '$1 ~ "^"b"(-[0-9]+)?$" {for (i=1; i<=NF; i++) if ($i == "B/tuple") print $(i-1)}')
  if [ -z "$bytes" ]; then
    echo "footprint gate FAILED: could not parse B/tuple of ${name} from benchmark output" >&2
    failed=1
  elif awk -v v="$bytes" -v c="$ceiling" 'BEGIN {exit !(v > c)}'; then
    echo "footprint gate FAILED: ${name} ${bytes} B/tuple > ceiling ${ceiling}" >&2
    failed=1
  else
    echo "${name}: ${bytes} B/tuple (ceiling ${ceiling})"
  fi
done < <(grep -v '^#' ci/store_bytes_ceiling.txt)

if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "footprint gate OK"
