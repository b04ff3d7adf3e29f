#!/usr/bin/env bash
# chaos_stress.sh — the chaos matrix under load.
#
# Exactly-once must not depend on how busy the box is. Each round runs
# TestTraceSpansUnderChaos and TestChaosDifferential from one -race test
# binary while two more copies of TestChaosDifferential run beside it as
# load; a round fails when any of the three processes fails. Prints one
# line per round and the failure count, keeps the logs of failed rounds,
# and exits non-zero if any round failed.
#
#   CHAOS_STRESS_ROUNDS=20 ./scripts/chaos_stress.sh
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
ROUNDS=${CHAOS_STRESS_ROUNDS:-20}
OUT=${CHAOS_STRESS_OUT:-.chaos_stress}

mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
bin="$OUT/biclique.test"
$GO test -race -c -o "$bin" ./internal/biclique
cd internal/biclique

run() { # run <log> <pattern>
	"$bin" -test.count=1 -test.timeout=30m -test.run "$2" >"$1" 2>&1
}

failed=0
for round in $(seq 1 "$ROUNDS"); do
	logs="$OUT/round$round"
	run "$logs.load1.log" '^TestChaosDifferential$' &
	load1=$!
	run "$logs.load2.log" '^TestChaosDifferential$' &
	load2=$!
	status=ok
	run "$logs.main.log" '^(TestTraceSpansUnderChaos|TestChaosDifferential)$' || status=FAIL
	wait "$load1" || status=FAIL
	wait "$load2" || status=FAIL
	if [ "$status" = FAIL ]; then
		failed=$((failed + 1))
		echo "round $round: FAIL"
		for log in "$logs".*.log; do
			grep -- '--- FAIL\|completeness violated' "$log" | sed "s|^|    ${log##*/}: |" || true
		done
	else
		echo "round $round: ok"
		rm -f "$logs".*.log
	fi
done
echo "chaos-stress: $failed of $ROUNDS rounds failed"
[ "$failed" -eq 0 ]
