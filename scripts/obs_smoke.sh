#!/usr/bin/env bash
# Observability endpoint smoke test.
#
# Boots a real join server (fastjoin-node -listen ... -observe ...) with an
# ephemeral observability endpoint, streams a rate-limited workload at it
# from a second process, and scrapes the endpoint mid-run:
#
#   - /metrics must parse as Prometheus text and carry the per-instance
#     load gauges, the engine queue gauges, and the migration counters;
#   - /stats.json must be JSON with a results field.
#
# Everything runs on 127.0.0.1 with kernel-assigned ports, so the smoke
# test is safe to run concurrently with anything.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
server_pid=""
client_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  [ -n "$client_pid" ] && kill "$client_pid" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/fastjoin-node" ./cmd/fastjoin-node

log="$workdir/server.log"
"$workdir/fastjoin-node" -listen 127.0.0.1:0 -ingest 1 -joiners 4 \
  -observe 127.0.0.1:0 >"$log" 2>&1 &
server_pid=$!

wait_for_line() {
  local pattern=$1
  for _ in $(seq 1 100); do
    if grep -q "$pattern" "$log"; then return 0; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "obs smoke FAILED: server exited early" >&2
      cat "$log" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "obs smoke FAILED: server never printed '$pattern'" >&2
  cat "$log" >&2
  return 1
}

wait_for_line "join server"
listen_addr="$(sed -n 's/^join server (.*) on \([0-9.:]*\);.*/\1/p' "$log")"

# Stream slowly enough that the server is alive while we scrape.
"$workdir/fastjoin-node" -connect "$listen_addr" -workload zipf \
  -tuples 60000 -rate 12000 >"$workdir/client.log" 2>&1 &
client_pid=$!

wait_for_line "observability endpoint"
obs_url="$(sed -n 's#^observability endpoint on \(http://[0-9.:]*\)/metrics$#\1#p' "$log")"
echo "scraping $obs_url"

# Let the system ingest for a moment so the gauges carry live values.
sleep 2

metrics="$(curl -fsS "$obs_url/metrics")"
stats="$(curl -fsS "$obs_url/stats.json")"

fail=0
for family in \
  fastjoin_results_total \
  fastjoin_ingested_total \
  fastjoin_instance_load \
  fastjoin_instance_stored \
  fastjoin_instance_probe_pressure \
  fastjoin_store_bytes \
  fastjoin_load_imbalance \
  fastjoin_engine_queue_depth \
  fastjoin_engine_queue_high_water \
  fastjoin_migrations_total \
  fastjoin_split_keys \
  fastjoin_split_residual_keys \
  fastjoin_keys_retired_total \
  fastjoin_trace_events_total; do
  if ! grep -q "^# TYPE $family " <<<"$metrics"; then
    echo "obs smoke FAILED: /metrics missing family $family" >&2
    fail=1
  fi
done
if ! grep -q '^fastjoin_instance_load{side="R",instance="0"}' <<<"$metrics"; then
  echo "obs smoke FAILED: /metrics missing per-instance load sample" >&2
  fail=1
fi
if ! grep -q '^fastjoin_store_bytes{side="R",instance="0",kind="reserved"} [1-9]' <<<"$metrics"; then
  echo "obs smoke FAILED: /metrics missing a non-zero reserved store bytes sample" >&2
  fail=1
fi
if ! grep -q '"results"' <<<"$stats"; then
  echo "obs smoke FAILED: /stats.json missing results field: $stats" >&2
  fail=1
fi
if [ "$fail" -ne 0 ]; then
  printf '%s\n' "$metrics" | head -50 >&2
  exit 1
fi

wait "$client_pid"; client_pid=""
wait "$server_pid"; server_pid=""
echo "obs smoke OK: all metric families present, stats.json live"
