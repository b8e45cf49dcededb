#!/usr/bin/env bash
# metrics-smoke boots profipyd, runs a demo campaign through the API,
# scrapes /metrics, and fails when an expected metric family is missing
# or the exposition output does not parse. It also checks the pprof
# debug listener answers. CI runs this as its observability gate.
set -euo pipefail

ADDR=127.0.0.1:18080
DEBUG_ADDR=127.0.0.1:16060
WORKDIR=$(mktemp -d)
BIN="$WORKDIR/profipyd"
SCRAPE="$WORKDIR/metrics.txt"

cleanup() {
  [[ -n "${PID:-}" ]] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== build profipyd"
go build -o "$BIN" ./cmd/profipyd

echo "== boot profipyd on $ADDR (pprof on $DEBUG_ADDR)"
"$BIN" -addr "$ADDR" -debug-addr "$DEBUG_ADDR" -data-dir "$WORKDIR/data" &
PID=$!

for _ in $(seq 1 100); do
  curl -fs "http://$ADDR/api/v1/projects" >/dev/null 2>&1 && break
  kill -0 "$PID" 2>/dev/null || { echo "profipyd exited during startup"; exit 1; }
  sleep 0.1
done
curl -fs "http://$ADDR/api/v1/projects" >/dev/null

echo "== run a demo campaign (synchronous)"
curl -fs -X POST "http://$ADDR/api/v1/campaigns?wait=true" \
  -H 'Content-Type: application/json' -d '{
    "project": "demo-python-etcd",
    "entry": "Workload",
    "env": "kvclient",
    "seed": 42,
    "sampleN": 5,
    "specs": [{
      "name": "omit-write",
      "type": "MFC",
      "dsl": "change {\n\t$CALL{name=osio.WriteFile,osio.Remove}(...)\n} into {\n}"
    }]
  }' >/dev/null

echo "== scrape /metrics"
curl -fs "http://$ADDR/metrics" > "$SCRAPE"

echo "== check expected metric families"
missing=0
for fam in \
  profipy_http_requests_total \
  profipy_http_request_seconds \
  profipy_scheduler_queue_depth \
  profipy_scheduler_jobs_running \
  profipy_scheduler_jobs_finished_total \
  profipy_scheduler_job_duration_seconds \
  profipy_campaign_runs_total \
  profipy_campaign_experiments_total \
  profipy_campaign_phase_seconds \
  profipy_campaign_first_record_seconds \
  profipy_campaign_fork_events_total \
  profipy_workload_watchdog_timeouts_total \
  profipy_executor_records_total \
  profipy_executor_experiment_seconds \
  profipy_executor_workers_busy \
  profipy_resultstore_appends_total \
  profipy_resultstore_bytes_total \
  profipy_resultstore_fsyncs_total \
  profipy_resultstore_follow_subscribers \
  profipy_resultstore_start_wait_seconds \
  profipy_runtime_gc_cpu_fraction \
  profipy_runtime_gc_cycles \
  profipy_runtime_heap_live_bytes \
  profipy_runtime_heap_goal_bytes \
  profipy_runtime_alloc_bytes \
  profipy_runtime_goroutines
do
  if ! grep -q "^# TYPE $fam " "$SCRAPE"; then
    echo "MISSING family: $fam"
    missing=1
  fi
done
[[ $missing -eq 0 ]] || { echo "--- scrape ---"; cat "$SCRAPE"; exit 1; }

echo "== check exposition format parses"
# Every line is a comment or `name[{labels}] value`; values are Go
# floats or +Inf/-Inf/NaN.
bad=$(grep -vE '^#' "$SCRAPE" | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN)$' || true)
if [[ -n "$bad" ]]; then
  echo "unparseable exposition lines:"
  echo "$bad"
  exit 1
fi
# Histograms must carry the +Inf bucket.
for h in profipy_campaign_phase_seconds profipy_campaign_first_record_seconds profipy_executor_experiment_seconds profipy_resultstore_start_wait_seconds; do
  grep -q "^${h}_bucket{.*le=\"+Inf\"}" "$SCRAPE" || { echo "missing +Inf bucket for $h"; exit 1; }
done
# There is one engine: no executor or campaign family may carry an
# engine label, and the fallback counter must not exist.
if grep -E '^profipy_(executor|campaign)_[a-z_]+\{[^}]*engine=' "$SCRAPE"; then
  echo "executor/campaign metrics still carry an engine label"; exit 1
fi
if grep -q 'profipy_campaign_engine_fallback_total' "$SCRAPE"; then
  echo "profipy_campaign_engine_fallback_total is still exposed"; exit 1
fi
# There are two executors and the label names nothing else: a value
# that encodes a geometry would be unbounded.
if grep -E '^profipy_executor_[a-z_]+\{[^}]*executor="' "$SCRAPE" | grep -vE 'executor="(local|remote)"'; then
  echo "executor label carries a value other than local or remote"; exit 1
fi
if grep -q 'profipy_executor_shard_seconds' "$SCRAPE"; then
  echo "profipy_executor_shard_seconds is still exposed"; exit 1
fi
# Mutant compiles are one family, split by path and reason; the
# compile-cache and incremental-recompile counters it replaced are gone.
grep -q "^# TYPE profipy_campaign_mutant_compiles_total " "$SCRAPE" || { echo "MISSING family: profipy_campaign_mutant_compiles_total"; exit 1; }
grep -q '^profipy_campaign_mutant_compiles_total{path="decl",reason=""} ' "$SCRAPE" || { echo "no path=\"decl\" sample in profipy_campaign_mutant_compiles_total"; exit 1; }
if grep -E '^# TYPE profipy_campaign_compile_(cache_hits|cache_misses|incremental)_total ' "$SCRAPE"; then
  echo "a compile-cache / incremental-recompile family is still exposed"; exit 1
fi
# Coverage runs the compiled base program itself: a healthy campaign
# recompiles no file whole.
if grep -E '^profipy_campaign_mutant_compiles_total\{path="file"' "$SCRAPE"; then
  echo "a healthy campaign recompiled a whole file (path=\"file\" sample above)"; exit 1
fi

# The one campaign, run in-process, timed its first record once.
grep -q '^profipy_campaign_first_record_seconds_count{executor="local"} 1$' "$SCRAPE" || { echo "profipy_campaign_first_record_seconds_count{executor=\"local\"} is not 1"; exit 1; }

# The one campaign's writer joined its background start exactly once.
grep -q '^profipy_resultstore_start_wait_seconds_count 1$' "$SCRAPE" || { echo "profipy_resultstore_start_wait_seconds_count is not 1"; exit 1; }

echo "== check pprof debug listener"
curl -fs "http://$DEBUG_ADDR/debug/pprof/cmdline" >/dev/null

echo "metrics smoke OK ($(grep -c '^# TYPE' "$SCRAPE") families)"
