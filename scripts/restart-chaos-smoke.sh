#!/usr/bin/env bash
# restart-chaos-smoke is the end-to-end gate on control-plane crash
# consistency: it runs a campaign to completion on one daemon (the
# golden run), then re-runs the identical campaign on the same data
# dir, SIGKILLs profipyd mid-campaign — no shutdown hooks, no journal
# flush — restarts it on that data dir, and fails unless:
#
#   * the interrupted campaign resumes and finishes with a record set
#     and report byte-identical to the golden run (a re-executed index
#     would surface as a duplicate record line in the diff),
#   * a second job that was still queued at the moment of the kill is
#     re-admitted and completes after the restart,
#   * the golden job, finished before the kill, is still listed with
#     its campaign link and its campaign answers with the pre-kill body
#     (finished work is served from the data dir, not from memory),
#   * the data dir holds one job log: journal.jsonl, no jobs.jsonl,
#   * the profipy_recovery_* metric families report one resumed job,
#     one requeued job and a non-zero replayed-record count.
set -euo pipefail

ADDR=127.0.0.1:18092
WORKDIR=$(mktemp -d)
DAEMON="$WORKDIR/profipyd"

cleanup() {
  [[ -n "${PID:-}" ]] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== build profipyd"
go build -o "$DAEMON" ./cmd/profipyd

# Single scheduler worker so the second job queues behind the first;
# -cores 2 plus rounds=400 stretches the campaign to several seconds so
# the SIGKILL reliably lands mid-flight.
boot() { # boot <data-dir>
  "$DAEMON" -addr "$ADDR" -cores 2 -workers 1 -data-dir "$1" &
  PID=$!
  for _ in $(seq 1 100); do
    curl -fs "http://$ADDR/api/v1/projects" >/dev/null 2>&1 && return 0
    kill -0 "$PID" 2>/dev/null || { echo "profipyd exited during startup"; exit 1; }
    sleep 0.1
  done
  echo "profipyd never became ready"; exit 1
}

# The §V-A style demo campaign, identical for the golden and chaos runs.
request() {
  cat <<'EOF'
{
  "project": "demo-python-etcd",
  "entry": "Workload",
  "env": "kvclient",
  "seed": 42,
  "rounds": 400,
  "scanFiles": ["etcdclient/client.go", "etcdclient/lock.go", "etcdclient/auth.go"],
  "specs": [{
    "name": "omit-write",
    "type": "MFC",
    "dsl": "change {\n\t$CALL{name=osio.WriteFile,osio.Remove}(...)\n} into {\n}"
  }]
}
EOF
}

records_of() { # records_of <campaign-id> -> sorted record lines
  curl -fs "http://$ADDR/api/v1/campaigns/$1/records?limit=10000" \
    | jq -cS '.records[]' | sort
}

report_of() { # report_of <campaign-id> -> key-sorted report JSON
  # The phase timeline is wall-clock and legitimately differs run to
  # run; everything else in the report must be deterministic.
  curl -fs "http://$ADDR/api/v1/campaigns/$1" | jq -S 'del(.phases)'
}

wait_job() { # wait_job <job-id>
  local state
  for _ in $(seq 1 600); do
    state=$(curl -fs "http://$ADDR/api/v1/jobs/$1" | jq -r .state)
    [[ "$state" == "done" ]] && return 0
    [[ "$state" == "failed" || "$state" == "canceled" ]] && {
      echo "job $1 ended $state:"; curl -fs "http://$ADDR/api/v1/jobs/$1"; exit 1; }
    sleep 0.2
  done
  echo "job $1 timed out"; exit 1
}

echo "== golden run: the campaign uninterrupted"
boot "$WORKDIR/data"
GOLD_JOB=$(curl -fs -X POST "http://$ADDR/api/v1/campaigns" \
  -H 'Content-Type: application/json' -d "$(request)" | jq -r .job)
wait_job "$GOLD_JOB"
GOLD_CAMP="camp-${GOLD_JOB#job-}"
records_of "$GOLD_CAMP" > "$WORKDIR/golden-records.txt"
report_of "$GOLD_CAMP" > "$WORKDIR/golden-report.json"
curl -fs "http://$ADDR/api/v1/campaigns/$GOLD_CAMP" | jq -S . > "$WORKDIR/golden-body.json"
GOLD_N=$(wc -l < "$WORKDIR/golden-records.txt")
[[ "$GOLD_N" -gt 1 ]] || { echo "golden run produced $GOLD_N records"; exit 1; }
echo "   golden campaign $GOLD_CAMP: $GOLD_N records"
kill "$PID" && wait "$PID" 2>/dev/null || true
PID=

echo "== chaos run: same campaign on the same data dir, plus a queued job"
boot "$WORKDIR/data"
JOB=$(curl -fs -X POST "http://$ADDR/api/v1/campaigns" \
  -H 'Content-Type: application/json' -d "$(request)" | jq -r .job)
CAMP="camp-${JOB#job-}"
QUEUED=$(curl -fs -X POST "http://$ADDR/api/v1/campaigns" \
  -H 'Content-Type: application/json' -d "$(request)" | jq -r .job)
QCAMP="camp-${QUEUED#job-}"
echo "   running $JOB ($CAMP), queued $QUEUED ($QCAMP)"

echo "== wait for the first records to hit the store, then SIGKILL profipyd"
for _ in $(seq 1 200); do
  N=$(curl -fs "http://$ADDR/api/v1/campaigns/$CAMP/records?limit=$GOLD_N" 2>/dev/null \
    | jq -r '.records | length' 2>/dev/null || echo 0)
  [[ "$N" -gt 0 ]] && break
  sleep 0.1
done
[[ "${N:-0}" -gt 0 ]] || { echo "campaign produced no records before the kill window"; exit 1; }
[[ "$N" -lt "$GOLD_N" ]] || { echo "campaign already finished ($N records); kill landed too late"; exit 1; }
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
echo "   killed profipyd with $N/$GOLD_N records stored"

echo "== restart profipyd on the same data dir"
boot "$WORKDIR/data"
wait_job "$JOB"
wait_job "$QUEUED"

echo "== check the work finished before the kill is served from the data dir"
LINK=$(curl -fs "http://$ADDR/api/v1/jobs" \
  | jq -r --arg id "$GOLD_JOB" '.[] | select(.id == $id) | .state + " " + .campaign')
[[ "$LINK" == "done $GOLD_CAMP" ]] \
  || { echo "job list has '$LINK' for $GOLD_JOB, want 'done $GOLD_CAMP'"; exit 1; }
if ! curl -fs "http://$ADDR/api/v1/campaigns/$GOLD_CAMP" | jq -S . | diff - "$WORKDIR/golden-body.json"; then
  echo "GET /campaigns/$GOLD_CAMP changed across the kill and restart"; exit 1
fi
[[ ! -e "$WORKDIR/data/jobs.jsonl" ]] || { echo "data dir still has a jobs.jsonl"; exit 1; }
[[ "$(ls "$WORKDIR/data" | sort | xargs)" == "campaigns journal.jsonl" ]] \
  || { echo "data dir holds: $(ls "$WORKDIR/data" | xargs)"; exit 1; }
echo "   $GOLD_JOB -> $GOLD_CAMP intact; data dir: campaigns journal.jsonl"

echo "== compare the resumed campaign against the golden run"
records_of "$CAMP" > "$WORKDIR/chaos-records.txt"
if ! diff -q "$WORKDIR/golden-records.txt" "$WORKDIR/chaos-records.txt" >/dev/null; then
  echo "record sets differ (duplicates mean re-executed indices):"
  diff "$WORKDIR/golden-records.txt" "$WORKDIR/chaos-records.txt" | head -20
  exit 1
fi
report_of "$CAMP" > "$WORKDIR/chaos-report.json"
if ! diff -q "$WORKDIR/golden-report.json" "$WORKDIR/chaos-report.json" >/dev/null; then
  echo "reports differ:"
  diff "$WORKDIR/golden-report.json" "$WORKDIR/chaos-report.json" | head -20
  exit 1
fi
echo "   $(wc -l < "$WORKDIR/chaos-records.txt") records and report byte-identical to golden"

echo "== check the queued-at-crash job's campaign completed"
QN=$(records_of "$QCAMP" | wc -l)
[[ "$QN" -eq "$GOLD_N" ]] || { echo "requeued campaign has $QN records, want $GOLD_N"; exit 1; }

echo "== check the recovery metrics"
SCRAPE=$(curl -fs "http://$ADDR/metrics")
for fam in profipy_recovery_jobs_total profipy_recovery_replayed_records_total \
  profipy_resultstore_write_errors_total; do
  grep -q "^# TYPE $fam " <<<"$SCRAPE" || { echo "MISSING family: $fam"; exit 1; }
done
metric() { awk -v m="$1" '$1 == m { print $2 }' <<<"$SCRAPE"; }
RESUMED=$(metric 'profipy_recovery_jobs_total{outcome="resumed"}')
REQUEUED=$(metric 'profipy_recovery_jobs_total{outcome="requeued"}')
REPLAYED=$(metric 'profipy_recovery_replayed_records_total')
[[ "${RESUMED:-0}" == 1 ]] || { echo "resumed jobs = ${RESUMED:-0}, want 1"; exit 1; }
[[ "${REQUEUED:-0}" == 1 ]] || { echo "requeued jobs = ${REQUEUED:-0}, want 1"; exit 1; }
awk -v v="${REPLAYED:-0}" 'BEGIN { exit !(v+0 >= 1) }' \
  || { echo "replayed records = ${REPLAYED:-0}, want >= 1"; exit 1; }
echo "   resumed=$RESUMED requeued=$REQUEUED replayed=$REPLAYED"

echo "restart chaos smoke OK"
