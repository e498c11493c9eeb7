#!/usr/bin/env bash
# Chaos soak for the autotest CLI (DESIGN.md §4e).
#
# Drives the tier-1 CLI under injected faults and asserts the retry &
# degradation contract end to end:
#
#   1. transient-only injection (all failpoints, p=0.05, code=io) across
#      N seeds: every train must complete and produce a rules file
#      byte-identical to the fault-free baseline — retries are invisible
#      in output;
#   2. permanent injection losing a within-quorum subset of shards: train
#      must succeed degraded and stamp lost-shard provenance into the
#      recipe, and check must accept the degraded rules;
#   3. permanent injection above the quorum: train must fail fast with the
#      structured invalid-input exit code, without burning retries;
#   4. deployment trains nothing: on a model with embedding rules, `rules`
#      must resolve every rule against the evaluation functions rebuilt
#      from the recipe, and neither its --metrics-dump nor that of
#      `check --rules` may carry a trainer.* metric.
#
# A second mode soaks the serving tier (DESIGN.md §4h): a long-lived
# `autotest serve` daemon under injected accept/read/parse faults takes
# seeded client traffic; every outcome must be a documented exit class
# (never a crash), overload must produce structured sheds whose count
# matches the server's serve.requests_shed counter exactly, and the final
# --metrics-dump must parse as an autotest.metrics.v1 document.
#
# Usage: chaos_soak.sh <autotest-binary> [mode] [seeds]
#   mode is batch | serve | all (default all).
#   seeds defaults to $CHAOS_SEEDS or 20 (batch); serve request volume
#   comes from $SERVE_SOAK_REQUESTS (default 40).
#
# Registered as the `chaos_soak` (batch) and `serve_soak` (serve) ctest
# entries (wall-clock capped there); run_sanitized_tests.sh repeats them
# under ASan.

set -u

AUTOTEST="${1:?usage: chaos_soak.sh <autotest-binary> [mode] [seeds]}"
MODE="${2:-all}"
SEEDS="${3:-${CHAOS_SEEDS:-20}}"

case "$MODE" in
  batch|serve|all) ;;
  *)
    echo "chaos_soak: unknown mode '$MODE' (want batch, serve or all)" >&2
    exit 1
    ;;
esac

if [ ! -x "$AUTOTEST" ]; then
  echo "chaos_soak: $AUTOTEST is not an executable" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/autotest_chaos.XXXXXX")"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -KILL "$SERVE_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

# Small but non-trivial training configuration: sharded, with enough
# columns that the shard loader, trainer fan-out and serializer all do
# real work, yet fast enough to soak many seeds inside the ctest cap.
TRAIN_ARGS=(--columns 100 --centroids 12 --synthetic 60 --shards 6
            --max-retries 6)

fail() {
  echo "chaos_soak: FAIL: $*" >&2
  exit 1
}

run_batch() {

echo "chaos_soak: baseline fault-free train"
"$AUTOTEST" train "${TRAIN_ARGS[@]}" --out "$WORK/baseline.sdc" \
    > "$WORK/baseline.out" 2> "$WORK/baseline.err" \
  || fail "baseline train exited $? ($(cat "$WORK/baseline.err"))"
[ -s "$WORK/baseline.sdc.recipe" ] || fail "baseline recipe missing"
grep -q '^degraded' "$WORK/baseline.sdc.recipe" \
  && fail "baseline recipe claims degradation without faults"

# --- scenario 1: transient faults are retried into invisibility ---------

printf 'city,date\nseattle,6/1/2022\ntokyo,6/2/2022\nparis,junk\n' \
  > "$WORK/table.csv"

total_retries=0
for seed in $(seq 1 "$SEEDS"); do
  spec="all:p=0.05,code=io,seed=$seed"
  AT_FAILPOINTS="$spec" "$AUTOTEST" train "${TRAIN_ARGS[@]}" \
      --out "$WORK/s$seed.sdc" \
      > "$WORK/s$seed.out" 2> "$WORK/s$seed.err" \
    || fail "seed $seed: train exited $? under $spec ($(cat "$WORK/s$seed.err"))"
  cmp -s "$WORK/baseline.sdc" "$WORK/s$seed.sdc" \
    || fail "seed $seed: rules differ from fault-free baseline under $spec"
  grep -q '^degraded' "$WORK/s$seed.sdc.recipe" \
    && fail "seed $seed: transient-only faults must not degrade the model"
  # Count masked retries surfaced by the shard-load report.
  r="$(sed -n 's/.*retries=\([0-9]*\).*/\1/p' "$WORK/s$seed.err" | head -1)"
  total_retries=$(( total_retries + ${r:-0} ))
  AT_FAILPOINTS="$spec" "$AUTOTEST" check "$WORK/table.csv" \
      --rules "$WORK/s$seed.sdc" --max-retries 6 \
      > /dev/null 2> "$WORK/c$seed.err" \
    || fail "seed $seed: check exited $? under $spec ($(cat "$WORK/c$seed.err"))"
done
[ "$total_retries" -gt 0 ] \
  || fail "no shard retries observed across $SEEDS seeds (p=0.05 over 6 shards)"
echo "chaos_soak: $SEEDS transient seeds ok, $total_retries shard retries masked"

# --- scenario 2: within-quorum permanent loss degrades with provenance --

spec="shard.read:p=0.4,code=dataloss,seed=7"  # loses shards 2,3 of 6
AT_FAILPOINTS="$spec" "$AUTOTEST" train "${TRAIN_ARGS[@]}" \
    --shard-quorum 0.5 --out "$WORK/degraded.sdc" \
    > /dev/null 2> "$WORK/degraded.err" \
  || fail "degraded train exited $? under $spec ($(cat "$WORK/degraded.err"))"
grep -q '^degraded 2/6 2:DATA_LOSS,3:DATA_LOSS$' "$WORK/degraded.sdc.recipe" \
  || fail "degraded provenance missing or wrong: $(cat "$WORK/degraded.sdc.recipe")"
grep -q 'degraded mode' "$WORK/degraded.err" \
  || fail "degraded train did not warn about degraded mode"
"$AUTOTEST" check "$WORK/table.csv" --rules "$WORK/degraded.sdc" \
    > /dev/null 2> "$WORK/degraded_check.err" \
  || fail "check of degraded rules exited $?"
grep -q 'rebuilding that corpus' "$WORK/degraded_check.err" \
  || fail "check did not rebuild the degraded corpus from provenance"
echo "chaos_soak: degraded scenario ok (2/6 shards lost, provenance stamped)"

# --- scenario 3: above-quorum permanent loss fails fast -----------------

spec="shard.read=on,code=dataloss"
AT_FAILPOINTS="$spec" "$AUTOTEST" train "${TRAIN_ARGS[@]}" \
    --out "$WORK/deadloss.sdc" > /dev/null 2> "$WORK/deadloss.err"
rc=$?
[ "$rc" -eq 3 ] \
  || fail "all-shards-dataloss train exited $rc, want 3 (invalid input)"
grep -q 'quorum missed' "$WORK/deadloss.err" \
  || fail "fast-fail error does not name the missed quorum"
grep -q 'DATA_LOSS' "$WORK/deadloss.err" \
  || fail "fast-fail error does not carry the permanent code"
grep -q 'after 1 attempt(s)' "$WORK/deadloss.err" \
  || fail "permanent faults must not be retried"
[ -e "$WORK/deadloss.sdc" ] && fail "failed train left a rules file behind"
echo "chaos_soak: fast-fail scenario ok (DATA_LOSS, no retries)"

# --- scenario 4: deployment trains nothing and resolves every rule ------

# Large enough that the distilled rules include embedding rules, whose
# eval ids name sampled centroids: they resolve only against functions
# rebuilt from exactly the recipe's corpus and centroid count.
"$AUTOTEST" train --columns 1500 --centroids 40 --synthetic 400 --shards 4 \
    --out "$WORK/deploy.sdc" > /dev/null 2> "$WORK/deploy_train.err" \
  || fail "deploy train exited $? ($(cat "$WORK/deploy_train.err"))"
grep -q $'^rule\temb:' "$WORK/deploy.sdc" \
  || fail "deploy model has no embedding rule to resolve"
"$AUTOTEST" rules "$WORK/deploy.sdc" \
    --metrics-dump "$WORK/deploy_rules_metrics.json" \
    > "$WORK/deploy_rules.out" 2> "$WORK/deploy_rules.err" \
  || fail "rules exited $? ($(cat "$WORK/deploy_rules.err"))"
summary="$(tail -1 "$WORK/deploy_rules.out")"
deployed="$(sed -n 's/^(\([0-9]*\) rules, 0 unresolved)$/\1/p' \
  <<< "$summary")"
[ -n "$deployed" ] && [ "$deployed" -gt 0 ] \
  || fail "rules must resolve every rule of a fresh model, got '$summary'"
"$AUTOTEST" check "$WORK/table.csv" --rules "$WORK/deploy.sdc" \
    --metrics-dump "$WORK/deploy_check_metrics.json" \
    > /dev/null 2> "$WORK/deploy_check.err" \
  || fail "check --rules exited $? ($(cat "$WORK/deploy_check.err"))"
for dump in deploy_rules_metrics.json deploy_check_metrics.json; do
  grep -q '"schema":"autotest.metrics.v1"' "$WORK/$dump" \
    || fail "$dump is not an autotest.metrics.v1 document"
  grep -q '"name":"trainer\.' "$WORK/$dump" \
    && fail "$dump carries trainer.* metrics: deployment trained a model"
done
echo "chaos_soak: deployment scenario ok ($deployed rules, 0 unresolved," \
     "no trainer.* metrics)"

}

# --- serve soak (DESIGN.md §4h) -----------------------------------------
#
# One daemon, five phases: (1) seeded mixed traffic under injected
# serve.read / rules.parse / budget.charge faults — every query must exit
# in a documented class and the daemon must stay up; (2) an overload
# burst against a deliberately tiny admission budget — sheds must be
# structured exit-7s; (3) a starved tenant must burn its token-bucket
# allowance into structured exit-8 quota rejections without touching any
# other tenant; (4) an abusive tenant sending malformed tables must trip
# its circuit breaker at --breaker-failures and be quarantined behind
# reason=circuit_open sheds; (5) SIGTERM — the daemon must drain, exit 0
# and leave a parseable metrics dump whose serve.requests_shed /
# serve.tenant_rejections / serve.breaker_* counters match what the
# clients observed, and which carries no trainer.* metric (the daemon
# rebuilds its evaluation functions without training).

run_serve() {

REQUESTS="${SERVE_SOAK_REQUESTS:-40}"

# The serving model needs at least one servable rule (the daemon refuses
# an empty rule set), so this trains on the richer tablib profile rather
# than the minimal batch-soak configuration.
echo "chaos_soak: serve: training the serving model"
"$AUTOTEST" train --corpus tablib --columns 200 --centroids 30 \
    --synthetic 200 --shards 4 --max-retries 6 --out "$WORK/serve.sdc" \
    > /dev/null 2> "$WORK/serve_train.err" \
  || fail "serve: train exited $? ($(cat "$WORK/serve_train.err"))"

printf 'city,date\nseattle,6/1/2022\ntokyo,6/2/2022\nparis,junk\n' \
  > "$WORK/serve_table.csv"

# Two-tenant quota table: one hard-starved (its whole allowance is one
# request until a reload), one generous enough that the seeded phase
# never touches its limit. Unlisted tenants stay unlimited (no default
# row).
cat > "$WORK/quotas.conf" <<'EOF'
autotest.quotas.v1
# chaos-soak tenants
starved 0 1
generous 1000 100
EOF

# Tiny admission budget so the burst phase can saturate it; injected
# read, parse and budget-charge faults at low probability so the seeded
# phase exercises the structured-error paths without drowning in them.
# The breaker is tuned tight (3 failures, long cooldown) so the abuse
# phase trips it deterministically and it stays open through the drain.
"$AUTOTEST" serve --rules "$WORK/serve.sdc" --port 0 \
    --max-inflight 1 --queue-depth 1 --max-retries 6 \
    --tenant-quotas "$WORK/quotas.conf" \
    --breaker-failures 3 --breaker-cooldown-ms 60000 \
    --failpoints "serve.read:p=0.02,rules.parse:p=0.01,budget.charge:p=0.01,seed=99" \
    --metrics-dump "$WORK/serve_metrics.json" \
    2> "$WORK/serve.err" &
SERVE_PID=$!

# Readiness: the daemon prints its bound port once listening.
PORT=""
for _ in $(seq 1 300); do
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
          "$WORK/serve.err" | head -1)"
  [ -n "$PORT" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null \
    || fail "serve: daemon died before listening ($(cat "$WORK/serve.err"))"
  sleep 0.1
done
[ -n "$PORT" ] || fail "serve: daemon never reported a port"
echo "chaos_soak: serve: daemon up on port $PORT (pid $SERVE_PID)"

# Phase 1: seeded mixed traffic. Documented exit classes only:
#   0 ok, 3 invalid-input (injected parse faults surfaced structurally),
#   5 io (injected serve.read faults answered as IO_ERROR), 6 resource/
#   deadline, 7 shed. Anything else — in particular a crash of the client
#   or daemon — fails the soak.
ok_count=0; fault_count=0; shed_count=0; breaker_trip_shed=0
for i in $(seq 1 "$REQUESTS"); do
  last_err="$WORK/client_last.err"
  case $(( i % 10 )) in
    0) "$AUTOTEST" query --reload --tenant generous --port "$PORT" \
         > /dev/null 2> "$last_err" ;;
    1|4|7) "$AUTOTEST" query --ping --tenant generous --port "$PORT" \
         > /dev/null 2> "$last_err" ;;
    *) "$AUTOTEST" query "$WORK/serve_table.csv" --port "$PORT" \
         --tenant generous --deadline-ms 2000 \
         > /dev/null 2> "$last_err" ;;
  esac
  rc=$?
  cat "$last_err" >> "$WORK/serve_clients.err"
  case "$rc" in
    0) ok_count=$(( ok_count + 1 )) ;;
    3|5|6) fault_count=$(( fault_count + 1 )) ;;
    7) # A breaker tripped by injected faults sheds with
       # reason=circuit_open; that class does not count toward
       # serve.requests_shed (it is a governor rejection, not an
       # admission shed), so keep the books separate.
       if grep -q 'reason=circuit_open' "$last_err"; then
         breaker_trip_shed=$(( breaker_trip_shed + 1 ))
       else
         shed_count=$(( shed_count + 1 ))
       fi ;;
    *) fail "serve: request $i exited $rc (not a documented class)" ;;
  esac
  kill -0 "$SERVE_PID" 2>/dev/null \
    || fail "serve: daemon died during seeded traffic (request $i)"
done
[ "$ok_count" -gt 0 ] \
  || fail "serve: no request succeeded across $REQUESTS seeded requests"
echo "chaos_soak: serve: $REQUESTS seeded requests ok" \
     "(ok=$ok_count faults=$fault_count shed=$shed_count)"

# Phase 2: overload bursts. 16 concurrent checks against a one-deep
# queue and one worker must produce structured sheds; retry a few rounds
# so a fast-draining scheduler cannot flake the assertion.
burst_shed=0
for round in $(seq 1 5); do
  rcfile_prefix="$WORK/burst_${round}_"
  burst_pids=""
  for j in $(seq 1 16); do
    { "$AUTOTEST" query "$WORK/serve_table.csv" --port "$PORT" \
        > /dev/null 2>> "$WORK/serve_clients.err"
      echo $? > "${rcfile_prefix}${j}.rc"
    } &
    burst_pids="$burst_pids $!"
  done
  for p in $burst_pids; do
    wait "$p" || true
  done
  for j in $(seq 1 16); do
    rc="$(cat "${rcfile_prefix}${j}.rc")"
    case "$rc" in
      0) ;;
      3|5|6) ;;
      7) burst_shed=$(( burst_shed + 1 )) ;;
      *) fail "serve: burst query exited $rc (not a documented class)" ;;
    esac
  done
  [ "$burst_shed" -gt 0 ] && break
done
[ "$burst_shed" -gt 0 ] \
  || fail "serve: no structured sheds across 5 overload bursts"
kill -0 "$SERVE_PID" 2>/dev/null || fail "serve: daemon died under overload"
echo "chaos_soak: serve: overload ok ($burst_shed structured sheds)"

# Phase 3: tenant quotas. The starved tenant's whole allowance is one
# request (rate 0, burst 1): the first ping is admitted, every further
# one is a structured exit-8 with reason=quota — and the generous tenant
# is untouched by its neighbour's exhaustion.
quota_shed=0
"$AUTOTEST" query --ping --tenant starved --port "$PORT" \
    > /dev/null 2>> "$WORK/serve_clients.err" \
  || fail "serve: starved tenant's first request exited $? (want 0)"
for i in 1 2; do
  "$AUTOTEST" query --ping --tenant starved --port "$PORT" \
      > /dev/null 2> "$WORK/quota_$i.err"
  rc=$?
  cat "$WORK/quota_$i.err" >> "$WORK/serve_clients.err"
  [ "$rc" -eq 8 ] \
    || fail "serve: starved tenant request $i exited $rc (want 8, quota)"
  grep -q 'reason=quota' "$WORK/quota_$i.err" \
    || fail "serve: quota rejection $i lacks reason=quota"
  quota_shed=$(( quota_shed + 1 ))
done
"$AUTOTEST" query --ping --tenant generous --port "$PORT" \
    > /dev/null 2>> "$WORK/serve_clients.err" \
  || fail "serve: generous tenant caught its neighbour's quota (exit $?)"
echo "chaos_soak: serve: quota ok ($quota_shed structured quota rejections)"

# Phase 4: circuit breaker. Three malformed tables from the abuser tenant
# are three consecutive check failures — exactly --breaker-failures — so
# the fourth and fifth requests (well-formed!) must shed with
# reason=circuit_open while the breaker cools down.
printf 'city\n"unterminated quote\n' > "$WORK/serve_bad_table.csv"
for i in 1 2 3; do
  "$AUTOTEST" query "$WORK/serve_bad_table.csv" --tenant abuser \
      --port "$PORT" > /dev/null 2>> "$WORK/serve_clients.err"
  rc=$?
  # Parse failure (3) normally; an injected budget.charge fault (6) also
  # counts as a breaker failure, so both keep the abuse deterministic.
  case "$rc" in
    3|6) ;;
    *) fail "serve: malformed table $i exited $rc (want 3 or 6)" ;;
  esac
done
breaker_shed=0
for i in 1 2; do
  "$AUTOTEST" query "$WORK/serve_table.csv" --tenant abuser \
      --port "$PORT" > /dev/null 2> "$WORK/breaker_$i.err"
  rc=$?
  cat "$WORK/breaker_$i.err" >> "$WORK/serve_clients.err"
  [ "$rc" -eq 7 ] \
    || fail "serve: post-trip abuser request $i exited $rc (want 7)"
  grep -q 'reason=circuit_open' "$WORK/breaker_$i.err" \
    || fail "serve: post-trip rejection $i lacks reason=circuit_open"
  breaker_shed=$(( breaker_shed + 1 ))
done
"$AUTOTEST" query "$WORK/serve_table.csv" --tenant generous \
    --deadline-ms 2000 --port "$PORT" \
    > /dev/null 2> "$WORK/breaker_other.err"
rc=$?
grep -q 'reason=circuit_open' "$WORK/breaker_other.err" \
  && fail "serve: the abuser's open breaker leaked onto another tenant"
cat "$WORK/breaker_other.err" >> "$WORK/serve_clients.err"
echo "chaos_soak: serve: breaker ok (tripped at 3, $breaker_shed circuit_open sheds)"

# Phase 5: graceful drain + metrics contract.
total_shed=$(( shed_count + burst_shed ))
kill -TERM "$SERVE_PID"
serve_rc=0
wait "$SERVE_PID" || serve_rc=$?
SERVE_PID=""
[ "$serve_rc" -eq 0 ] || fail "serve: daemon exited $serve_rc after SIGTERM"
grep -q 'serve: drained' "$WORK/serve.err" \
  || fail "serve: no drain summary in daemon stderr"
[ -s "$WORK/serve_metrics.json" ] || fail "serve: metrics dump missing"
grep -q '"schema":"autotest.metrics.v1"' "$WORK/serve_metrics.json" \
  || fail "serve: metrics dump is not an autotest.metrics.v1 document"
grep -q '"name":"serve.requests"' "$WORK/serve_metrics.json" \
  || fail "serve: metrics dump lacks serve.requests"
grep -q '"name":"trainer\.' "$WORK/serve_metrics.json" \
  && fail "serve: metrics dump carries trainer.* metrics: the daemon trained"
dumped_shed="$(sed -n \
  's/.*"name":"serve\.requests_shed","kind":"counter","value":\([0-9]*\).*/\1/p' \
  "$WORK/serve_metrics.json" | head -1)"
[ -n "$dumped_shed" ] \
  || fail "serve: metrics dump lacks a serve.requests_shed counter"
[ "$dumped_shed" -eq "$total_shed" ] \
  || fail "serve: serve.requests_shed=$dumped_shed but clients observed $total_shed sheds"

# Governance counters must agree with what the clients saw: every quota
# rejection, and every circuit_open shed (the deliberate abuse phase plus
# any breaker randomly tripped by injected faults in phase 1).
metric_value() {
  sed -n \
    "s/.*\"name\":\"$1\",\"kind\":\"counter\",\"value\":\([0-9]*\).*/\1/p" \
    "$WORK/serve_metrics.json" | head -1
}
dumped_quota="$(metric_value 'serve\.tenant_rejections')"
[ -n "$dumped_quota" ] \
  || fail "serve: metrics dump lacks serve.tenant_rejections"
[ "$dumped_quota" -eq "$quota_shed" ] \
  || fail "serve: serve.tenant_rejections=$dumped_quota but clients observed $quota_shed"
dumped_breaker_open="$(metric_value 'serve\.breaker_open_total')"
[ -n "$dumped_breaker_open" ] && [ "$dumped_breaker_open" -ge 1 ] \
  || fail "serve: serve.breaker_open_total=${dumped_breaker_open:-missing}, want >= 1"
dumped_breaker_rej="$(metric_value 'serve\.breaker_rejections')"
expected_breaker_rej=$(( breaker_shed + breaker_trip_shed ))
[ -n "$dumped_breaker_rej" ] \
  || fail "serve: metrics dump lacks serve.breaker_rejections"
[ "$dumped_breaker_rej" -eq "$expected_breaker_rej" ] \
  || fail "serve: serve.breaker_rejections=$dumped_breaker_rej but clients observed $expected_breaker_rej"
echo "chaos_soak: serve: drained clean, metrics dump consistent" \
     "(serve.requests_shed=$dumped_shed tenant_rejections=$dumped_quota" \
     "breaker_open_total=$dumped_breaker_open)"

}

case "$MODE" in
  batch) run_batch ;;
  serve) run_serve ;;
  all) run_batch; run_serve ;;
esac

echo "chaos_soak: PASS ($MODE)"
