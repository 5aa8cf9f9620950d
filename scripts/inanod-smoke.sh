#!/usr/bin/env bash
# Smoke test for the inanod daemon: build it, serve a sim-generated atlas,
# exercise /healthz, a single /v1/query, a streamed /v1/batch, a
# /v1/feedback observation report (with the corrective loop running
# against the generating world), and /v1/relay, then assert clean graceful
# shutdown on SIGTERM. A second phase drives the upstream observation loop
# end to end: POST /v1/observations into an aggregating daemon, snapshot
# the aggregate, fold it into the next day's delta with inano-build, hot-
# reload the delta through the file watcher, and assert the corrected
# prediction is served. Run from the repo root; used by CI's smoke job and
# runnable locally.
set -euo pipefail

workdir="$(mktemp -d)"
daemon_pid=""
daemon2_pid=""
cleanup() {
  for pid in "$daemon_pid" "$daemon2_pid"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

# wait_for_addr LOGFILE PID: echoes the daemon's base URL once it appears.
wait_for_addr() {
  local log="$1" pid="$2" base=""
  for _ in $(seq 1 50); do
    base="$(sed -n 's#^inanod: listening on \(http://[0-9.:]*\)$#\1#p' "$log" | head -1)"
    [[ -n "$base" ]] && { echo "$base"; return 0; }
    kill -0 "$pid" || { echo "FAIL: daemon died at startup" >&2; cat "$log" >&2; return 1; }
    sleep 0.1
  done
  echo "FAIL: daemon never reported its address" >&2; cat "$log" >&2; return 1
}

# rtt_of JSON: extracts the rtt_ms number from a /v1/query answer.
rtt_of() { sed -n 's#.*"rtt_ms":\([0-9.]*\).*#\1#p' <<<"$1"; }

# check_one_list BASE: /debug/stats is the metrics registry as JSON, so
# every family /metrics declares has a key there, its name alone or with
# its labels.
check_one_list() {
  local stats families fam missing=""
  stats="$(curl -fsS "$1/debug/stats")"
  families="$(curl -fsS "$1/metrics" | sed -n 's/^# TYPE \([^ ]*\) .*/\1/p')"
  [[ -n "$families" ]] || { echo "FAIL: /metrics declares no family"; exit 1; }
  for fam in $families; do
    grep -qE "\"$fam(\{|\")" <<<"$stats" || missing+=" $fam"
  done
  [[ -z "$missing" ]] || { echo "FAIL: /metrics families with no /debug/stats key:$missing"; exit 1; }
  echo "   $(wc -w <<<"$families") families, each keyed on /debug/stats"
}

echo "== building binaries"
go build -o "$workdir/" ./cmd/inanod ./cmd/inano-build ./cmd/inano-query

echo "== generating atlas"
"$workdir/inano-build" -scale tiny -o "$workdir/atlas.bin" >/dev/null

# Known-good IPs: take the first prefixes the atlas can answer for.
mapfile -t prefixes < <("$workdir/inano-query" -atlas "$workdir/atlas.bin" -list \
  | sed -n 's#^\([0-9.]*\)\.0/24 .*#\1.1#p' | head -6)
src="${prefixes[0]}"
dst="${prefixes[1]}"
echo "== querying $src -> $dst"

echo "== starting inanod (corrective loop against the generating world)"
"$workdir/inanod" -atlas "$workdir/atlas.bin" -listen 127.0.0.1:0 \
  -probe-sim tiny:42 -correct-interval 1s -correct-budget 4 \
  >"$workdir/daemon.log" 2>&1 &
daemon_pid=$!

base="$(wait_for_addr "$workdir/daemon.log" "$daemon_pid")"
echo "   daemon at $base"

echo "== /healthz"
health="$(curl -fsS "$base/healthz")"
echo "   $health"
grep -q '"status":"ok"' <<<"$health" || { echo "FAIL: unhealthy"; exit 1; }

echo "== /v1/query"
answer="$(curl -fsS "$base/v1/query?src=$src&dst=$dst")"
echo "   $answer"
grep -q '"src":' <<<"$answer" || { echo "FAIL: no query answer"; exit 1; }

echo "== /v1/batch (streamed, 500 pairs)"
n_pairs=500
batch_out="$workdir/batch.ndjson"
for _ in $(seq 1 "$n_pairs"); do printf '{"src":"%s","dst":"%s"}\n' "$src" "$dst"; done \
  | curl -fsS --data-binary @- -H 'Content-Type: application/x-ndjson' \
      "$base/v1/batch?window=64" > "$batch_out"
lines=$(wc -l < "$batch_out")
[[ "$lines" -eq "$n_pairs" ]] || { echo "FAIL: $lines response lines, want $n_pairs"; exit 1; }
if grep -q '"error"' "$batch_out"; then echo "FAIL: error line in batch stream"; head "$batch_out"; exit 1; fi
echo "   $lines results streamed"

echo "== /metrics"
# Capture, then grep: grep -q exiting early would SIGPIPE curl and trip
# pipefail now that the metrics page is long.
metrics="$(curl -fsS "$base/metrics")"
grep -q '^inanod_batch_pairs_streamed_total 500$' <<<"$metrics" \
  || { echo "FAIL: streamed-pairs metric missing"; exit 1; }

echo "== /debug/stats (the same registry as JSON)"
check_one_list "$base"

echo "== /v1/feedback (observation report)"
feedback="$(printf '{"src":"%s","dst":"%s","rtt_ms":250}\n{"src":"%s","dst":"%s","rtt_ms":300}\n' \
  "$src" "$dst" "$src" "${prefixes[2]}" \
  | curl -fsS --data-binary @- -H 'Content-Type: application/x-ndjson' "$base/v1/feedback")"
echo "   $feedback"
grep -q '"accepted":2' <<<"$feedback" || { echo "FAIL: feedback not accepted"; exit 1; }

echo "== /v1/relay"
relay="$(curl -fsS "$base/v1/relay?src=$src&dst=$dst&relays=${prefixes[3]},${prefixes[4]},${prefixes[5]}&k=2")"
echo "   $relay"
grep -q '"candidates":3' <<<"$relay" || { echo "FAIL: relay endpoint broken"; exit 1; }

echo "== corrective loop alive"
rounds_ok=""
for _ in $(seq 1 30); do
  metrics="$(curl -fsS "$base/metrics")"
  if awk '/^inanod_corrective_rounds_total /{found=($2>=1)} END{exit !found}' <<<"$metrics"; then
    rounds_ok=1; break
  fi
  sleep 0.2
done
[[ -n "$rounds_ok" ]] || { echo "FAIL: corrector never ran a round"; exit 1; }
grep -q '^inanod_feedback_observations_total 2$' <<<"$metrics" \
  || { echo "FAIL: feedback observations metric missing"; exit 1; }

echo "== graceful shutdown"
kill -TERM "$daemon_pid"
shutdown_rc=0
wait "$daemon_pid" || shutdown_rc=$?
daemon_pid=""
[[ "$shutdown_rc" -eq 0 ]] || { echo "FAIL: daemon exited $shutdown_rc"; cat "$workdir/daemon.log"; exit 1; }
grep -q '^inanod: shutdown complete$' "$workdir/daemon.log" \
  || { echo "FAIL: no clean shutdown marker"; cat "$workdir/daemon.log"; exit 1; }

echo "== upstream loop: starting aggregating daemon (watching delta1.bin)"
"$workdir/inanod" -atlas "$workdir/atlas.bin" -listen 127.0.0.1:0 \
  -aggregate -obs-snapshot "$workdir/obs.json" -obs-snapshot-interval 1s \
  -watch-delta "$workdir/delta1.bin" -watch-interval 1s \
  >"$workdir/daemon2.log" 2>&1 &
daemon2_pid=$!
base2="$(wait_for_addr "$workdir/daemon2.log" "$daemon2_pid")"
echo "   daemon at $base2"

# Find a predictable pair for the observation report.
obs_src="" obs_dst="" rtt0=""
for cand in "${prefixes[@]:1}"; do
  answer="$(curl -fsS "$base2/v1/query?src=${prefixes[0]}&dst=$cand")"
  if grep -q '"found":true' <<<"$answer"; then
    obs_src="${prefixes[0]}"; obs_dst="$cand"; rtt0="$(rtt_of "$answer")"
    break
  fi
done
[[ -n "$obs_dst" ]] || { echo "FAIL: no predictable pair for the observation report"; exit 1; }
echo "   observing $obs_src -> $obs_dst (served rtt ${rtt0}ms)"

echo "== POST /v1/observations (measured = served + 50ms)"
measured="$(awk -v r="$rtt0" 'BEGIN{print r+50}')"
obs_resp="$(printf '{"src":"%s","dst":"%s","rtt_ms":%s,"predicted_ms":%s}\n' \
  "$obs_src" "$obs_dst" "$measured" "$rtt0" \
  | curl -fsS --data-binary @- -H 'Content-Type: application/x-ndjson' "$base2/v1/observations")"
echo "   $obs_resp"
grep -q '"accepted":1' <<<"$obs_resp" || { echo "FAIL: observation not accepted"; exit 1; }

echo "== POST /v1/observations (structural: hop tails toward an unknown destination)"
# Two reporters (distinct claimed sources; loopback is not placeable, so
# the claimed src is the lab-mode reporter identity) upload the same hop
# tail toward a destination the atlas has never heard of. The hop
# addresses resolve through the atlas's prefix tables; agreement between
# the two reporters is what lets the build fold the tail.
hidden_dst="203.0.113.1"
hop1="${prefixes[2]}"; hop2="${prefixes[3]}"
path_resp="$( { printf '{"src":"%s","dst":"%s","rtt_ms":40,"hops":[{"ip":"%s","rtt_ms":10},{"ip":"%s","rtt_ms":20}]}\n' \
    "${prefixes[0]}" "$hidden_dst" "$hop1" "$hop2"; \
  printf '{"src":"%s","dst":"%s","rtt_ms":42,"hops":[{"ip":"%s","rtt_ms":11},{"ip":"%s","rtt_ms":21}]}\n' \
    "${prefixes[1]}" "$hidden_dst" "$hop1" "$hop2"; } \
  | curl -fsS --data-binary @- -H 'Content-Type: application/x-ndjson' "$base2/v1/observations")"
echo "   $path_resp"
grep -q '"paths":2' <<<"$path_resp" || { echo "FAIL: hop tails not accepted"; exit 1; }
stats2="$(curl -fsS "$base2/debug/stats")"
grep -q '"inanod_observation_path_slots":2' <<<"$stats2" \
  || { echo "FAIL: want 2 distinct reporter path slots"; echo "$stats2" | head -40; exit 1; }
check_one_list "$base2"

echo "== waiting for the aggregator snapshot"
snap_ok=""
for _ in $(seq 1 40); do
  if [[ -s "$workdir/obs.json" ]] && grep -q '"residual_ms"' "$workdir/obs.json" \
      && grep -q '"clusters"' "$workdir/obs.json"; then
    snap_ok=1; break
  fi
  sleep 0.25
done
[[ -n "$snap_ok" ]] || { echo "FAIL: aggregator snapshot never written"; cat "$workdir/daemon2.log"; exit 1; }

echo "== inano-build: folding the snapshot into a correction delta"
build_out="$("$workdir/inano-build" -scale tiny -o "$workdir/atlas-obs.bin" \
  -delta "$workdir/delta-obs.bin" -observations "$workdir/obs.json" -obs-min-reporters 1)"
grep -q 'corrections shipped' <<<"$build_out" || { echo "FAIL: build folded nothing"; echo "$build_out"; exit 1; }
grep -q 'agreed paths folded' <<<"$build_out" || { echo "FAIL: build folded no paths"; echo "$build_out"; exit 1; }
grep -q '1 new attachments' <<<"$build_out" \
  || { echo "FAIL: hidden destination gained no attachment"; echo "$build_out"; exit 1; }

# The unknown destination is unanswerable on the plain atlas and
# answerable on the folded one — coverage grown purely from uploaded hops.
# (inano-query exits nonzero on "no prediction"; capture, then grep.)
q_hidden_before="$("$workdir/inano-query" -atlas "$workdir/atlas.bin" "$obs_src" "$hidden_dst" || true)"
grep -q 'no prediction' <<<"$q_hidden_before" \
  || { echo "FAIL: hidden dst predictable before the fold"; echo "$q_hidden_before"; exit 1; }
q_hidden_after="$("$workdir/inano-query" -atlas "$workdir/atlas-obs.bin" "$obs_src" "$hidden_dst" || true)"
grep -q 'RTT estimate' <<<"$q_hidden_after" \
  || { echo "FAIL: hidden dst not predictable after the fold"; echo "$q_hidden_after"; exit 1; }
echo "   hidden destination $hidden_dst: no prediction -> predicted after the hop fold"

# The fold must change the file-level prediction for the observed pair by
# roughly FoldGain * 50ms = +25ms over the plain atlas.
q_plain="$("$workdir/inano-query" -atlas "$workdir/atlas.bin" "$obs_src" "$obs_dst" \
  | sed -n 's#^RTT estimate:[[:space:]]*\([0-9.]*\) ms$#\1#p')"
q_obs="$("$workdir/inano-query" -atlas "$workdir/atlas-obs.bin" "$obs_src" "$obs_dst" \
  | sed -n 's#^RTT estimate:[[:space:]]*\([0-9.]*\) ms$#\1#p')"
awk -v a="$q_obs" -v b="$q_plain" 'BEGIN{d=a-b; exit !(d>10 && d<50)}' \
  || { echo "FAIL: fold shifted file-level prediction by $q_plain -> $q_obs, want ~+25ms"; exit 1; }
echo "   file-level prediction: $q_plain -> $q_obs ms"

echo "== hot reload: publishing the correction delta to the watcher"
cp "$workdir/delta-obs.bin" "$workdir/delta1.bin"
reload_ok=""
for _ in $(seq 1 40); do
  metrics2="$(curl -fsS "$base2/metrics")"
  if grep -q '^inanod_atlas_reloads_total 1$' <<<"$metrics2"; then reload_ok=1; break; fi
  sleep 0.25
done
[[ -n "$reload_ok" ]] || { echo "FAIL: correction delta never hot-applied"; cat "$workdir/daemon2.log"; exit 1; }

echo "== corrected prediction is served"
answer1="$(curl -fsS "$base2/v1/query?src=$obs_src&dst=$obs_dst")"
rtt1="$(rtt_of "$answer1")"
awk -v served="$rtt1" -v want="$q_obs" 'BEGIN{d=served-want; if (d<0) d=-d; exit !(d<1.0)}' \
  || { echo "FAIL: served rtt $rtt1 != folded-atlas rtt $q_obs"; exit 1; }
awk -v served="$rtt1" -v plain="$q_plain" 'BEGIN{exit !(served-plain>10)}' \
  || { echo "FAIL: served rtt $rtt1 does not carry the correction (plain $q_plain)"; exit 1; }
echo "   served $rtt1 ms (uncorrected atlas would serve $q_plain ms)"

echo "== day roll: corrections carry and decay (inano-build -prev)"
build2_out="$("$workdir/inano-build" -scale tiny -day 1 -prev "$workdir/atlas-obs.bin" \
  -o "$workdir/atlas2.bin" -delta "$workdir/delta2.bin")"
grep -q 'corrections carried' <<<"$build2_out" || { echo "FAIL: -prev carried nothing"; echo "$build2_out"; exit 1; }
grep -q 'observed links/attachments carried' <<<"$build2_out" \
  || { echo "FAIL: -prev carried no observed structure"; echo "$build2_out"; exit 1; }
q2_hidden="$("$workdir/inano-query" -atlas "$workdir/atlas2.bin" "$obs_src" "$hidden_dst" || true)"
grep -q 'RTT estimate' <<<"$q2_hidden" \
  || { echo "FAIL: carried hop structure lost on the day roll"; echo "$q2_hidden"; exit 1; }
echo "   hidden destination still predictable on day 1 (carried at reduced lifetime)"
"$workdir/inano-build" -scale tiny -day 1 -o "$workdir/atlas2-plain.bin" >/dev/null
q2="$("$workdir/inano-query" -atlas "$workdir/atlas2.bin" "$obs_src" "$obs_dst" \
  | sed -n 's#^RTT estimate:[[:space:]]*\([0-9.]*\) ms$#\1#p')"
q2_plain="$("$workdir/inano-query" -atlas "$workdir/atlas2-plain.bin" "$obs_src" "$obs_dst" \
  | sed -n 's#^RTT estimate:[[:space:]]*\([0-9.]*\) ms$#\1#p')"
# The unsupported correction halves on the roll: ~+12.5ms over plain day 1.
awk -v a="$q2" -v b="$q2_plain" 'BEGIN{d=a-b; exit !(d>5 && d<20)}' \
  || { echo "FAIL: day-roll carry: $q2_plain -> $q2, want ~+12.5ms"; exit 1; }
echo "   day-1 prediction: $q2_plain plain, $q2 with the decayed carried correction"

# The day-roll delta (based on the archived folded atlas) hot-applies too.
cp "$workdir/delta2.bin" "$workdir/delta1.bin"
roll_ok=""
for _ in $(seq 1 40); do
  if curl -fsS "$base2/healthz" | grep -q '"day":1'; then roll_ok=1; break; fi
  sleep 0.25
done
[[ -n "$roll_ok" ]] || { echo "FAIL: day-roll delta never hot-applied"; cat "$workdir/daemon2.log"; exit 1; }
echo "   daemon rolled to day 1"

echo "== upstream daemon graceful shutdown"
kill -TERM "$daemon2_pid"
shutdown_rc=0
wait "$daemon2_pid" || shutdown_rc=$?
daemon2_pid=""
[[ "$shutdown_rc" -eq 0 ]] || { echo "FAIL: daemon2 exited $shutdown_rc"; cat "$workdir/daemon2.log"; exit 1; }

echo "PASS: inanod smoke"
