#!/usr/bin/env bash
# smoke.sh — the end-to-end gates of the online serving layer, one scenario
# per run:
#
#   serve   cmd/serve on its loopback pool, 50 jobs at 100/s (DESIGN.md §10)
#   fleet   orchestrator + two cmd/worker processes; w2 is kill -9'd while
#           it holds a lease and the lease must be reassigned (§11)
#   ladder  as fleet with segmented ABR-ladder jobs: recovery is per part,
#           not per job (§12)
#   spot    as ladder under the cost objective, w2 a spot accelerator:
#           capability on /healthz and a live cost ledger (§14)
#
# Every scenario relies on cmd/loadgen's hard assertions (exit 1 on any lost
# or failed job or part, an unbalanced part or cost ledger, or a /metrics
# snapshot without the queue-depth gauge and sojourn histograms), then
# checks its own lines below and a SIGTERM drain that settles every job.
#
#   ./scripts/smoke.sh fleet
#   ADDR=localhost:19000 ./scripts/smoke.sh spot
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
	echo "usage: $0 serve|fleet|ladder|spot" >&2
	exit 2
}
[ $# -eq 1 ] || usage

# A lease was reassigned: the crash-recovery path ran.
REASSIGNED='"fleet_lease_reassigned": *[1-9]'
# At least one part was re-run AND at least one sibling under a re-run
# part's parent was not: a whole-job requeue would re-run every sibling.
PER_PART='^loadgen: parts: [0-9]* done, [1-9][0-9]* reassigned, [1-9][0-9]* untouched'

# One row per scenario: its port, the orchestrator's flags, w2's flags (none
# means no workers and no kill), loadgen's flags, and the lines /healthz
# (before load), loadgen's stdout and /metrics (after load) must contain.
# The fleets use a 1s lease TTL so a killed worker's lease is reclaimed
# within the run.
HEALTH_WANT=() LOAD_WANT=() METRICS_WANT=() W2=()
case "$1" in
serve)
	PORT=18080
	SERVE=()
	LOAD=(-n 50 -rate 100 -timeout 120s)
	;;
fleet)
	PORT=18081
	SERVE=(-fleet -lease-ttl 1s -poll-wait 2s)
	W2=(-config fe_op)
	LOAD=(-n 30 -rate 100 -timeout 120s)
	METRICS_WANT=("$REASSIGNED")
	;;
ladder)
	PORT=18082
	SERVE=(-fleet -lease-ttl 1s -poll-wait 2s)
	W2=(-config fe_op)
	LOAD=(-n 4 -rate 20 -segments 2 -ladder 23,43 -timeout 180s)
	LOAD_WANT=("$PER_PART")
	# 4 jobs x 2 rungs x 2 segments, each part submitted exactly once.
	METRICS_WANT=("$REASSIGNED" '"serve_parts_submitted": *16\b')
	;;
spot)
	PORT=18083
	SERVE=(-fleet -objective cost -lease-ttl 1s -poll-wait 2s)
	W2=(-backend accel -spot)
	# -deadline is simulated seconds and -budget cents per job: generous
	# for tiny-proxy jobs, which cost micro-cents.
	LOAD=(-n 4 -rate 20 -segments 2 -ladder 23,43 -deadline 1 -budget 0.01 -timeout 180s)
	HEALTH_WANT=('"backend": *"accel"' '"spot": *true')
	LOAD_WANT=("$PER_PART" '^loadgen: economics:')
	METRICS_WANT=("$REASSIGNED" '"serve_parts_submitted": *16\b'
		'"serve_cost_microcents": *[1-9]' '"serve_backend_jobs{backend=baseline}": *[1-9]')
	;;
*) usage ;;
esac
NAME=$1
ADDR="${ADDR:-localhost:$PORT}"
URL="http://$ADDR"
TMP="$(mktemp -d)"
SERVE_PID="" W1_PID="" W2_PID="" LOAD_PID=""
cleanup() {
	kill "$SERVE_PID" "$W1_PID" "$LOAD_PID" 2>/dev/null || true
	kill -9 "$W2_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

# fail MSG [FILE]: report MSG, show FILE from $TMP, exit 1.
fail() {
	echo "smoke $NAME: $1" >&2
	if [ $# -gt 1 ]; then cat "$TMP/$2" >&2 || true; fi
	exit 1
}

# expect FILE PATTERN...: fail unless every PATTERN matches a line of FILE.
expect() {
	local f=$1 p
	shift
	for p in "$@"; do
		grep -q -- "$p" "$TMP/$f" || fail "$f has no line matching $p:" "$f"
	done
}

# snap PATH: save GET $URL/PATH to $TMP/PATH. A file, not a pipe: grep -q
# on a live curl pipe races SIGPIPE under pipefail.
snap() { curl -sf "$URL/$1" >"$TMP/$1"; }

# poll TRIES DELAY CMD...: run CMD until it succeeds, at most TRIES times.
poll() {
	local tries=$1 delay=$2
	shift 2
	for _ in $(seq "$tries"); do
		"$@" && return 0
		sleep "$delay"
	done
	return 1
}

healthy() {
	snap healthz && return 0
	kill -0 "$SERVE_PID" 2>/dev/null || fail "serve exited before becoming healthy:" serve.log
	return 1
}
pool_ready() { snap healthz && grep -q '"pool_size": *2' "$TMP/healthz"; }
w2_busy() { snap healthz && tr -d ' \n' <"$TMP/healthz" | grep -q '"id":"w2"[^}]*"busy":true'; }

go build -o "$TMP/" ./cmd/serve ./cmd/worker ./cmd/loadgen

# Small frames/scale keep a job to a few milliseconds of simulation; -warm
# all fills the cost model so admission and placement run the smart path.
"$TMP/serve" -addr "$ADDR" "${SERVE[@]}" -frames 4 -scale 16 -warm all >"$TMP/serve.log" 2>&1 &
SERVE_PID=$!
poll 100 0.3 healthy || fail "serve never became healthy:" serve.log

if [ ${#W2[@]} -gt 0 ]; then
	# w1 survives; w2 pads every job to 5s so it is certain to hold a lease
	# when it is shot.
	"$TMP/worker" -orchestrator "$ADDR" -id w1 -config baseline -heartbeat 200ms >"$TMP/w1.log" 2>&1 &
	W1_PID=$!
	"$TMP/worker" -orchestrator "$ADDR" -id w2 "${W2[@]}" -heartbeat 200ms -min-job 5s >"$TMP/w2.log" 2>&1 &
	W2_PID=$!
	poll 50 0.2 pool_ready || fail "workers never registered:" healthz
	expect healthz "${HEALTH_WANT[@]}"
fi

"$TMP/loadgen" -addr "$URL" -seed 1 "${LOAD[@]}" >"$TMP/loadgen.out" &
LOAD_PID=$!

if [ -n "$W2_PID" ]; then
	# No warning and no disclaim, as a crash or a spot reclaim would do.
	poll 200 0.1 w2_busy || fail "w2 never picked up a job; cannot exercise crash recovery"
	kill -9 "$W2_PID"
	wait "$W2_PID" 2>/dev/null || true
	echo "smoke $NAME: killed w2 mid-job, waiting for its lease to be reassigned" >&2
fi

wait "$LOAD_PID" || fail "loadgen failed:" loadgen.out
LOAD_PID=""
cat "$TMP/loadgen.out"
expect loadgen.out "${LOAD_WANT[@]}"
snap metrics || fail "GET /metrics failed"
expect metrics "${METRICS_WANT[@]}"
# Every scenario's jobs fit the default retention window, so the server
# still holds their records.
expect metrics '"serve_records": *[1-9]'

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
expect serve.log 'serve: done'
grep 'serve: done' "$TMP/serve.log" >&2
echo "smoke $NAME ok in ${SECONDS}s: zero lost"
