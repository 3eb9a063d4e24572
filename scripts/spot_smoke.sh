#!/usr/bin/env bash
# spot_smoke.sh — end-to-end gate for the heterogeneous fleet economics
# (DESIGN.md §14): start cmd/serve as a fleet orchestrator under the cost
# objective, join one on-demand software worker and one spot accelerator,
# drive segmented ladder jobs with deadlines and a per-job budget, then
# preempt the spot worker (kill -9) while it holds a segment part.
# Recovery must be loss-free and minimal: only the preempted worker's
# parts are re-attempted (attempts > 1), sibling parts stay at one
# attempt, and the run fails if any part is lost or unfinished. On top of
# the ladder checks this gate asserts the economic surface: both workers'
# backend/price/spot capability shows on /healthz, the cost ledger
# balances between client and server, the mean $ per job stays under
# -budget, and the cost counters are live on /metrics.
#
#   ./scripts/spot_smoke.sh            # default: 4 ladder jobs (16 parts)
#   N=8 RATE=50 ./scripts/spot_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

N="${N:-4}"
RATE="${RATE:-20}"
SEGMENTS="${SEGMENTS:-2}"
LADDER="${LADDER:-23,43}"
DEADLINE="${DEADLINE:-1}"   # simulated seconds; generous for the tiny proxy
BUDGET="${BUDGET:-0.01}"    # cents per job; tiny-proxy jobs cost micro-cents
ADDR="${ADDR:-localhost:18083}"
LOG="$(mktemp)"
W1LOG="$(mktemp)"
W2LOG="$(mktemp)"
LOADOUT="$(mktemp)"

go build -o /tmp/repro-serve ./cmd/serve
go build -o /tmp/repro-worker ./cmd/worker
go build -o /tmp/repro-loadgen ./cmd/loadgen

cleanup() {
	kill "$SERVE_PID" "$W1_PID" 2>/dev/null || true
	kill -9 "$W2_PID" 2>/dev/null || true
	rm -f "$LOG" "$W1LOG" "$W2LOG" "$LOADOUT"
}

# Short lease TTL so the preempted spot worker's parts are reclaimed within
# the smoke budget; -warm all fills the cost model so admission can price
# deadlines and placement can price the cost matrix.
/tmp/repro-serve -addr "$ADDR" -fleet -objective cost -lease-ttl 1s \
	-poll-wait 2s -frames 4 -scale 16 -warm all >"$LOG" 2>&1 &
SERVE_PID=$!
W1_PID=""
W2_PID=""
trap cleanup EXIT

for _ in $(seq 1 100); do
	if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
		break
	fi
	if ! kill -0 "$SERVE_PID" 2>/dev/null; then
		echo "serve exited before becoming healthy:" >&2
		cat "$LOG" >&2
		exit 1
	fi
	sleep 0.3
done

# w1 is the on-demand software survivor; w2 is spot accelerator capacity
# that pads every part to 5s so it is guaranteed to be holding a segment
# lease when the "spot reclaim" (kill -9) lands.
/tmp/repro-worker -orchestrator "$ADDR" -id w1 -config baseline \
	-heartbeat 200ms >"$W1LOG" 2>&1 &
W1_PID=$!
/tmp/repro-worker -orchestrator "$ADDR" -id w2 -backend accel -spot \
	-heartbeat 200ms -min-job 5s >"$W2LOG" 2>&1 &
W2_PID=$!

for _ in $(seq 1 50); do
	if curl -sf "http://$ADDR/healthz" | grep -q '"pool_size": *2'; then
		break
	fi
	sleep 0.2
done
HEALTH="$(mktemp)"
curl -sf "http://$ADDR/healthz" >"$HEALTH" || true
if ! grep -q '"pool_size": *2' "$HEALTH"; then
	echo "workers never registered:" >&2
	cat "$HEALTH" >&2
	rm -f "$HEALTH"
	exit 1
fi
# The spot accelerator's capability (backend class, spot flag, non-zero
# hourly price) must be visible on the health surface before placement.
if ! grep -q '"backend": *"accel"' "$HEALTH" || ! grep -q '"spot": *true' "$HEALTH"; then
	echo "spot accelerator capability missing from /healthz:" >&2
	cat "$HEALTH" >&2
	rm -f "$HEALTH"
	exit 1
fi
rm -f "$HEALTH"

/tmp/repro-loadgen -addr "http://$ADDR" -n "$N" -rate "$RATE" -seed 1 \
	-segments "$SEGMENTS" -ladder "$LADDER" -deadline "$DEADLINE" \
	-budget "$BUDGET" -timeout 180s >"$LOADOUT" &
LOAD_PID=$!

# Wait until the spot worker is actually holding a part lease, then
# preempt it the way a cloud provider does: no warning, no disclaim.
BUSY=0
for _ in $(seq 1 200); do
	if curl -sf "http://$ADDR/healthz" | tr -d ' \n' | grep -q '"id":"w2"[^}]*"busy":true'; then
		BUSY=1
		break
	fi
	sleep 0.1
done
if [ "$BUSY" != 1 ]; then
	echo "spot worker never picked up a part; cannot exercise preemption" >&2
	exit 1
fi
kill -9 "$W2_PID"
wait "$W2_PID" 2>/dev/null || true # reap quietly
echo "spot smoke: preempted w2 mid-ladder, waiting for part reassignment" >&2

# loadgen's hard assertions: every parent done, every part done, the part
# ledger balanced, client-vs-server cost ledger consistent, mean cost
# under budget.
wait "$LOAD_PID"
cat "$LOADOUT"

# Preemption recovery is per-part, not per-job: at least one part was
# re-attempted and at least one sibling was not.
read -r REASSIGNED UNTOUCHED < <(
	awk '/^loadgen: parts:/ {print $5, $7}' "$LOADOUT"
)
if [ -z "${REASSIGNED:-}" ] || [ "$REASSIGNED" -lt 1 ]; then
	echo "no segment part was reassigned — preemption recovery never ran" >&2
	exit 1
fi
if [ -z "${UNTOUCHED:-}" ] || [ "$UNTOUCHED" -lt 1 ]; then
	echo "every sibling of a reassigned part re-ran — recovery was not per-part" >&2
	exit 1
fi
if ! grep -q '^loadgen: economics:' "$LOADOUT"; then
	echo "loadgen printed no economics line" >&2
	exit 1
fi

# Metrics surface: all parts submitted, the preempted lease reassigned,
# the cost ledger counting, and settled work attributed to a backend
# class. (Snapshot /metrics to a file: grep -q on a live curl pipe races
# SIGPIPE under pipefail.)
METRICS="$(mktemp)"
curl -sf "http://$ADDR/metrics" >"$METRICS"
RUNGS=$(echo "$LADDER" | awk -F, '{print NF}')
WANT_PARTS=$((N * RUNGS * SEGMENTS))
if ! grep -q "\"serve_parts_submitted\": *$WANT_PARTS\b" "$METRICS"; then
	echo "part count mismatch (want $WANT_PARTS):" >&2
	grep serve_parts "$METRICS" >&2 || true
	rm -f "$METRICS"
	exit 1
fi
if ! grep -q '"fleet_lease_reassigned": *[1-9]' "$METRICS"; then
	echo "no lease was reassigned — preemption recovery path never ran" >&2
	rm -f "$METRICS"
	exit 1
fi
if ! grep -q '"serve_cost_microcents": *[1-9]' "$METRICS"; then
	echo "cost ledger counter never moved:" >&2
	grep serve_cost "$METRICS" >&2 || true
	rm -f "$METRICS"
	exit 1
fi
if ! grep -q '"serve_backend_jobs{backend=baseline}": *[1-9]' "$METRICS"; then
	echo "no settled work attributed to the surviving software class:" >&2
	grep serve_backend "$METRICS" >&2 || true
	rm -f "$METRICS"
	exit 1
fi
rm -f "$METRICS"

# Graceful drain: SIGTERM must settle every admitted job and print totals
# (including the cost and deadline-miss tallies).
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
if ! grep -q 'serve: done' "$LOG"; then
	echo "serve did not report a clean drain:" >&2
	cat "$LOG" >&2
	exit 1
fi
grep 'serve: done' "$LOG" >&2
echo "spot smoke ok: $N ladder jobs ($WANT_PARTS parts), spot accelerator preempted mid-ladder, $REASSIGNED parts reassigned, $UNTOUCHED siblings untouched, zero lost, ledger balanced"
