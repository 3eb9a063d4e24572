#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end gate for the distributed fleet (DESIGN.md
# §11): start cmd/serve as an orchestrator with a short lease TTL, join two
# cmd/worker processes, kill -9 one of them while it holds a job, and prove
# the lease machinery recovers — the orphaned job must be requeued onto the
# survivor and loadgen must see every admitted job reach a terminal state
# (loadgen exits 1 on any lost or failed job, so recovery is a hard gate,
# not a log grep). Afterwards the /metrics snapshot must show at least one
# reassigned lease, and SIGTERM must drain the orchestrator cleanly.
#
#   ./scripts/fleet_smoke.sh            # default: 30 jobs at 100/s
#   N=100 RATE=300 ./scripts/fleet_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

N="${N:-30}"
RATE="${RATE:-100}"
ADDR="${ADDR:-localhost:18081}"
LOG="$(mktemp)"
W1LOG="$(mktemp)"
W2LOG="$(mktemp)"

go build -o /tmp/repro-serve ./cmd/serve
go build -o /tmp/repro-worker ./cmd/worker
go build -o /tmp/repro-loadgen ./cmd/loadgen

cleanup() {
	kill "$SERVE_PID" "$W1_PID" 2>/dev/null || true
	kill -9 "$W2_PID" 2>/dev/null || true
	rm -f "$LOG" "$W1LOG" "$W2LOG"
}

# Short lease TTL so the killed worker's job is reclaimed within the smoke
# budget; -warm all fills the cost model so placement runs the smart path.
/tmp/repro-serve -addr "$ADDR" -fleet -lease-ttl 1s -poll-wait 2s \
	-frames 4 -scale 16 -warm all >"$LOG" 2>&1 &
SERVE_PID=$!
W1_PID=""
W2_PID=""
trap cleanup EXIT

# Wait for the API to come up (warming runs first).
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

# w1 survives; w2 pads every job to 5s so it is guaranteed to be holding a
# lease when we shoot it (a smoke job is otherwise a few milliseconds).
/tmp/repro-worker -orchestrator "$ADDR" -id w1 -config baseline \
	-heartbeat 200ms >"$W1LOG" 2>&1 &
W1_PID=$!
/tmp/repro-worker -orchestrator "$ADDR" -id w2 -config fe_op \
	-heartbeat 200ms -min-job 5s >"$W2LOG" 2>&1 &
W2_PID=$!

# Both workers registered and idle-parked before load arrives.
for _ in $(seq 1 50); do
	if curl -sf "http://$ADDR/healthz" | grep -q '"pool_size": *2'; then
		break
	fi
	sleep 0.2
done
if ! curl -sf "http://$ADDR/healthz" | grep -q '"pool_size": *2'; then
	echo "workers never registered:" >&2
	curl -sf "http://$ADDR/healthz" >&2 || true
	exit 1
fi

/tmp/repro-loadgen -addr "http://$ADDR" -n "$N" -rate "$RATE" -seed 1 -timeout 120s &
LOAD_PID=$!

# Wait until w2 is actually holding a lease, then kill -9 it mid-job.
BUSY=0
for _ in $(seq 1 200); do
	if curl -sf "http://$ADDR/healthz" | tr -d ' \n' | grep -q '"id":"w2"[^}]*"busy":true'; then
		BUSY=1
		break
	fi
	sleep 0.1
done
if [ "$BUSY" != 1 ]; then
	echo "w2 never picked up a job; cannot exercise crash recovery" >&2
	exit 1
fi
kill -9 "$W2_PID"
wait "$W2_PID" 2>/dev/null || true # reap quietly
echo "fleet smoke: killed w2 mid-job, waiting for lease reassignment" >&2

# loadgen's own hard assertions: zero lost jobs, zero failed jobs, and the
# /metrics contract (queue-depth gauge + sojourn histograms) present.
wait "$LOAD_PID"

# The recovery path must actually have fired. (Snapshot /metrics to a
# file: grep -q on a live curl pipe races SIGPIPE under pipefail.)
METRICS="$(mktemp)"
curl -sf "http://$ADDR/metrics" >"$METRICS"
if ! grep -q '"fleet_lease_reassigned": *[1-9]' "$METRICS"; then
	echo "no lease was reassigned — crash recovery path never ran:" >&2
	cat "$METRICS" >&2
	rm -f "$METRICS"
	exit 1
fi
rm -f "$METRICS"

# Graceful drain: SIGTERM must settle every admitted job and print totals.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
if ! grep -q 'serve: done' "$LOG"; then
	echo "serve did not report a clean drain:" >&2
	cat "$LOG" >&2
	exit 1
fi
grep 'serve: done' "$LOG" >&2
echo "fleet smoke ok: $N jobs, one worker killed mid-job, zero lost"
