#!/usr/bin/env bash
# ladder_smoke.sh — end-to-end gate for the segment/ladder job graph
# (DESIGN.md §12): start cmd/serve as a fleet orchestrator, join two
# cmd/worker processes, drive segmented ABR-ladder jobs (every submission
# fans out into rung × segment parts that are leased and placed
# independently), kill -9 one worker while it holds a segment part, and
# prove recovery happens at part granularity: only the segments the dead
# worker held are requeued (attempts > 1), their sibling parts under the
# same parent keep attempts == 1, and zero parts are lost — loadgen exits 1
# if any part is missing, unfinished, or if the server's part ledger
# (serve_parts_submitted vs serve_parts_completed) does not balance.
#
#   ./scripts/ladder_smoke.sh            # default: 4 ladder jobs (16 parts)
#   N=8 RATE=50 ./scripts/ladder_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

N="${N:-4}"
RATE="${RATE:-20}"
SEGMENTS="${SEGMENTS:-2}"
LADDER="${LADDER:-23,43}"
ADDR="${ADDR:-localhost:18082}"
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

# Short lease TTL so the killed worker's parts are reclaimed within the
# smoke budget; -warm all fills the cost model so placement runs smart.
/tmp/repro-serve -addr "$ADDR" -fleet -lease-ttl 1s -poll-wait 2s \
	-frames 4 -scale 16 -warm all >"$LOG" 2>&1 &
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

# w1 survives; w2 pads every part to 5s so it is guaranteed to be holding
# a segment lease when we shoot it.
/tmp/repro-worker -orchestrator "$ADDR" -id w1 -config baseline \
	-heartbeat 200ms >"$W1LOG" 2>&1 &
W1_PID=$!
/tmp/repro-worker -orchestrator "$ADDR" -id w2 -config fe_op \
	-heartbeat 200ms -min-job 5s >"$W2LOG" 2>&1 &
W2_PID=$!

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

/tmp/repro-loadgen -addr "http://$ADDR" -n "$N" -rate "$RATE" -seed 1 \
	-segments "$SEGMENTS" -ladder "$LADDER" -timeout 180s >"$LOADOUT" &
LOAD_PID=$!

# Wait until w2 is actually holding a part lease, then kill -9 it.
BUSY=0
for _ in $(seq 1 200); do
	if curl -sf "http://$ADDR/healthz" | tr -d ' \n' | grep -q '"id":"w2"[^}]*"busy":true'; then
		BUSY=1
		break
	fi
	sleep 0.1
done
if [ "$BUSY" != 1 ]; then
	echo "w2 never picked up a segment part; cannot exercise crash recovery" >&2
	exit 1
fi
kill -9 "$W2_PID"
wait "$W2_PID" 2>/dev/null || true # reap quietly
echo "ladder smoke: killed w2 mid-segment, waiting for part reassignment" >&2

# loadgen's hard assertions: every parent done, every part done, the part
# ledger balanced, and the fan-out/stitch histograms published.
wait "$LOAD_PID"
cat "$LOADOUT"

# Per-segment recovery, not whole-job: at least one part was reassigned
# (attempts > 1) AND at least one sibling part of the same parent was not
# re-run — a whole-job requeue would bump every sibling's attempts.
read -r REASSIGNED UNTOUCHED < <(
	awk '/^loadgen: parts:/ {print $5, $7}' "$LOADOUT"
)
if [ -z "${REASSIGNED:-}" ] || [ "$REASSIGNED" -lt 1 ]; then
	echo "no segment part was reassigned — crash recovery never ran" >&2
	exit 1
fi
if [ -z "${UNTOUCHED:-}" ] || [ "$UNTOUCHED" -lt 1 ]; then
	echo "every sibling of a reassigned part re-ran — recovery was not per-segment" >&2
	exit 1
fi

# The fan-out really was rung x segment: N parents, each expanding into
# (ladder rungs x segments) parts, every one submitted exactly once.
# (Snapshot /metrics to a file: grep -q on a live curl pipe races SIGPIPE
# under pipefail.)
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
	echo "no lease was reassigned — crash recovery path never ran:" >&2
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
echo "ladder smoke ok: $N ladder jobs ($WANT_PARTS parts), one worker killed mid-segment, $REASSIGNED parts reassigned, $UNTOUCHED siblings untouched, zero lost"
