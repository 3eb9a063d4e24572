#!/usr/bin/env bash
# ci.sh — the tier-1 gate: format, vet, build, full tests, and the race
# detector over the packages with real concurrency (the exec worker pool,
# the obs metrics registry, the sweep engine and singleflight caches in
# core, the recorder/replay layer in trace).
#
# bash (not sh): `dirname "$0"` + cd keeps relative invocation working,
# and pipefail keeps a failure on the left of any pipe fatal.
set -euxo pipefail
cd "$(dirname "$0")/.."

# gofmt -l prints offending files and exits 0, so fail on any output. The
# expansion stays quoted end-to-end: a filename with spaces is one line of
# output, not word-split fragments that could collapse to an empty test.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	printf 'gofmt needed on:\n%s\n' "$unformatted" >&2
	exit 1
fi

# Every script parses, and the smoke harness rejects an unknown scenario
# with its usage line before it builds or starts anything.
for f in scripts/*.sh; do bash -n "$f"; done
usage="$(./scripts/smoke.sh nosuch 2>&1)" && exit 1
case "$usage" in usage:*) ;; *) exit 1 ;; esac
# The four serving gates are scenarios of scripts/smoke.sh, not copies of
# one drill; the pool's per-Map utilization gauge was deleted (busy time is
# exec_busy_ns, and only a caller knows the wall window to divide it by).
if compgen -G 'scripts/*_smoke.sh'; then exit 1; fi
if grep -rn --include='*.go' --exclude='*_test.go' 'exec_[u]tilization_pct' .; then exit 1; fi
# The No*Cache escape hatches and the legacy-placement predicate were
# deleted (one replay path, one placement matrix); keep them from drifting
# back in. ([P] keeps this line from matching itself; `! grep` would not
# trip set -e.)
if grep -rnE 'No(Replay|Parse|Analysis)Cache|no-(replay|parse|analysis)-cache|hetero[P]lacement' --include='*.go' --include='*.sh' --include='*.yml' .; then exit 1; fi
# The cache budget is a constant chosen from measurement plus one
# constructor argument (core.NewEngine); it does not come back as a flag or
# an environment variable.
if grep -rnE 'cache-[b]udget|CACHE_[B]UDGET' --include='*.go' --include='*.sh' --include='*.yml' .; then exit 1; fi
# A single encode is serial: the intra-encode wavefront and its worker
# knob were deleted (scaling comes from segments and the job pools).
if grep -rnE 'parallel[W]orkers|encodeRows[P]arallel|opt\.[W]orkers' --include='*.go' --include='*.sh' --include='*.yml' .; then exit 1; fi
# A parsed trace is the recorded bytes, validated once, not a columnar copy
# of them: the column parse, its replay paths and the multi-sink fan-out
# were deleted.
if grep -rnE 'Parse[F]rom|Replay[M]ulti|Replay[P]arsed|\.Col[u]mns\(' --include='*.go' --include='*.sh' --include='*.yml' .; then exit 1; fi
# One fleet type (sched.Fleet; a uniform software fleet is SoftwareFleet,
# a flag's is backend.ParseFleet) and one smart scheduler over it; Job has
# no encode-only knob (that is core.EncodeOnly); vprof's two roofline
# constants replaced the roofline package. The names are word-bounded so
# the tests that kept their names (TestUniformPool, ...) do not match.
if grep -rnE '\bUniform[P]ool\b|\bPoolBy[N]ames\b|\bFleetFrom[P]ool\b|\bAssign[P]ool\b|Skip[D]ecode|internal/[r]oofline|sched\.P[o]ol\b' --include='*.go' --include='*.sh' --include='*.yml' .; then exit 1; fi
# A Plan is its points: the sweep's warm-up pass, which built every title
# ahead of the points and rebuilt what the budget evicted, was deleted
# (the singleflight caches build each title once for all its points).
if grep -rnE 'Warm[T]arget|Plan\.W[a]rm' --include='*.go' --include='*.sh' --include='*.yml' .; then exit 1; fi
# The dispatcher has one wake-up, the server's change counter: the
# transports' own slot waits and the 2 ms retry sleep for unplaceable jobs
# were deleted, and no timer comes back into the serving layer.
if grep -rn 'wait[F]ree' --include='*.go' .; then exit 1; fi
if grep -n 'time\.[S]leep' $(ls internal/serve/*.go | grep -v '_test\.go$'); then exit 1; fi
# A job graph's parent is a fold over its parts in part order (foldParts),
# not running aggregates kept in the order parts happened to finish.
if grep -nE 'parts(Term|Done|Failed|Canceled|Seconds|Cost|Missed)|part[E]rr|first[D]one' $(ls internal/serve/*.go | grep -v '_test\.go$'); then exit 1; fi
# Fig. 9's task x config grid is one core.Sweep plan; its private cell pool
# and the two metrics nothing read were deleted.
if grep -rn 'sched_[c]ell' --include='*.go' .; then exit 1; fi
# A fleet lease lives as long as its worker, under one fixed TTL: the
# per-lease expiry, its renewal and the TTL fitted to job durations were
# deleted. Stream retention is decided where the result lands (a part keeps
# its bitstream), not by a Job flag.
if grep -rnE 'adaptive[T]TL|leaseDur[W]indow|observe[L]ease|Keep[S]tream' --include='*.go' .; then exit 1; fi
# The fleet registry is the live fleet: a silent worker is forgotten, not
# kept as gone and revived, and per-worker facts are reported once, in
# /healthz, not as per-worker gauges. The loopback bounds its executions on
# Pool.Map; the second pool beside it was deleted.
if grep -rnE '\bw\.g[o]ne\b|\brev[i]ved\b|fleet_worker_[u]til_pct|exec\.Str[e]am\b|ErrStream[C]losed' --include='*.go' .; then exit 1; fi
# A fleet result settles its job only through a live lease: the lease table
# holds live leases alone, and the reconciliation of results for superseded
# leases (its settle path, its reply reason, its lease flag) was deleted.
if grep -rnE 'late[S]ettle|late_[d]iscarded|\.[s]uperseded\b|^\s*[s]uperseded\s+bool' --include='*.go' --exclude='*_test.go' .; then exit 1; fi
# Each serving rule is said once: a lease is found through the worker that
# holds it (no lease table beside the workers), sched.Admits alone decides
# where a job may run (no dispatcher-side copy of it), and a comparison is
# two serve.RunClosedLoop runs (no comparison types wrapping them).
if grep -rnE '^\s*[l]eases\s+map\[' --include='*.go' --exclude='*_test.go' internal/serve; then exit 1; fi
if grep -rnE '\bRun(Cost)?[C]omparison\b|\bCost[C]omparison\b|func \(s \*Server\) [e]xecutable\b' --include='*.go' --exclude='*_test.go' .; then exit 1; fi
# A class's jobs leave the queue in arrival order: the priority and the
# wall-clock deadline no client sent were deleted with the three-key order
# they fed, and so was the ticket's attempt count that only tests read.
# The facade's trace trio went too (benchmarks call internal/trace).
if grep -rnE 'Deadline[M]s|deadline_[m]s|\bP[r]iority\b|A[t]tempts\(\)' --include='*.go' --exclude='*_test.go' internal/queue internal/serve; then exit 1; fi
if grep -nE '\b(ParsedDecode[T]race|Parse[T]race|Replay[T]race)\b' transcoding.go; then exit 1; fi
# A cached decode keeps each frame's visible pixels, not the padded frame:
# every caller materializes frames of its own from them, so the deep copy
# of shared cached frames was deleted and does not come back.
if grep -rn 'clone[F]rames' --include='*.go' .; then exit 1; fi
# A job's machine is a thawed snapshot keyed on its code image: no per-job
# machine replays the decode in core, and Fig. 8 is a core.Sweep plan like
# every other figure, so cmd/paper calls no core.Run.
if grep -rnE 'NewMachine\(job\.Config, job\.[I]mage\)' --include='*.go' --exclude='*_test.go' internal/core; then exit 1; fi
if grep -rnE 'core\.R[u]n\(' --include='*.go' cmd/paper; then exit 1; fi
# DESIGN.md describes the design it has; a change's measurements live in
# its CHANGES.md entry, not in per-PR logs beside the design.
if grep -n '^\*\*PR [0-9]*, measured' DESIGN.md; then exit 1; fi

go vet ./...
go build ./...
go test ./...
# Fast race gates first: the execution engine and the metrics registry are
# pure concurrency — races there invalidate every sweep and every reported
# number — so surface them before the long run below. The admission queue
# and serving layer join the list: their exactly-once guarantee (no job
# lost or double-executed under concurrent submit/dispatch/cancel) only
# means something under the race detector. The serving tests run twice in
# one process: a test that only passes on a cold process-wide engine fails
# its second pass.
go test -race ./internal/exec/... ./internal/obs/... ./internal/queue/...
go test -race -count=2 ./internal/serve/... ./internal/worker/...
# A parent settles as the fold of its parts in part order, whatever order
# the parts finish in. The retention window forgets in settle order, a
# parent with its parts, within its budget; a blocked WaitJob outlives the
# eviction, and a job that settles before Submit returns is retained. A
# fleet result naming a lease that is no longer live (superseded, settled,
# disclaimed) gets the one reply unknown_lease, whatever the order of
# messages, and only live leases are held; a result from a worker that
# does not hold the lease it names gets the same reply and settles and
# bills nothing. A worker counts only the results it was told were
# accepted.
go test -race -count=5 -run 'TestParentSettlesInPartOrder|TestRetentionForgetsInSettleOrder|TestGoneVersusUnknown|TestWaitJobOutlivesEviction|TestSettledBeforeSubmitReturnsIsRetained|TestFleetSupersededLeaseResultIsRefused|TestFleetLateResultLosesToRetry|TestFleetDuplicateResultIsIdempotent|TestFleetRejoinReclaimsOrphanedJob|TestFleetResultFromNonHolderIsRefused' ./internal/serve
go test -race -count=5 -run 'TestWorkerCountsOnlyAcceptedResults' ./internal/worker
# The sweep engine: cancellation, and points with equal canonical jobs
# sharing one run (TestSweepCancel also matches TestSweepCancelSharedPoints,
# where a shared point must carry its run's outcome under cancellation),
# then the cache engine's snapshot and budget paths.
go test -race -run 'TestSweepCancel|TestSweepPreCanceled|TestSweepSharedPointsMatchRuns|TestSweepSharingKeepsInvalidRefsApart|TestSnapshotFootprint|TestSnapshotLayersShareLevels|TestEveryCacheLayerReportsBytes|TestEvictedLayerRebuildsBitIdentical|TestEngineSoakHoldsBudget|TestSweepOverBudgetBuildsEachTitleOnce' ./internal/core/...
# Eviction under concurrency is a matter of interleavings — a waiter whose
# entry is evicted before it wakes, a key rebuilt while its old value is
# still in use, a canceled builder landing late — so these repeat.
go test -race -count=10 -run 'TestEngineConcurrentRunsOverBudget|TestFlightCacheBudgetStress|TestFlightCacheCancelDetach|TestFailedEntryAgesOut' ./internal/core/...
# Sweep workers thaw one shared machine snapshot concurrently: freezing a
# machine with a live fetch-run count, cloning it and thawing the snapshot
# must not write to their source, a frozen cache level that several
# sibling snapshots share is thawed by several workers at once, and
# machines built at once from one code layout get its one fetch table.
go test -race -run 'TestFrontEndRunBatchingEquivalence|TestSnapshotsShareEqualLevels|TestBlockWalkMatchesRowLoads|TestMachinesShareFetchTables' ./internal/uarch
# A frozen cache level is a varint stream of tags that the set index
# completes: the cache, frozen and thawed mid-stream, against its stamp-LRU
# oracle on arbitrary geometries and addresses.
go test -run '^$' -fuzz FuzzCacheMatchesReference -fuzztime 20s ./internal/uarch/cache
# The job API's decoder on arbitrary bodies: an admission status, never a
# panic, and every 202 names a job that GET /jobs/{id} finds.
go test -run '^$' -fuzz 'FuzzSubmitRequest$' -fuzztime 20s ./internal/serve
# The worker protocol's decoders on arbitrary bodies: 200, 204 or 400,
# never a panic, and a fleet with no job settles and reassigns nothing.
go test -run '^$' -fuzz 'FuzzFleetMessages$' -fuzztime 20s ./internal/serve
# The fused kernels on both sides of the trace.Sink against the paths they
# replaced: the one-pass block walk against per-row Load/Store (line above)
# and the sub-pel cost against scalar interpolation + the staged metric.
go test -race -run 'TestFusedSubpelMatchesStaged|TestInterpLumaMatchesScalar' ./internal/codec
# The race detector slows the simulator ~10x: internal/core takes ~200 s
# under -race on 2 cores, too close to the default 10m per-package timeout
# on a 1-CPU machine.
go test -race -timeout 1200s ./internal/core/... ./internal/trace/...
