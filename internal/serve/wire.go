package serve

import "repro/internal/perf"

// Wire types of the orchestrator <-> worker protocol (DESIGN.md §11),
// shared with internal/worker. All ride as JSON over the orchestrator's
// HTTP mux, modeled on the pull-based heartbeat/job-request design of
// production transcode workers: heartbeats carry capability + utilization,
// workers request work only when idle.
//
//	POST /fleet/heartbeat  Heartbeat    -> HeartbeatReply
//	POST /fleet/poll       PollRequest  -> 200 Assignment | 204 no work
//	POST /fleet/result     ResultReport -> ResultReply

// Capability is who a worker is and what it can run, carried by every
// heartbeat and poll. Embedded, its fields sit at the top level of either
// message's JSON.
type Capability struct {
	WorkerID string `json:"worker_id"`
	// Config is the worker's uarch configuration name — its capability
	// metadata, driving characterization-based placement. Ignored (and may
	// be empty) when Backend is "accel".
	Config string `json:"config"`
	// Backend is the worker's encoder class ("software" default, or
	// "accel" for a fixed-function accelerator); with PriceCentsHour and
	// Spot it forms the worker's economic capability, feeding cost-aware
	// placement. Zero price resolves to the class default server-side.
	Backend        string  `json:"backend,omitempty"`
	PriceCentsHour float64 `json:"price_cents_hour,omitempty"`
	Spot           bool    `json:"spot,omitempty"`
}

// Heartbeat is the worker's periodic liveness + telemetry message. Every
// heartbeat doubles as (re-)registration — a worker that crashed and
// restarted under the same id, or one the orchestrator forgot after a
// silence, is simply upserted, so rejoining needs no dedicated handshake.
type Heartbeat struct {
	Capability
	// LeaseID names the lease the worker believes it holds ("" when idle);
	// the reply says whether it still does. The lease itself lives as long
	// as the worker keeps sending messages.
	LeaseID        string  `json:"lease_id,omitempty"`
	UtilizationPct float64 `json:"utilization_pct"`
	JobsDone       int64   `json:"jobs_done"`
}

// HeartbeatReply answers a heartbeat (a 200 is the acknowledgement).
// LeaseValid echoes whether the reported lease is still the worker's own:
// false means it was superseded and the job reassigned, so the worker
// should abandon the job (a late result would be reconciled server-side,
// but the cycles are wasted).
type HeartbeatReply struct {
	LeaseValid bool `json:"lease_valid"`
}

// PollRequest asks for one job; the request parks server-side (long poll)
// until work is assigned, the poll window lapses, or the worker falls
// silent past the TTL and is forgotten (the last two answer 204). Polling also upserts
// the worker, and — because a worker only polls when idle — implicitly
// disclaims any lease the orchestrator still holds for it, releasing the
// orphaned job back to the queue immediately (the worker is alive, so its
// silence never would). It carries the heartbeat's Capability, so a
// poll-first worker is registered with its full spec.
type PollRequest struct {
	Capability
}

// Assignment is one leased job: the task parameters plus the workload
// prototype the orchestrator applies to every job, so workers need no
// local configuration beyond their uarch config.
type Assignment struct {
	LeaseID string `json:"lease_id"`
	JobID   string `json:"job_id"`
	Video   string `json:"video"`
	CRF     int    `json:"crf"`
	Refs    int    `json:"refs"`
	Preset  string `json:"preset"`
	Frames  int    `json:"frames,omitempty"`
	Scale   int    `json:"scale,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// SegStart/SegEnd bound the frame range this job encodes ([start, end);
	// both zero: the whole clip) — one segment of a segment-parallel
	// fan-out. The decode half still covers the whole mezzanine, so segment
	// jobs share the worker's decode and analysis caches with their
	// siblings.
	SegStart int `json:"seg_start,omitempty"`
	SegEnd   int `json:"seg_end,omitempty"`
	// Rung names the ABR-ladder rendition this job belongs to (logs and
	// worker-side observability; placement does not read it).
	Rung string `json:"rung,omitempty"`
	// WantStream asks the worker to return the encoded bitstream in its
	// ResultReport (segment parts of a stitchable rendition).
	WantStream bool `json:"want_stream,omitempty"`
	// LeaseTTLMs is how long the worker may stay silent before it is
	// forgotten and this lease superseded; the worker must heartbeat
	// well inside this window. The TTL is fixed for the orchestrator's
	// lifetime (-lease-ttl, default 3s).
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
}

// ResultReport streams one finished job back.
type ResultReport struct {
	WorkerID string  `json:"worker_id"`
	LeaseID  string  `json:"lease_id"`
	JobID    string  `json:"job_id"`
	Seconds  float64 `json:"seconds"`
	Error    string  `json:"error,omitempty"`
	// Topdown carries the measured profile so jobs run on
	// baseline-configured workers feed the orchestrator's cost model
	// exactly like loopback executions do. Accelerator workers produce no
	// profile (their encode bypasses the uarch simulation).
	Topdown *perf.Topdown `json:"topdown,omitempty"`
	// Stream is the encoded bitstream, present only when the assignment
	// set WantStream (base64 on the wire via encoding/json).
	Stream []byte `json:"stream,omitempty"`
}

// ResultReply tells the worker whether its result settled the job.
// Accepted is true for the settling result AND for safe duplicates
// (retries, superseded-but-reconciled) — any reply that means "stop
// retrying"; Reason says which.
type ResultReply struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// WorkerView is the per-worker slice of GET /healthz in fleet mode, one per
// registered worker. It is the one place per-worker facts are reported:
// /metrics carries only fleet totals.
type WorkerView struct {
	ID             string  `json:"id"`
	Config         string  `json:"config"`
	Backend        string  `json:"backend,omitempty"`
	PriceCentsHour float64 `json:"price_cents_hour,omitempty"`
	Spot           bool    `json:"spot,omitempty"`
	Busy           bool    `json:"busy"`
	Parked         bool    `json:"parked"` // an idle long-poll is waiting for work
	JobsDone       int64   `json:"jobs_done"`
	UtilizationPct float64 `json:"utilization_pct"`
	LastBeatMs     int64   `json:"last_heartbeat_ms"` // age of the last message
	Lease          string  `json:"lease,omitempty"`
}

// topdownReport rebuilds the minimal perf.Report the affinity cost model
// needs from a wire Topdown (sched.Affinity only reads the topdown split).
func topdownReport(config string, seconds float64, td *perf.Topdown) *perf.Report {
	if td == nil {
		return nil
	}
	return &perf.Report{Config: config, Seconds: seconds, Topdown: *td}
}
