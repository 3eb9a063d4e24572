// Package worker is the execution half of the distributed serving layer:
// a pull-based transcoding worker that registers with an orchestrator
// (internal/serve in fleet mode) over HTTP, heartbeats with live load
// telemetry, long-polls for leased jobs when idle, runs them through
// serve.Execute (the path the in-process loopback runs too), and streams
// results back. Registration is
// idempotent — every heartbeat and poll upserts the worker — so a worker
// that crashes can simply restart under the same id and rejoin; any job it
// was holding is released by the orchestrator's lease machinery (instantly
// on the first rejoin poll, or one lease TTL after it fell silent if it
// never comes back).
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/uarch"
)

// Options configures one worker process.
type Options struct {
	// Orchestrator is the base URL of the orchestrator ("http://host:port").
	Orchestrator string
	// ID names this worker; rejoining under the same id after a crash
	// reclaims its identity. Required.
	ID string
	// Config is the uarch configuration this worker simulates — its
	// capability metadata for placement. Zero means baseline. Ignored when
	// Backend is accel (the ASIC's host core is not modeled).
	Config uarch.Config
	// Backend is the encoder class this worker executes with: software
	// (default) runs the codec through the uarch simulation; accel models a
	// fixed-function encoder — restricted option surface, closed-form wall
	// clock, no profile.
	Backend backend.Kind
	// PriceCentsHour is the advertised rental price (0: class default,
	// spot-discounted when Spot is set).
	PriceCentsHour float64
	// Spot marks this worker as preemptible capacity.
	Spot bool
	// Heartbeat is the liveness/telemetry period (0: 1s). Must be well
	// inside the orchestrator's lease TTL (default 3s, three of these
	// beats) or the worker is forgotten and its running job requeued.
	Heartbeat time.Duration
	// MinJobTime pads every job to at least this duration (0: none) — a
	// fault-injection knob so tests and the smoke script can hold a job
	// in-flight long enough to kill the worker mid-job.
	MinJobTime time.Duration
	// Metrics selects the registry; nil means obs.Default().
	Metrics *obs.Registry
}

type workerMetrics struct {
	jobsDone    *obs.Counter
	busyNs      *obs.Counter
	heartbeats  *obs.Counter
	leaseAborts *obs.Counter
	busyG       *obs.Gauge
}

// Worker is one fleet member; create with New, drive with Run.
type Worker struct {
	opts       Options
	spec       backend.ServerSpec // resolved economic capability
	capability serve.Capability   // spec on the wire, sent with every beat and poll
	base       string
	client     *http.Client
	met        workerMetrics

	mu       sync.Mutex
	leaseID  string             // lease of the in-flight job, "" when idle
	abort    context.CancelFunc // cancels the in-flight job
	jobsDone int64              // results the orchestrator accepted
	busyNs   int64
	started  time.Time
}

// New validates options and builds a stopped worker.
func New(opts Options) (*Worker, error) {
	if opts.Orchestrator == "" {
		return nil, errors.New("worker: missing orchestrator URL")
	}
	if opts.ID == "" {
		return nil, errors.New("worker: missing id")
	}
	if opts.Config.Name == "" {
		opts.Config = uarch.Baseline()
	}
	if _, err := backend.ParseKind(string(opts.Backend)); err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	if opts.Backend == "" {
		opts.Backend = backend.Software
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = time.Second
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	spec := backend.ServerSpec{
		Backend: opts.Backend, Config: opts.Config,
		PriceCentsHour: opts.PriceCentsHour, Spot: opts.Spot,
	}.FillDefaults()
	return &Worker{
		opts: opts,
		spec: spec,
		capability: serve.Capability{
			WorkerID: opts.ID, Config: opts.Config.Name, Backend: string(spec.Backend),
			PriceCentsHour: spec.PriceCentsHour, Spot: spec.Spot,
		},
		base: opts.Orchestrator,
		// No global timeout: polls park server-side.
		client: &http.Client{},
		met: workerMetrics{
			jobsDone:    reg.Counter("worker_jobs_done"),
			busyNs:      reg.Counter("worker_busy_ns"),
			heartbeats:  reg.Counter("worker_heartbeats"),
			leaseAborts: reg.Counter("worker_lease_aborts"),
			busyG:       reg.Gauge("worker_busy"),
		},
	}, nil
}

// Run is the worker main loop: heartbeat in the background, poll-execute-
// report in the foreground, until ctx cancels. An unreachable orchestrator
// is retried at the heartbeat period — the worker outlives orchestrator
// restarts the same way the orchestrator outlives worker restarts.
func (w *Worker) Run(ctx context.Context) error {
	w.mu.Lock()
	w.started = time.Now()
	w.mu.Unlock()
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(hbCtx)
	}()
	defer func() {
		stopHB()
		<-hbDone
	}()
	// Announce immediately so the orchestrator sees the worker before the
	// first poll parks.
	w.beat(ctx)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The poll parks server-side until a job is leased to this worker
		// (200), or the window lapses or the orchestrator forgets a worker
		// it found silent (204: park again, which also re-registers).
		var a serve.Assignment
		ok, err := w.post(ctx, "/fleet/poll", serve.PollRequest{Capability: w.capability}, &a)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !sleep(ctx, w.opts.Heartbeat) {
				return ctx.Err()
			}
			continue
		}
		if ok {
			w.execute(ctx, a)
		}
	}
}

// execute runs one leased job and reports the result. The job is skipped
// silently when its context dies first — a lease abort means the
// orchestrator already requeued the job, and a process shutdown means the
// result could not be delivered anyway.
func (w *Worker) execute(ctx context.Context, a serve.Assignment) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.leaseID = a.LeaseID
	w.abort = cancel
	w.mu.Unlock()
	w.met.busyG.Set(1)
	started := time.Now()

	rep := serve.ResultReport{WorkerID: w.opts.ID, LeaseID: a.LeaseID, JobID: a.JobID}
	task := sched.Task{Video: a.Video, CRF: a.CRF, Refs: a.Refs, Preset: codec.Preset(a.Preset)}
	if opts, err := task.Options(); err != nil {
		rep.Error = err.Error()
	} else {
		seconds, res, err := serve.Execute(jctx, w.spec, core.Job{
			Workload: core.Workload{Video: a.Video, Frames: a.Frames, Scale: a.Scale, Seed: a.Seed},
			Options:  opts,
			Segment:  codec.Segment{Start: a.SegStart, End: a.SegEnd},
		})
		if err != nil {
			rep.Error = err.Error()
		} else {
			rep.Seconds = seconds
			if a.WantStream {
				rep.Stream = res.Stream
			}
			if res.Report != nil {
				rep.Topdown = &res.Report.Topdown
			}
		}
		if pad := w.opts.MinJobTime - time.Since(started); pad > 0 {
			sleep(jctx, pad)
		}
	}

	w.met.busyG.Set(0)
	w.met.busyNs.Add(time.Since(started).Nanoseconds())
	w.mu.Lock()
	w.leaseID = ""
	w.abort = nil
	w.busyNs += time.Since(started).Nanoseconds()
	w.mu.Unlock()

	if jctx.Err() != nil {
		return // aborted (lease reassigned) or shutting down: nothing to report
	}
	if w.report(ctx, rep) {
		w.met.jobsDone.Inc()
		w.mu.Lock()
		w.jobsDone++
		w.mu.Unlock()
	}
}

// report posts a result with bounded retries and returns whether the
// orchestrator accepted it. Any reply is final. A result naming a lease
// that is no longer live is refused: the lease was superseded and its job
// requeued, or an earlier post of this result settled it and that reply
// was lost. Either way the worker does not count it.
func (w *Worker) report(ctx context.Context, rep serve.ResultReport) bool {
	for attempt := 0; attempt < 5; attempt++ {
		var reply serve.ResultReply
		if _, err := w.post(ctx, "/fleet/result", rep, &reply); err == nil {
			return reply.Accepted
		}
		if !sleep(ctx, w.opts.Heartbeat) {
			return false
		}
	}
	return false
}

// heartbeatLoop is the background liveness/telemetry loop.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(w.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		w.beat(ctx)
	}
}

// beat sends one heartbeat; a reply invalidating our lease aborts the
// in-flight job (the orchestrator already requeued it — finishing would
// only waste the simulated cycles).
func (w *Worker) beat(ctx context.Context) {
	w.mu.Lock()
	lease := w.leaseID
	hb := serve.Heartbeat{
		Capability: w.capability, LeaseID: lease,
		UtilizationPct: w.utilLocked(time.Now()), JobsDone: w.jobsDone,
	}
	w.mu.Unlock()
	var reply serve.HeartbeatReply
	if _, err := w.post(ctx, "/fleet/heartbeat", hb, &reply); err != nil {
		return
	}
	w.met.heartbeats.Inc()
	if lease != "" && !reply.LeaseValid {
		w.mu.Lock()
		if w.leaseID == lease && w.abort != nil {
			w.abort()
			w.met.leaseAborts.Inc()
		}
		w.mu.Unlock()
	}
}

// utilLocked is lifetime utilization: busy time over wall time, percent.
func (w *Worker) utilLocked(now time.Time) float64 {
	if w.started.IsZero() {
		return 0
	}
	wall := now.Sub(w.started)
	if wall <= 0 {
		return 0
	}
	busy := time.Duration(w.busyNs)
	if w.leaseID != "" {
		// An in-flight job counts as busy even before it lands in busyNs.
		busy += w.opts.Heartbeat
	}
	pct := 100 * float64(busy) / float64(wall)
	if pct > 100 {
		pct = 100
	}
	return pct
}

// post is the worker's one request path: it POSTs body as JSON and decodes
// a 200 reply into reply. A 204 (only a poll gets one: no assignment this
// window) reports ok false with no error.
func (w *Worker) post(ctx context.Context, path string, body, reply any) (ok bool, err error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(raw))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, json.NewDecoder(resp.Body).Decode(reply)
	case http.StatusNoContent:
		return false, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return false, fmt.Errorf("worker: %s: %s: %s", path, resp.Status, msg)
}

// sleep is a ctx-aware pause; false means ctx won.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
