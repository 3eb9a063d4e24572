package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/uarch"
)

// fleetTransport is the networked counterpart of the loopback: the
// orchestrator half of the pull-based worker protocol (wire.go). Workers
// are upserted on every message (registration IS the heartbeat), idle
// workers park a long poll, and each delivered job is wrapped in a lease
// that lives exactly as long as its worker. The registry is the live
// fleet: a worker silent for longer than the TTL — crashed, hung, or cut
// off — is forgotten by the monitor, which supersedes its lease (the job
// requeues at its original rank) and answers its parked poll 204; its next
// message registers it afresh. A lease is held by its worker and found
// only through it, so a result settles a job only when its poster holds
// the lease it names: one that is gone, or another worker's, is refused,
// and the job's live attempt is its one path to settlement, however the
// messages are ordered.

// FleetOptions tunes the worker-fleet transport.
type FleetOptions struct {
	// LeaseTTL is how long a worker may stay silent before it is forgotten
	// and the job it leases is requeued (0: 3s, three of a default worker's
	// 1s heartbeats). A job may run for any length of time: every
	// message from its worker keeps the lease alive.
	LeaseTTL time.Duration
	// PollWait bounds how long an idle worker's poll parks server-side
	// before returning 204 (0: 10s).
	PollWait time.Duration
}

// lease tracks one delivered job while it is live: from assignment until
// its result settles the job or its worker loses it, when its worker lets
// go of it and its finish is called once.
type lease struct {
	id string
	// spec is the leasing worker's capability at assignment time; it prices
	// the job when this lease's result settles it.
	spec   backend.ServerSpec
	finish func(outcome)
}

type fleetWorker struct {
	id   string
	spec backend.ServerSpec // full economic capability from the last message
	last time.Time          // last message of any kind
	util float64
	jobs int64 // as the worker's last heartbeat counted them
	// park is non-nil while an idle long-poll waits: delivery sends one
	// Assignment, withdrawal/supersession closes the channel. All
	// transitions happen under fleetTransport.mu, so a channel no longer
	// registered here is guaranteed to resolve without blocking.
	park  chan Assignment
	lease *lease // the live lease this worker holds; no other copy exists
}

// idle reports whether the worker can take a job now: unleased, and with a
// poll parked to deliver into. Caller holds fleetTransport.mu.
func (w *fleetWorker) idle() bool {
	return w.lease == nil && w.park != nil
}

type fleetMetrics struct {
	workersG   *obs.Gauge
	busyG      *obs.Gauge // workers holding a lease
	reassigned *obs.Counter
	hbMiss     *obs.Counter
	late       *obs.Counter // results naming a lease that is not live
}

type fleetTransport struct {
	s    *Server
	ttl  time.Duration // a worker silent for longer is forgotten
	wait time.Duration
	met  fleetMetrics

	mu      sync.Mutex
	workers map[string]*fleetWorker
	seq     uint64
	closed  bool

	stopc       chan struct{}
	monitorDone chan struct{}
}

func newFleetTransport(s *Server, opts FleetOptions, reg *obs.Registry) *fleetTransport {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 3 * time.Second
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 10 * time.Second
	}
	f := &fleetTransport{
		s:           s,
		ttl:         opts.LeaseTTL,
		wait:        opts.PollWait,
		workers:     make(map[string]*fleetWorker),
		stopc:       make(chan struct{}),
		monitorDone: make(chan struct{}),
		met: fleetMetrics{
			workersG:   reg.Gauge("fleet_workers"),
			busyG:      reg.Gauge("fleet_worker_busy"),
			reassigned: reg.Counter("fleet_lease_reassigned"),
			hbMiss:     reg.Counter("fleet_heartbeat_miss"),
			late:       reg.Counter("fleet_results_late"),
		},
	}
	reg.Gauge("fleet_lease_ttl_ms").Set(f.ttl.Milliseconds())
	return f
}

// --- transport interface --------------------------------------------------------

func (f *fleetTransport) open(ctx context.Context) {
	go f.monitor(ctx)
}

// specs lists the capability of every registered worker.
func (f *fleetTransport) specs() []backend.ServerSpec {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]backend.ServerSpec, 0, len(f.workers))
	for _, w := range f.workers {
		out = append(out, w.spec)
	}
	return out
}

// freeSlots lists idle parked workers in id order (deterministic so the
// seeded-random cold path is reproducible for a fixed fleet).
func (f *fleetTransport) freeSlots() []slot {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]string, 0, len(f.workers))
	for id, w := range f.workers {
		if w.idle() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]slot, len(ids))
	for i, id := range ids {
		w := f.workers[id]
		out[i] = slot{id: id, label: id, spec: w.spec, util: w.util}
	}
	return out
}

// start leases the job to the chosen parked worker and delivers the
// assignment into its waiting poll. An error means the worker is no longer
// deliverable (crashed, poll lapsed, already leased) and the caller
// requeues — finish is not called.
func (f *fleetTransport) start(_ context.Context, sl slot, tk *queue.Ticket[*record], finish func(outcome)) error {
	rec := tk.Payload()
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.workers[sl.id]
	if w == nil || !w.idle() {
		return fmt.Errorf("serve: worker %q is not free", sl.id)
	}
	f.seq++
	l := &lease{
		id:     "lease-" + strconv.FormatUint(f.seq, 10),
		spec:   w.spec,
		finish: finish,
	}
	w.lease = l
	f.met.busyG.Add(1)
	ch := w.park
	w.park = nil
	// Buffered channel, sole sender, park consumed under the lock: the send
	// can never block.
	ch <- Assignment{
		LeaseID: l.id, JobID: rec.id,
		Video: rec.task.Video, CRF: rec.task.CRF, Refs: rec.task.Refs,
		Preset: string(rec.task.Preset),
		Frames: f.s.cfg.Proto.Frames, Scale: f.s.cfg.Proto.Scale, Seed: f.s.cfg.Proto.Seed,
		SegStart: rec.seg.Start, SegEnd: rec.seg.End,
		WantStream: rec.parent != nil,
		LeaseTTLMs: f.ttl.Milliseconds(),
	}
	return nil
}

func (f *fleetTransport) close() {
	f.mu.Lock()
	f.closed = true
	// Resolve every parked poll so worker processes fall out of their long
	// polls promptly instead of waiting out the window.
	for _, w := range f.workers {
		if w.park != nil {
			close(w.park)
			w.park = nil
		}
	}
	f.mu.Unlock()
	close(f.stopc)
	<-f.monitorDone
}

// --- lease monitor --------------------------------------------------------------

// monitor periodically forgets silent workers, requeueing the jobs they
// lease. It exits on close() or ctx cancellation.
func (f *fleetTransport) monitor(ctx context.Context) {
	defer close(f.monitorDone)
	tick := f.ttl / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-f.stopc:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			f.sweep(time.Now())
		}
	}
}

// sweep is one monitor pass: forget workers silent for longer than the
// TTL, superseding the lease each holds (its job requeues) and answering
// its parked poll 204.
func (f *fleetTransport) sweep(now time.Time) {
	var orphaned []*lease
	f.mu.Lock()
	for id, w := range f.workers {
		if now.Sub(w.last) <= f.ttl {
			continue
		}
		delete(f.workers, id)
		f.met.hbMiss.Inc()
		if l := f.supersedeLocked(w); l != nil {
			orphaned = append(orphaned, l)
		}
		if w.park != nil {
			close(w.park)
			w.park = nil
		}
	}
	f.met.workersG.Set(int64(len(f.workers)))
	f.mu.Unlock()
	// Requeue outside the lock: finish re-enters the dispatcher (queue,
	// record and flow locks).
	for _, l := range orphaned {
		l.finish(outcome{requeue: true})
	}
}

// supersedeLocked takes w's lease, if it holds one, away from it. The caller
// requeues the returned lease's job by calling its finish once f.mu is
// released.
func (f *fleetTransport) supersedeLocked(w *fleetWorker) *lease {
	l := w.lease
	if l != nil {
		f.releaseLocked(w)
		f.met.reassigned.Inc()
	}
	return l
}

// releaseLocked ends w's lease: w no longer holds it, so any later message
// naming it finds it not live, and w is free again.
func (f *fleetTransport) releaseLocked(w *fleetWorker) {
	w.lease = nil
	f.met.busyG.Add(-1)
}

// upsertLocked registers-or-refreshes a worker; every protocol message
// funnels through here, which is what makes re-registration idempotent and
// crash-rejoin under the same id (or a forgotten worker's return)
// seamless.
func (f *fleetTransport) upsertLocked(id string, spec backend.ServerSpec, now time.Time) *fleetWorker {
	w := f.workers[id]
	if w == nil {
		w = &fleetWorker{id: id}
		f.workers[id] = w
		f.met.workersG.Set(int64(len(f.workers)))
	}
	w.spec = spec
	w.last = now
	return w
}

// --- HTTP handlers --------------------------------------------------------------

// parseWorker validates the capability every protocol message carries and
// resolves it to a full server spec; false means the error response was
// written. Software workers must name a known uarch config; accelerator
// workers carry no config (the ASIC's host core is not modeled).
func parseWorker(w http.ResponseWriter, c Capability) (backend.ServerSpec, bool) {
	if c.WorkerID == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing worker_id"})
		return backend.ServerSpec{}, false
	}
	kind, err := backend.ParseKind(c.Backend)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return backend.ServerSpec{}, false
	}
	spec := backend.ServerSpec{Backend: kind, PriceCentsHour: c.PriceCentsHour, Spot: c.Spot}
	if kind == backend.Software {
		cfg, ok := uarch.ByName(c.Config)
		if !ok {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unknown configuration %q", c.Config)})
			return backend.ServerSpec{}, false
		}
		spec.Config = cfg
	}
	return spec.FillDefaults(), true
}

func (f *fleetTransport) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if !decodeJSON(w, r, &hb) {
		return
	}
	spec, ok := parseWorker(w, hb.Capability)
	if !ok {
		return
	}
	now := time.Now()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "shutting down", Reason: "closed"})
		return
	}
	fw := f.upsertLocked(hb.WorkerID, spec, now)
	fw.util = hb.UtilizationPct
	fw.jobs = hb.JobsDone
	leaseValid := true
	if hb.LeaseID != "" {
		leaseValid = fw.lease != nil && fw.lease.id == hb.LeaseID
	}
	f.mu.Unlock()
	writeJSON(w, http.StatusOK, HeartbeatReply{LeaseValid: leaseValid})
}

func (f *fleetTransport) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	spec, ok := parseWorker(w, req.Capability)
	if !ok {
		return
	}
	now := time.Now()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "shutting down", Reason: "closed"})
		return
	}
	fw := f.upsertLocked(req.WorkerID, spec, now)
	// A lease holder that polls says it is idle (it crashed and restarted,
	// or abandoned the job): release the orphan now; the worker is alive,
	// so the monitor would never reclaim it.
	disclaimed := f.supersedeLocked(fw)
	if fw.park != nil {
		// A previous poll for this id is still parked (duplicate poller or
		// a client that gave up unnoticed): supersede it.
		close(fw.park)
	}
	ch := make(chan Assignment, 1)
	fw.park = ch
	f.mu.Unlock()
	if disclaimed != nil {
		disclaimed.finish(outcome{requeue: true})
	}
	f.s.wake() // a slot became free

	timer := time.NewTimer(f.wait)
	defer timer.Stop()
	select {
	case a, okc := <-ch:
		if okc {
			writeJSON(w, http.StatusOK, a)
		} else {
			w.WriteHeader(http.StatusNoContent)
		}
	case <-timer.C:
		f.resolvePoll(fw, ch, w)
	case <-r.Context().Done():
		f.resolvePoll(fw, ch, w)
	}
}

// resolvePoll ends a poll that stopped waiting (window lapsed or client
// went away): if an assignment raced in it is still delivered — if the
// client is truly gone, its silence supersedes the lease — otherwise the
// park is withdrawn and the poll returns empty.
func (f *fleetTransport) resolvePoll(fw *fleetWorker, ch chan Assignment, w http.ResponseWriter) {
	f.mu.Lock()
	if fw.park == ch {
		fw.park = nil
		f.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	f.mu.Unlock()
	// No longer registered: a send or close is already committed, so this
	// never blocks.
	if a, ok := <-ch; ok {
		writeJSON(w, http.StatusOK, a)
	} else {
		w.WriteHeader(http.StatusNoContent)
	}
}

func (f *fleetTransport) handleResult(w http.ResponseWriter, r *http.Request) {
	var res ResultReport
	// Results get a larger body budget than control messages: they may carry
	// an encoded bitstream (base64) for stitchable segment parts.
	if !decodeJSONLimit(w, r, &res, maxResultBody) {
		return
	}
	if res.WorkerID == "" || res.LeaseID == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing worker_id or lease_id"})
		return
	}
	f.mu.Lock()
	fw := f.workers[res.WorkerID]
	if fw == nil || fw.lease == nil || fw.lease.id != res.LeaseID {
		// Settled already, superseded and its job requeued, or held by
		// another worker: the live attempt, not this one, settles the job.
		f.mu.Unlock()
		f.met.late.Inc()
		writeJSON(w, http.StatusOK, ResultReply{Accepted: false, Reason: "unknown_lease"})
		return
	}
	l := fw.lease
	f.releaseLocked(fw)
	f.mu.Unlock()
	l.finish(f.outcomeOf(l, res))
	writeJSON(w, http.StatusOK, ResultReply{Accepted: true})
}

// outcomeOf converts a wire result into the dispatcher's outcome.
func (f *fleetTransport) outcomeOf(l *lease, res ResultReport) outcome {
	out := outcome{
		seconds: res.Seconds,
		config:  l.spec.Label(),
		spec:    l.spec,
		report:  topdownReport(l.spec.Label(), res.Seconds, res.Topdown),
		stream:  res.Stream,
	}
	if res.Error != "" {
		out.err = errors.New(res.Error)
	}
	return out
}

// workerViews snapshots the fleet for /healthz.
func (f *fleetTransport) workerViews() []WorkerView {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]string, 0, len(f.workers))
	for id := range f.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]WorkerView, len(ids))
	for i, id := range ids {
		w := f.workers[id]
		v := WorkerView{
			ID: id, Config: w.spec.Config.Name, Busy: w.lease != nil,
			Backend: string(w.spec.Backend), PriceCentsHour: w.spec.PriceCentsHour,
			Spot:   w.spec.Spot,
			Parked: w.park != nil, JobsDone: w.jobs,
			UtilizationPct: w.util, LastBeatMs: now.Sub(w.last).Milliseconds(),
		}
		if w.lease != nil {
			v.Lease = w.lease.id
		}
		out[i] = v
	}
	return out
}
