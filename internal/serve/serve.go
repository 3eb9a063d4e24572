// Package serve is the online serving layer: an HTTP transcoding-job API
// in front of a characterization-driven live dispatcher over a
// heterogeneous simulated fleet.
//
// The paper's §III-D2 scheduler study is offline — every task is known
// upfront and placed in one Hungarian solve (internal/sched). This package
// is the same placement policy moved to the deployment shape real
// transcoding services have (Li et al.): jobs *arrive* on a bounded
// admission queue (internal/queue) and a dispatcher assigns each batch of
// waiting jobs to free servers of a sched.Pool using the characterization
// cost model, falling back to seeded-random placement while the cost cache
// is cold. Execution runs on the shared exec layer through core.Run, so
// repeated videos hit the decode/analysis caches exactly like sweep
// points do.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/vbench"
)

// Policy selects the dispatcher's placement rule.
type Policy string

const (
	// PolicySmart places by characterization affinity (the online variant
	// of the paper's smart scheduler), falling back to seeded-random
	// placement for videos whose baseline profile is not cached yet.
	PolicySmart Policy = "smart"
	// PolicyRandom places every job uniformly at random over the free
	// servers — the paper's random scheduler, used as the control.
	PolicyRandom Policy = "random"
)

// ParsePolicy validates a -policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicySmart, PolicyRandom:
		return Policy(s), nil
	}
	return "", fmt.Errorf("serve: unknown policy %q (want smart or random)", s)
}

// Config assembles a serving instance.
type Config struct {
	// Pool is the software fleet; one entry per server. Required for the
	// in-process loopback transport unless Servers is given; ignored in
	// fleet mode, where capability comes from worker registrations.
	Pool sched.Pool
	// Servers is the full heterogeneous fleet — backend kind, uarch
	// config, hourly price and spot flag per server. When empty it is
	// derived from Pool at default on-demand prices; when set it overrides
	// Pool. Like Pool it drives only the loopback transport.
	Servers sched.Fleet
	// Objective selects what placement minimizes: fleet-seconds (the
	// default) or dollars under per-job deadlines and quality
	// floors (sched.ObjectiveCost).
	Objective sched.Objective
	// Policy selects smart (default) or random placement.
	Policy Policy
	// QueueDepth bounds the admission queue (0: 256, the queue default).
	QueueDepth int
	// Workers bounds concurrent loopback executions; 0 means len(Pool)
	// (every server can run one job at a time, so more workers never help).
	Workers int
	// Proto supplies the Workload fields other than Video (Frames, Scale,
	// Seed) applied to every submitted job, mirroring sched.Measure.
	Proto core.Workload
	// Seed drives the deterministic random placement (random policy and
	// cold-cache fallback).
	Seed uint64
	// Metrics selects the registry; nil means obs.Default().
	Metrics *obs.Registry
	// Fleet switches execution from the in-process loopback to the
	// networked pull-based worker fleet (fleet.go): jobs are leased to
	// worker processes (cmd/worker) that register, heartbeat and poll over
	// the same HTTP listener. Nil keeps the loopback.
	Fleet *FleetOptions
}

// ErrDeadlineInfeasible is the typed admission rejection for a job whose
// DeadlineSeconds no live server class can predictably meet — the client
// learns at submit time (HTTP 422) instead of discovering a silently late
// job. Cold software classes are optimistic (no prediction yet), so the
// rejection only fires when every feasible class is predictably too slow.
var ErrDeadlineInfeasible = errors.New("serve: no server class can meet the requested deadline")

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// JobRequest is the POST /jobs body: the task parameters of the paper's
// studies plus the queueing class/priority/deadline of the serving layer.
// Segments and Ladder expand the request into a multi-part job graph: the
// submitted job becomes a parent record whose rung x segment sub-jobs flow
// through the queue as ordinary leased units, are placed independently,
// and settle back into the parent (which completes only when every part
// has).
type JobRequest struct {
	Video    string `json:"video"`
	CRF      int    `json:"crf,omitempty"`      // 0: 23
	Refs     int    `json:"refs,omitempty"`     // 0: 3
	Preset   string `json:"preset,omitempty"`   // "": medium
	Class    string `json:"class,omitempty"`    // fairness class
	Priority int    `json:"priority,omitempty"` // higher dequeues first
	// DeadlineMs is a relative deadline in milliseconds used for intra-class
	// ordering (0: none).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// DeadlineSeconds caps the simulated service seconds of each placed
	// unit (the whole encode, or each part of a segmented/ladder job).
	// Admission rejects the job with ErrDeadlineInfeasible when no live
	// server class can predictably meet it; placement masks
	// deadline-busting cells; a completed job that still ran over is
	// counted as a deadline miss. 0 means no deadline.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// QualityFloor is the worst acceptable effective CRF (0: none). The
	// accelerator backend carries a CRF-equivalent quality penalty; a
	// server whose penalty would push the job past the floor is infeasible
	// for it.
	QualityFloor int `json:"quality_floor,omitempty"`
	// Segments splits the encode into that many independently placed
	// segment sub-jobs (0 or 1: whole-clip). The split follows
	// core.SegmentsFor, so the per-part outputs stitch byte-identically to
	// a serial segmented encode.
	Segments int `json:"segments,omitempty"`
	// Ladder expands the request into one rendition per rung (an ABR
	// ladder); rungs multiply with Segments. Every rung of the same segment
	// reuses one shared codec.Analysis artifact through the core caches.
	Ladder []Rung `json:"ladder,omitempty"`
}

// Rung is one rendition of an ABR ladder request. Zero fields inherit the
// request's top-level value (and then the usual defaults).
type Rung struct {
	Name   string `json:"name,omitempty"`
	CRF    int    `json:"crf,omitempty"`
	Refs   int    `json:"refs,omitempty"`
	Preset string `json:"preset,omitempty"`
}

// Fan-out caps: a single POST /jobs may expand into at most
// maxLadderRungs x maxSegments queued parts.
const (
	maxLadderRungs = 8
	maxSegments    = 64
)

// JobView is the externally visible state of one job (GET /jobs/{id}).
type JobView struct {
	ID         string    `json:"id"`
	State      JobState  `json:"state"`
	Class      string    `json:"class,omitempty"`
	Video      string    `json:"video"`
	CRF        int       `json:"crf"`
	Refs       int       `json:"refs"`
	Preset     string    `json:"preset"`
	Priority   int       `json:"priority,omitempty"`
	Server     string    `json:"server,omitempty"` // config name (loopback) / worker id (fleet)
	Mode       string    `json:"mode,omitempty"`   // smart | random | cold
	Attempts   int       `json:"attempts,omitempty"`
	Submitted  time.Time `json:"submitted"`
	Started    time.Time `json:"started"`  // zero until dispatched
	Finished   time.Time `json:"finished"` // zero until terminal
	SimSeconds float64   `json:"simulated_seconds,omitempty"`
	// Backend is the encoder class that settled the job ("software" /
	// "accel"; empty for multi-part parents, whose parts may mix).
	Backend string `json:"backend,omitempty"`
	// CostCents is what the settling attempt cost (seconds × the executing
	// server's hourly price); parents sum their parts.
	CostCents       float64 `json:"cost_cents,omitempty"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// DeadlineMiss marks a completed job whose service seconds exceeded
	// its deadline (for parents: any part missed).
	DeadlineMiss bool   `json:"deadline_miss,omitempty"`
	Error        string `json:"error,omitempty"`
	// Part fields (sub-jobs of a multi-part submission only).
	Parent  string         `json:"parent,omitempty"`
	Rung    string         `json:"rung,omitempty"`
	Segment *codec.Segment `json:"segment,omitempty"`
	// Parent fields (multi-part submissions only). PartsDone counts parts
	// that completed successfully; Parts lists every part's job id.
	PartsTotal int      `json:"parts_total,omitempty"`
	PartsDone  int      `json:"parts_done,omitempty"`
	Parts      []string `json:"parts,omitempty"`
}

// Totals summarizes a server's lifetime outcomes. SimSeconds is the summed
// simulated service time of completed jobs — the completed-work measure the
// smart-vs-random comparison reports (same work, fewer fleet-seconds means
// more capacity headroom).
type Totals struct {
	Submitted  int64   `json:"submitted"`
	Completed  int64   `json:"completed"`
	Failed     int64   `json:"failed"`
	Canceled   int64   `json:"canceled"`
	Rejected   int64   `json:"rejected"`
	SimSeconds float64 `json:"simulated_seconds"`
	// CostCents is the summed dollar cost of completed jobs — the ground
	// truth the serve_cost_microcents counter approximates at integer
	// resolution. Every settled attempt is priced exactly once.
	CostCents float64 `json:"cost_cents"`
	// DeadlineMisses counts completed jobs that ran past their
	// DeadlineSeconds (parents count once if any part missed).
	DeadlineMisses int64 `json:"deadline_misses"`
}

// record is the server-side job state; mu guards the mutable fields.
type record struct {
	seq      uint64
	id       string
	task     sched.Task
	opts     codec.Options
	class    string
	priority int
	seg      codec.Segment // frame range of a segment part (zero: whole clip)
	rung     string        // ladder rendition name ("" outside ladders)

	// Economic metadata, immutable after submit. deadlineSeconds caps the
	// simulated service seconds of this unit; qualityFloor is the worst
	// acceptable effective CRF; pw/ph/pframes is the proxy geometry the
	// accelerator clock model sizes the unit with (pframes is the whole
	// clip — frames() applies the segment slice).
	deadlineSeconds float64
	qualityFloor    int
	pw, ph, pframes int
	wantStream      bool // keep the encoded bitstream for stitching

	// parent links a part to the record its outcome settles into; nil for
	// plain jobs and for parents themselves. ticket is the part's admission
	// ticket, kept so a sibling failure (or client cancellation) can
	// withdraw still-queued parts.
	parent *record
	ticket *queue.Ticket[*record]

	done chan struct{} // closed at any terminal state

	mu       sync.Mutex
	state    JobState
	server   string
	mode     string
	attempts int // dispatch attempts; >1 means lease reassignment happened
	enq      time.Time
	started  time.Time
	finished time.Time
	seconds  float64
	errMsg   string
	// Settlement economics (set once, by the settling attempt).
	costCents    float64
	backendName  string
	deadlineMiss bool
	stream       []byte // part bitstream retained for the rendition stitch

	// Parent-side aggregates (multi-part submissions only; guarded by mu).
	// The parent never enters the queue — it settles when its last part
	// does.
	parts         []*record
	partsLaunched int // parts past their first dispatch (fan-out tracking)
	partsTerm     int // parts in any terminal state
	partsDone     int // parts that completed successfully
	partsFailed   int
	partsCanceled int
	partsSeconds  float64   // summed simulated seconds of done parts
	partsCost     float64   // summed cost of settled parts
	partsMissed   int       // parts that completed past their deadline
	partErr       string    // first part failure, surfaced as the parent error
	firstDone     time.Time // first part completion (stitch-latency anchor)
}

// frames is the clip length this record encodes: the segment width for
// parts, the whole proxy clip otherwise.
func (r *record) frames() int {
	if !r.seg.IsZero() {
		return r.seg.End - r.seg.Start
	}
	return r.pframes
}

// view snapshots a record for the API.
func (r *record) view() JobView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := JobView{
		ID: r.id, State: r.state, Class: r.class,
		Video: r.task.Video, CRF: r.task.CRF, Refs: r.task.Refs,
		Preset: string(r.task.Preset), Priority: r.priority,
		Server: r.server, Mode: r.mode, Attempts: r.attempts,
		Submitted: r.enq, Started: r.started, Finished: r.finished,
		SimSeconds: r.seconds, Error: r.errMsg,
		Backend: r.backendName, CostCents: r.costCents,
		DeadlineSeconds: r.deadlineSeconds, DeadlineMiss: r.deadlineMiss,
		Rung: r.rung,
	}
	if r.parent != nil {
		v.Parent = r.parent.id
	}
	if !r.seg.IsZero() {
		seg := r.seg
		v.Segment = &seg
	}
	if len(r.parts) > 0 {
		v.PartsTotal = len(r.parts)
		v.PartsDone = r.partsDone
		v.Parts = make([]string, len(r.parts))
		for i, p := range r.parts {
			v.Parts[i] = p.id
		}
	}
	return v
}

// serveMetrics bundles the serving layer's obs instrumentation.
type serveMetrics struct {
	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
	rejected  *obs.Counter
	sojourn   *obs.Histogram
	dispatch  *obs.Histogram
	simMs     *obs.Counter
	requeues  *obs.Counter
	placed    func(mode string) *obs.Counter
	// Multi-part job graph: part admissions/completions, plus the two
	// graph-shape latencies — fanout is submission until every part has
	// been dispatched at least once, stitch is the reassembly tail from the
	// first part completion to the parent settling.
	partsSubmitted *obs.Counter
	partsCompleted *obs.Counter
	fanout         *obs.Histogram
	stitch         *obs.Histogram
	// Economic layer: cost in microcents (obs counters are integers and
	// per-job costs on the tiny CI proxies are ~1e-5 cents; Totals.CostCents
	// keeps the float ground truth), per-backend execution counts, and
	// completed-but-late jobs.
	costMicro    *obs.Counter
	deadlineMiss *obs.Counter
	backendJobs  func(label string) *obs.Counter
}

// Server is one serving instance: queue, dispatcher, transport and the
// job records behind the HTTP API.
type Server struct {
	cfg   Config
	accel backend.AccelModel // the fixed-function backend's clock/quality model
	q     *queue.Queue[*record]
	met   serveMetrics

	transport transport

	flowMu   sync.Mutex // drain accounting: dispatched-but-unfinished jobs
	flowCond *sync.Cond
	inflight int

	jobsMu sync.Mutex
	jobs   map[string]*record
	seq    uint64

	costMu sync.Mutex
	costs  map[string]*perf.Report // per-video baseline characterization

	totMu  sync.Mutex
	totals Totals

	runDone chan struct{}
	started bool
}

// New builds a stopped server; call Start to begin dispatching.
func New(cfg Config) (*Server, error) {
	if len(cfg.Pool) == 0 && len(cfg.Servers) == 0 && cfg.Fleet == nil {
		return nil, errors.New("serve: empty pool")
	}
	if cfg.Fleet == nil {
		// Loopback: resolve the economic fleet view. Servers overrides Pool;
		// a plain Pool is lifted to default on-demand prices.
		if len(cfg.Servers) == 0 {
			cfg.Servers = sched.FleetFromPool(cfg.Pool)
		} else {
			servers := make(sched.Fleet, len(cfg.Servers))
			for i, spec := range cfg.Servers {
				servers[i] = spec.FillDefaults()
			}
			cfg.Servers = servers
		}
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicySmart
	}
	if _, err := ParsePolicy(string(cfg.Policy)); err != nil {
		return nil, err
	}
	obj, err := sched.ParseObjective(string(cfg.Objective))
	if err != nil {
		return nil, err
	}
	cfg.Objective = obj
	if cfg.Fleet == nil && (cfg.Workers <= 0 || cfg.Workers > len(cfg.Servers)) {
		cfg.Workers = len(cfg.Servers)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	s := &Server{
		cfg:   cfg,
		accel: backend.DefaultAccel(),
		q: queue.New[*record](queue.Options{
			MaxDepth: cfg.QueueDepth, Name: "serve", Metrics: reg,
		}),
		met: serveMetrics{
			submitted: reg.Counter("serve_jobs_submitted"),
			completed: reg.Counter("serve_jobs_completed"),
			failed:    reg.Counter("serve_jobs_failed"),
			canceled:  reg.Counter("serve_jobs_canceled"),
			rejected:  reg.Counter("serve_jobs_rejected"),
			sojourn:   reg.Histogram("serve_sojourn_ns"),
			dispatch:  reg.Histogram("serve_dispatch_ns"),
			simMs:     reg.Counter("serve_completed_sim_ms"),
			requeues:  reg.Counter("serve_requeues"),
			placed:    func(mode string) *obs.Counter { return reg.Counter("serve_placements", "mode", mode) },

			partsSubmitted: reg.Counter("serve_parts_submitted"),
			partsCompleted: reg.Counter("serve_parts_completed"),
			fanout:         reg.Histogram("serve_fanout_ns"),
			stitch:         reg.Histogram("serve_stitch_ns"),

			costMicro:    reg.Counter("serve_cost_microcents"),
			deadlineMiss: reg.Counter("serve_deadline_miss"),
			backendJobs:  func(label string) *obs.Counter { return reg.Counter("serve_backend_jobs", "backend", label) },
		},
		jobs:    make(map[string]*record),
		costs:   make(map[string]*perf.Report),
		runDone: make(chan struct{}),
	}
	s.flowCond = sync.NewCond(&s.flowMu)
	if cfg.Fleet != nil {
		s.transport = newFleetTransport(s, *cfg.Fleet, reg)
	} else {
		s.transport = newLoopback(cfg, reg)
	}
	return s, nil
}

// Start launches the transport and the dispatcher loop. The server runs
// until Stop (graceful drain) or ctx cancellation (abandons queued jobs).
func (s *Server) Start(ctx context.Context) {
	if s.started {
		return
	}
	s.started = true
	s.transport.open(ctx)
	go s.run(ctx)
}

// Stop gracefully shuts the server down: admissions close immediately,
// already-queued jobs are dispatched and executed (fleet leases that expire
// during drain are reassigned, not dropped), then the dispatcher and the
// transport exit. Safe to call once after Start.
func (s *Server) Stop() {
	s.q.Close()
	<-s.runDone
	s.transport.close()
}

// Submit validates and admits one job. The returned view is the queued
// state; rejections return queue.ErrFull / queue.ErrClosed (admission) or a
// validation error. Canceling ctx while the job is still queued withdraws
// it; a job already dispatched runs to completion.
func (s *Server) Submit(ctx context.Context, req JobRequest) (JobView, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	task, opts, err := buildTask(req)
	if err != nil {
		return JobView{}, err
	}
	pw, ph, pframes, err := s.proxyDims(req.Video)
	if err != nil {
		return JobView{}, err
	}
	if len(req.Ladder) > 0 || req.Segments > 1 {
		return s.submitMulti(ctx, req, task, pw, ph, pframes)
	}
	if err := s.admitDeadline(opts, req, pframes, pw, ph); err != nil {
		s.met.rejected.Inc()
		s.totMu.Lock()
		s.totals.Rejected++
		s.totMu.Unlock()
		return JobView{}, err
	}
	rec := &record{
		task:     task,
		opts:     opts,
		class:    req.Class,
		priority: req.Priority,
		done:     make(chan struct{}),
		state:    StateQueued,
		enq:      time.Now(),

		deadlineSeconds: req.DeadlineSeconds,
		qualityFloor:    req.QualityFloor,
		pw:              pw,
		ph:              ph,
		pframes:         pframes,
	}
	s.jobsMu.Lock()
	s.seq++
	rec.seq = s.seq
	rec.id = "job-" + strconv.FormatUint(rec.seq, 10)
	rec.task.Name = rec.id
	s.jobsMu.Unlock()

	var deadline time.Time
	if req.DeadlineMs > 0 {
		deadline = rec.enq.Add(time.Duration(req.DeadlineMs) * time.Millisecond)
	}
	// The queue's own ctx watcher is bypassed (Background) so that the
	// serving layer observes every cancellation and can settle the record.
	ticket, err := s.q.Submit(context.Background(), rec, queue.SubmitOptions{
		Class: req.Class, Priority: req.Priority, Deadline: deadline,
	})
	if err != nil {
		s.met.rejected.Inc()
		s.totMu.Lock()
		s.totals.Rejected++
		s.totMu.Unlock()
		return JobView{}, err
	}
	if ctx.Done() != nil {
		context.AfterFunc(ctx, func() {
			if ticket.Cancel() {
				s.settleCanceled(rec)
			}
		})
	}
	s.jobsMu.Lock()
	s.jobs[rec.id] = rec
	s.jobsMu.Unlock()
	s.met.submitted.Inc()
	s.totMu.Lock()
	s.totals.Submitted++
	s.totMu.Unlock()
	return rec.view(), nil
}

// submitMulti expands a segmented and/or ladder request into a parent
// record plus rung x segment part records. The parent never enters the
// queue: parts flow through admission as ordinary leased units and settle
// back into it (dispatch.go's partSettled). Admission is all-or-nothing —
// if any part is rejected (queue full/closed) every already-queued sibling
// is withdrawn and the whole submit fails, so a client never observes a
// half-admitted job graph.
func (s *Server) submitMulti(ctx context.Context, req JobRequest, task sched.Task, pw, ph, pframes int) (JobView, error) {
	reject := func(err error) (JobView, error) {
		s.met.rejected.Inc()
		s.totMu.Lock()
		s.totals.Rejected++
		s.totMu.Unlock()
		return JobView{}, err
	}
	if req.Segments > maxSegments {
		return JobView{}, fmt.Errorf("serve: segments %d exceeds limit %d", req.Segments, maxSegments)
	}
	if len(req.Ladder) > maxLadderRungs {
		return JobView{}, fmt.Errorf("serve: ladder has %d rungs, limit %d", len(req.Ladder), maxLadderRungs)
	}

	// Resolve each rung to its task + options; zero rung fields inherit the
	// top-level request. A segmented non-ladder request is one unnamed rung.
	type partSpec struct {
		task sched.Task
		opts codec.Options
		rung string
	}
	rungs := req.Ladder
	if len(rungs) == 0 {
		rungs = []Rung{{}}
	}
	specs := make([]partSpec, len(rungs))
	for i, rg := range rungs {
		r := req
		r.Segments, r.Ladder = 0, nil
		if rg.CRF != 0 {
			r.CRF = rg.CRF
		}
		if rg.Refs != 0 {
			r.Refs = rg.Refs
		}
		if rg.Preset != "" {
			r.Preset = rg.Preset
		}
		rtask, ropts, err := buildTask(r)
		if err != nil {
			return JobView{}, fmt.Errorf("serve: ladder rung %d (%q): %w", i, rg.Name, err)
		}
		name := rg.Name
		if name == "" && len(req.Ladder) > 0 {
			name = "rung" + itoa(i)
		}
		specs[i] = partSpec{task: rtask, opts: ropts, rung: name}
	}

	// The segment plan follows the workload the parts will actually encode
	// (core.SegmentsFor normalizes the clip length and clamps the part
	// count), so every part's range is valid by construction.
	segs := []codec.Segment{{}}
	if req.Segments > 1 {
		w := s.cfg.Proto
		w.Video = req.Video
		plan, err := core.SegmentsFor(w, req.Segments)
		if err != nil {
			return JobView{}, fmt.Errorf("serve: %w", err)
		}
		segs = plan
	}

	// Deadline admission per rung: every part must be placeable within the
	// deadline on some live class, so check each rung against its widest
	// segment (the strictest part). A typed rejection here beats admitting
	// a graph that placement can never finish on time.
	if req.DeadlineSeconds > 0 {
		widest := pframes
		if len(segs) > 1 {
			widest = 0
			for _, sg := range segs {
				if n := sg.End - sg.Start; n > widest {
					widest = n
				}
			}
		}
		for i, spec := range specs {
			r := req
			if err := s.admitDeadline(spec.opts, r, widest, pw, ph); err != nil {
				return reject(fmt.Errorf("ladder rung %d (%q): %w", i, spec.rung, err))
			}
		}
	}

	now := time.Now()
	parent := &record{
		task:     task,
		class:    req.Class,
		priority: req.Priority,
		done:     make(chan struct{}),
		state:    StateQueued,
		enq:      now,

		deadlineSeconds: req.DeadlineSeconds,
		qualityFloor:    req.QualityFloor,
		pw:              pw,
		ph:              ph,
		pframes:         pframes,
	}
	parts := make([]*record, 0, len(specs)*len(segs))
	s.jobsMu.Lock()
	s.seq++
	parent.seq = s.seq
	parent.id = "job-" + strconv.FormatUint(parent.seq, 10)
	parent.task.Name = parent.id
	for _, spec := range specs {
		for _, sg := range segs {
			s.seq++
			part := &record{
				seq: s.seq, task: spec.task, opts: spec.opts,
				class: req.Class, priority: req.Priority,
				seg: sg, rung: spec.rung, parent: parent,
				done: make(chan struct{}), state: StateQueued, enq: now,

				deadlineSeconds: req.DeadlineSeconds,
				qualityFloor:    req.QualityFloor,
				pw:              pw,
				ph:              ph,
				pframes:         pframes,
				// Parts keep their bitstreams so the parent can be stitched
				// into a downloadable rendition (GET /jobs/{id}/rendition).
				wantStream: true,
			}
			part.id = parent.id + "." + strconv.Itoa(len(parts)+1)
			part.task.Name = part.id
			parts = append(parts, part)
		}
	}
	parent.parts = parts
	s.jobsMu.Unlock()

	var deadline time.Time
	if req.DeadlineMs > 0 {
		deadline = now.Add(time.Duration(req.DeadlineMs) * time.Millisecond)
	}
	for i, part := range parts {
		ticket, err := s.q.Submit(context.Background(), part, queue.SubmitOptions{
			Class: req.Class, Priority: req.Priority, Deadline: deadline,
		})
		if err != nil {
			// All-or-nothing: withdraw the parts already admitted. None is
			// externally visible yet (records register below), so no
			// settlement is owed.
			for _, prev := range parts[:i] {
				prev.ticket.Cancel()
			}
			return reject(err)
		}
		part.ticket = ticket
	}

	s.jobsMu.Lock()
	s.jobs[parent.id] = parent
	for _, part := range parts {
		s.jobs[part.id] = part
	}
	s.jobsMu.Unlock()
	if ctx.Done() != nil {
		context.AfterFunc(ctx, func() {
			for _, part := range parts {
				if part.ticket.Cancel() {
					s.settleCanceled(part)
				}
			}
		})
	}
	s.met.submitted.Inc()
	s.met.partsSubmitted.Add(int64(len(parts)))
	s.totMu.Lock()
	s.totals.Submitted++
	s.totMu.Unlock()
	return parent.view(), nil
}

// Job returns the current view of a job by id.
func (s *Server) Job(id string) (JobView, bool) {
	s.jobsMu.Lock()
	rec := s.jobs[id]
	s.jobsMu.Unlock()
	if rec == nil {
		return JobView{}, false
	}
	return rec.view(), true
}

// WaitJob blocks until the job reaches a terminal state (done, failed or
// canceled) and returns its final view.
func (s *Server) WaitJob(ctx context.Context, id string) (JobView, error) {
	s.jobsMu.Lock()
	rec := s.jobs[id]
	s.jobsMu.Unlock()
	if rec == nil {
		return JobView{}, fmt.Errorf("serve: unknown job %q", id)
	}
	select {
	case <-rec.done:
		return rec.view(), nil
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// Totals returns the server's lifetime outcome counters.
func (s *Server) Totals() Totals {
	s.totMu.Lock()
	defer s.totMu.Unlock()
	return s.totals
}

// QueueDepth exposes the admission queue depth (the healthz signal).
func (s *Server) QueueDepth() int { return s.q.Depth() }

// Pressure exposes the admission queue backpressure fraction.
func (s *Server) Pressure() float64 { return s.q.Pressure() }

// proxyDims resolves the proxy geometry a video's jobs will encode under
// the server's workload prototype — the sizing input of the accelerator
// clock model and deadline admission.
func (s *Server) proxyDims(video string) (w, h, frames int, err error) {
	wl := s.cfg.Proto
	wl.Video = video
	w, h, frames, err = core.ProxyDims(wl)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("serve: %w", err)
	}
	return w, h, frames, nil
}

// admitDeadline applies the deadline-feasibility admission check: reject
// (typed) when every live server class is predictably unable to finish a
// unit of frames×(pw×ph) within req.DeadlineSeconds. An empty class list
// (fleet mode before any worker registered) and cold software classes
// admit optimistically.
func (s *Server) admitDeadline(opts codec.Options, req JobRequest, frames, pw, ph int) error {
	if req.DeadlineSeconds <= 0 {
		return nil
	}
	classes := s.transport.classes()
	job := sched.HeteroJob{
		Report: s.costOf(req.Video), Opts: opts,
		DeadlineSeconds: req.DeadlineSeconds, QualityFloor: req.QualityFloor,
		Frames: frames, Width: pw, Height: ph,
	}
	if !sched.FeasibleAnywhere(job, classes, s.accel) {
		return fmt.Errorf("%w (deadline %gs over %d live classes)",
			ErrDeadlineInfeasible, req.DeadlineSeconds, len(classes))
	}
	return nil
}

// buildTask validates a request and resolves defaults into a sched.Task
// plus its encode options (validated eagerly so a bad preset is a 400 at
// submission, not a failed job later).
func buildTask(req JobRequest) (sched.Task, codec.Options, error) {
	if _, err := vbench.ByName(req.Video); err != nil {
		return sched.Task{}, codec.Options{}, fmt.Errorf("serve: %w", err)
	}
	task := sched.Task{Video: req.Video, CRF: req.CRF, Refs: req.Refs, Preset: codec.Preset(req.Preset)}
	if task.CRF == 0 {
		task.CRF = 23
	}
	if task.Refs == 0 {
		task.Refs = 3
	}
	if task.Preset == "" {
		task.Preset = codec.PresetMedium
	}
	if task.CRF < 0 || task.CRF > 51 {
		return sched.Task{}, codec.Options{}, fmt.Errorf("serve: crf %d out of range [0,51]", task.CRF)
	}
	if task.Refs < 1 || task.Refs > 16 {
		return sched.Task{}, codec.Options{}, fmt.Errorf("serve: refs %d out of range [1,16]", task.Refs)
	}
	opts, err := task.Options()
	if err != nil {
		return sched.Task{}, codec.Options{}, fmt.Errorf("serve: %w", err)
	}
	return task, opts, nil
}

// --- HTTP API -------------------------------------------------------------------

// Handler returns the service mux: the job API mounted on top of the
// standard -debug-addr observability endpoints (/metrics, /debug/vars,
// /debug/pprof), so one listener serves both. In fleet mode the worker
// protocol endpoints (/fleet/*) are mounted too. Every route carries a
// method-mismatch fallback with a JSON 405 and Allow header, so clients
// never see a bare 404/405 page for using the wrong verb.
func (s *Server) Handler() http.Handler {
	mux := obs.Mux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("/jobs", methodNotAllowed(http.MethodPost))
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("/jobs/{id}", methodNotAllowed(http.MethodGet))
	mux.HandleFunc("GET /jobs/{id}/rendition", s.handleRendition)
	mux.HandleFunc("/jobs/{id}/rendition", methodNotAllowed(http.MethodGet))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if ft, ok := s.transport.(*fleetTransport); ok {
		mux.HandleFunc("POST /fleet/heartbeat", ft.handleHeartbeat)
		mux.HandleFunc("/fleet/heartbeat", methodNotAllowed(http.MethodPost))
		mux.HandleFunc("POST /fleet/poll", ft.handlePoll)
		mux.HandleFunc("/fleet/poll", methodNotAllowed(http.MethodPost))
		mux.HandleFunc("POST /fleet/result", ft.handleResult)
		mux.HandleFunc("/fleet/result", methodNotAllowed(http.MethodPost))
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// maxRequestBody caps every decoded POST body; job submissions and worker
// protocol messages are all far below this.
const maxRequestBody = 1 << 16

// maxResultBody is the larger cap for /fleet/result, whose reports may
// carry a part bitstream for the rendition stitch.
const maxResultBody = 1 << 20

// decodeJSON decodes one size-capped JSON body, writing the JSON error
// response itself on failure; the return reports whether decoding
// succeeded and the handler should proceed.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeJSONLimit(w, r, v, maxRequestBody)
}

func decodeJSONLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), Reason: "too_large"})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// methodNotAllowed is the fallback handler mounted on the method-less
// pattern of every route: a JSON 405 naming the allowed verb.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeJSON(w, http.StatusMethodNotAllowed,
			errorBody{Error: fmt.Sprintf("method %s not allowed (want %s)", r.Method, allow), Reason: "method"})
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Deliberately not r.Context(): a POSTed job is fire-and-forget; the
	// client disconnecting must not withdraw it.
	view, err := s.Submit(context.Background(), req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, view)
	case errors.Is(err, queue.ErrFull):
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), Reason: "full"})
	case errors.Is(err, queue.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), Reason: "closed"})
	case errors.Is(err, ErrDeadlineInfeasible):
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error(), Reason: "deadline_infeasible"})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleRendition serves the stitched bitstream of a completed multi-part
// job: GET /jobs/{id}/rendition[?rung=name]. Parts keep their encoded
// streams at settlement; once the parent is done the requested rung's
// parts are stitched in segment order (codec.StitchStreams) — the
// server-side counterpart of the byte-identical segment fan-out.
func (s *Server) handleRendition(w http.ResponseWriter, r *http.Request) {
	stream, status, eb := s.rendition(r.PathValue("id"), r.URL.Query().Get("rung"))
	if status != http.StatusOK {
		writeJSON(w, status, eb)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(stream)
}

func (s *Server) rendition(id, rung string) ([]byte, int, errorBody) {
	s.jobsMu.Lock()
	rec := s.jobs[id]
	s.jobsMu.Unlock()
	if rec == nil {
		return nil, http.StatusNotFound, errorBody{Error: "unknown job"}
	}
	rec.mu.Lock()
	state := rec.state
	rec.mu.Unlock()
	if len(rec.parts) == 0 {
		return nil, http.StatusNotFound, errorBody{
			Error: "job has no stitchable parts (plain jobs carry no rendition)", Reason: "no_rendition"}
	}
	if state != StateDone {
		return nil, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job is %s, rendition needs done", state), Reason: "not_ready"}
	}
	var sel []*record
	rungs := make(map[string]bool)
	for _, p := range rec.parts {
		rungs[p.rung] = true
		if p.rung == rung {
			sel = append(sel, p)
		}
	}
	if len(sel) == 0 {
		names := make([]string, 0, len(rungs))
		for n := range rungs {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, http.StatusNotFound, errorBody{
			Error: fmt.Sprintf("unknown rung %q (have %q)", rung, names), Reason: "unknown_rung"}
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].seg.Start < sel[j].seg.Start })
	streams := make([][]byte, len(sel))
	for i, p := range sel {
		p.mu.Lock()
		st := p.stream
		p.mu.Unlock()
		if len(st) == 0 {
			return nil, http.StatusInternalServerError, errorBody{
				Error: fmt.Sprintf("part %s settled without its bitstream", p.id), Reason: "stream_unavailable"}
		}
		streams[i] = st
	}
	out, err := codec.StitchStreams(streams)
	if err != nil {
		return nil, http.StatusInternalServerError, errorBody{
			Error: "stitch: " + err.Error(), Reason: "stitch_failed"}
	}
	return out, http.StatusOK, errorBody{}
}

// healthBody is the GET /healthz response. PoolSize is the live transport
// size: configured servers for loopback, registered live workers in fleet
// mode (where the per-worker detail rides in Workers).
type healthBody struct {
	Status      string       `json:"status"`
	Policy      Policy       `json:"policy"`
	PoolSize    int          `json:"pool_size"`
	FreeServers int          `json:"free_servers"`
	QueueDepth  int          `json:"queue_depth"`
	Pressure    float64      `json:"pressure"`
	Totals      Totals       `json:"totals"`
	Fleet       bool         `json:"fleet,omitempty"`
	Workers     []WorkerView `json:"workers,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	body := healthBody{
		Status: "ok", Policy: s.cfg.Policy, PoolSize: s.transport.size(),
		FreeServers: len(s.transport.freeSlots()), QueueDepth: s.q.Depth(),
		Pressure: s.q.Pressure(), Totals: s.Totals(),
	}
	if ft, ok := s.transport.(*fleetTransport); ok {
		body.Fleet = true
		body.Workers = ft.workerViews()
	}
	writeJSON(w, http.StatusOK, body)
}
