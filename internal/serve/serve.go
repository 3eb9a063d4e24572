// Package serve is the online serving layer: an HTTP transcoding-job API
// in front of a characterization-driven live dispatcher over a
// heterogeneous simulated fleet.
//
// The paper's §III-D2 scheduler study is offline — every task is known
// upfront and placed in one Hungarian solve (internal/sched). This package
// is the same placement policy moved to the deployment shape real
// transcoding services have (Li et al.): jobs *arrive* on a bounded
// admission queue (internal/queue) and a dispatcher assigns each batch of
// waiting jobs to free servers of a sched.Fleet using the characterization
// cost model, falling back to seeded-random placement while the cost cache
// is cold. Execution runs on the shared exec layer through Execute, so
// repeated videos hit the decode/analysis caches exactly like sweep
// points do.
//
// The package is split by concern: this file holds the API types and the
// server lifecycle, admit.go admission, dispatch.go placement and
// settlement, transport.go / fleet.go delivery, http.go the job API and
// rendition.go the stitched-bitstream download.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/queue"
	"repro/internal/sched"
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
	// Servers is the in-process loopback fleet — backend kind, uarch
	// config, hourly price and spot flag per server (zero prices resolve to
	// the class defaults). Required unless Fleet is set; ignored in fleet
	// mode, where capability comes from worker registrations.
	Servers sched.Fleet
	// Objective selects what placement minimizes: fleet-seconds (the
	// default) or dollars under per-job deadlines and quality
	// floors (sched.ObjectiveCost).
	Objective sched.Objective
	// Policy selects smart (default) or random placement.
	Policy Policy
	// QueueDepth bounds the admission queue (0: 256, the queue default).
	QueueDepth int
	// Workers bounds concurrent loopback executions; 0 means len(Servers)
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

// retainBytes bounds the retention window of finished jobs (see retain):
// once the settled jobs' charges exceed it, the oldest are forgotten and
// their ids answer ErrGone. A client must read a result before this many
// bytes of later jobs settle. Measured with cmd/loadgen, which reads every
// pending job once a round, against cmd/serve's default pool and sizes on
// 2 CPUs: the most bytes that settled between a job's settle and its read
// (the job included) were 2 529 B over 3 jobs for `-n 50 -rate 25` plain
// jobs, and 1 120 349 B (one ladder alone; ladders there are charged 79 KB
// to 1.1 MB) for `-n 50 -segments 2 -ladder 23,33,43`. At the
// benchmark's sizes a ladder is charged about 33 KB, so the window holds
// about 2 500 plain jobs or 60 such ladders.
const retainBytes = 2 << 20

// Lookup errors. An id the server issued but no longer holds is gone: its
// job settled and left the retention window, so its result can no longer
// be collected. Any other id is unknown.
var (
	ErrUnknownJob = errors.New("serve: unknown job")
	ErrGone       = errors.New("serve: job forgotten past the retention window")
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final (done, failed or canceled).
func (st JobState) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// JobView is the externally visible state of one job (GET /jobs/{id}).
type JobView struct {
	ID         string    `json:"id"`
	State      JobState  `json:"state"`
	Class      string    `json:"class,omitempty"`
	Video      string    `json:"video"`
	CRF        int       `json:"crf"`
	Refs       int       `json:"refs"`
	Preset     string    `json:"preset"`
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
	seq   uint64
	id    string
	task  sched.Task
	opts  codec.Options
	class string
	seg   codec.Segment // frame range of a segment part (zero: whole clip)
	rung  string        // ladder rendition name ("" outside ladders)

	// Economic metadata, immutable after submit. deadlineSeconds caps the
	// simulated service seconds of this unit; qualityFloor is the worst
	// acceptable effective CRF; pw/ph/pframes is the proxy geometry the
	// accelerator clock model sizes the unit with (pframes is the whole
	// clip — frames() applies the segment slice).
	deadlineSeconds float64
	qualityFloor    int
	pw, ph, pframes int

	// parent links a part to the record its outcome settles into; nil for
	// plain jobs and for parents themselves. ticket is the part's admission
	// ticket, kept so a sibling failure (or client cancellation) can
	// withdraw still-queued parts.
	parent *record
	ticket *queue.Ticket[*record]
	// unwatch stops the submit context's withdrawal watcher (client-visible
	// records only); settle calls it. Guarded by mu.
	unwatch func() bool

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

	// Parent side (multi-part submissions only). The parent never enters
	// the queue: it settles when its last part does, by folding parts in
	// part order (partSettled). parts is fixed at admission; the two
	// counts are guarded by mu.
	parts         []*record
	partsLaunched int // parts past their first dispatch (fan-out tracking)
	settled       int // parts in a terminal state
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
		Preset: string(r.task.Preset),
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
		v.Parts = make([]string, len(r.parts))
		for i, p := range r.parts {
			v.Parts[i] = p.id
			p.mu.Lock()
			if p.state == StateDone {
				v.PartsDone++
			}
			p.mu.Unlock()
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
	// Retention: records held by id, the retention window's charge, and
	// records forgotten when their job left the window.
	records       *obs.Gauge
	retainedBytes *obs.Gauge
	forgotten     *obs.Counter
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
	// changes counts events that can make a queued job placeable (see
	// wake); bumped under flowMu, so a waiter on flowCond misses none.
	changes atomic.Uint64

	// jobsMu guards the records by id, the two counters and the retention
	// window: settled client-visible jobs in settle order and the sum of
	// their charges. seq numbers every record, parts included (placement
	// seeds on it); issued numbers the client-visible jobs, whose ids are
	// "job-<issued>".
	jobsMu      sync.Mutex
	jobs        map[string]*record
	seq         uint64
	issued      uint64
	window      []retained
	windowBytes int64
	// retainLimit is the window's budget: retainBytes, or what an
	// in-package test sets before its first Submit.
	retainLimit int64

	costMu sync.Mutex
	costs  map[string]*perf.Report // per-video baseline characterization

	totMu  sync.Mutex
	totals Totals

	runDone chan struct{}
	started bool
}

// New builds a stopped server; call Start to begin dispatching.
func New(cfg Config) (*Server, error) {
	if len(cfg.Servers) == 0 && cfg.Fleet == nil {
		return nil, errors.New("serve: empty pool")
	}
	if cfg.Fleet == nil {
		servers := make(sched.Fleet, len(cfg.Servers))
		for i, spec := range cfg.Servers {
			servers[i] = spec.FillDefaults()
		}
		cfg.Servers = servers
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
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	reg := cfg.Metrics
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

			records:       reg.Gauge("serve_records"),
			retainedBytes: reg.Gauge("serve_retained_bytes"),
			forgotten:     reg.Counter("serve_records_forgotten"),
		},
		jobs:        make(map[string]*record),
		retainLimit: retainBytes,
		costs:       make(map[string]*perf.Report),
		runDone:     make(chan struct{}),
	}
	s.flowCond = sync.NewCond(&s.flowMu)
	if cfg.Fleet != nil {
		s.transport = newFleetTransport(s, *cfg.Fleet, reg)
	} else {
		s.transport = newLoopback(cfg, reg, s.wake)
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
// already-queued jobs are dispatched and executed (fleet leases superseded
// during drain are reassigned, not dropped), then the dispatcher and the
// transport exit. Safe to call once after Start.
func (s *Server) Stop() {
	s.q.Close()
	<-s.runDone
	s.transport.close()
}

// record looks a job up by id: ErrGone for an id the server issued but
// forgot, ErrUnknownJob for any other id it does not hold.
func (s *Server) record(id string) (*record, error) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if rec := s.jobs[id]; rec != nil {
		return rec, nil
	}
	// A part is held as long as its job, so a missing part of a held job
	// was never issued.
	if num, job, ok := jobNum(id); ok && num <= s.issued && s.jobs[job] == nil {
		return nil, ErrGone
	}
	return nil, ErrUnknownJob
}

// jobNum parses an id of this server's form, "job-N" or part K of it
// ("job-N.K"), into N and the id of the job it names or belongs to.
func jobNum(id string) (uint64, string, bool) {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, "", false
	}
	num, part, isPart := strings.Cut(num, ".")
	n, ok := counting(num)
	if isPart {
		_, kok := counting(part)
		ok = ok && kok
	}
	return n, "job-" + num, ok
}

// counting parses a positive decimal as Submit formats it (no sign, no
// leading zero).
func counting(s string) (uint64, bool) {
	if s == "" || s[0] == '0' {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	return n, err == nil
}

// Lookup returns the current view of a job by id, or ErrGone /
// ErrUnknownJob.
func (s *Server) Lookup(id string) (JobView, error) {
	rec, err := s.record(id)
	if err != nil {
		return JobView{}, err
	}
	return rec.view(), nil
}

// Job returns the current view of a job by id; false when the server does
// not hold it (Lookup says why).
func (s *Server) Job(id string) (JobView, bool) {
	v, err := s.Lookup(id)
	return v, err == nil
}

// WaitJob blocks until the job reaches a terminal state (done, failed or
// canceled) and returns its final view. The record is looked up once, so a
// wait that has begun returns the final view even if the job leaves the
// retention window first; an id already forgotten returns ErrGone.
func (s *Server) WaitJob(ctx context.Context, id string) (JobView, error) {
	rec, err := s.record(id)
	if err != nil {
		return JobView{}, fmt.Errorf("%w: %q", err, id)
	}
	select {
	case <-rec.done:
		return rec.view(), nil
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// The fixed charges of the retention window per record, beside a part's
// bitstream: the heap one settled record keeps reachable from Server.jobs
// (the record, its done channel, id strings, map slot, window entry and, for
// a part, its queue ticket). Measured with go1.24 on the loopback as the heap
// freed by clearing Server.jobs and the window: 1 685 344 B after 2 000
// plain jobs (843 B each), and 3 066 944 B after 300 two-segment, three-rung
// ladders, of which 1 095 000 B were part streams and 300 x 843 B the
// parents (955 B a part).
const (
	jobRecordBytes  = 843
	partRecordBytes = 955
)

// retained is one settled client-visible job in the retention window and
// the bytes it was charged.
type retained struct {
	rec   *record
	bytes int64
}

// retain enters a settled client-visible job (a plain job, or a parent
// with its parts) into the retention window, then forgets the oldest jobs,
// parts included, while the window's charges exceed its budget:
// the job just settled goes too if it alone is over. A job is charged a
// fixed overhead per record plus its parts' bitstreams.
func (s *Server) retain(rec *record) {
	charge := int64(jobRecordBytes)
	for _, p := range rec.parts {
		p.mu.Lock()
		charge += partRecordBytes + int64(len(p.stream))
		p.mu.Unlock()
	}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.window = append(s.window, retained{rec, charge})
	s.windowBytes += charge
	for s.windowBytes > s.retainLimit {
		old := s.window[0]
		s.window[0] = retained{} // the backing array keeps no forgotten record
		s.window = s.window[1:]
		s.windowBytes -= old.bytes
		s.unregisterLocked(old.rec)
		s.met.forgotten.Add(int64(1 + len(old.rec.parts)))
	}
	s.met.retainedBytes.Set(s.windowBytes)
}

// registerLocked makes a job and its parts findable by id.
func (s *Server) registerLocked(job *record) {
	s.jobs[job.id] = job
	for _, p := range job.parts {
		s.jobs[p.id] = p
	}
	s.met.records.Set(int64(len(s.jobs)))
}

// unregisterLocked forgets a job and its parts.
func (s *Server) unregisterLocked(job *record) {
	delete(s.jobs, job.id)
	for _, p := range job.parts {
		delete(s.jobs, p.id)
	}
	s.met.records.Set(int64(len(s.jobs)))
}

// Totals returns the server's lifetime outcome counters.
func (s *Server) Totals() Totals {
	s.totMu.Lock()
	defer s.totMu.Unlock()
	return s.totals
}

// QueueDepth exposes the admission queue depth (the healthz signal).
func (s *Server) QueueDepth() int { return s.q.Depth() }
