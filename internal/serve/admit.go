package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/vbench"
)

// ErrDeadlineInfeasible is the typed admission rejection for a job whose
// DeadlineSeconds no live server class can predictably meet — the client
// learns at submit time (HTTP 422) instead of discovering a silently late
// job. Cold software classes are optimistic (no prediction yet), so the
// rejection only fires when every feasible class is predictably too slow.
var ErrDeadlineInfeasible = errors.New("serve: no server class can meet the requested deadline")

// JobRequest is the POST /jobs body: the task parameters of the paper's
// studies plus the fairness class and service deadline of the serving
// layer. Within a class, jobs are queued in arrival order.
// Segments and Ladder expand the request into a multi-part job graph: the
// submitted job becomes a parent record whose rung x segment sub-jobs flow
// through the queue as ordinary leased units, are placed independently,
// and settle back into the parent (which completes only when every part
// has).
type JobRequest struct {
	Video  string `json:"video"`
	CRF    int    `json:"crf,omitempty"`    // 0: 23
	Refs   int    `json:"refs,omitempty"`   // 0: 3
	Preset string `json:"preset,omitempty"` // "": medium
	Class  string `json:"class,omitempty"`  // fairness class
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

// rungSpec is one rung of a request resolved to its task and encode
// options; a request without a ladder is one unnamed rung.
type rungSpec struct {
	task sched.Task
	opts codec.Options
	name string
}

// Submit validates and admits one job. A request is rungs x segments
// units: a plain job is one rung of one zero segment, and its own record is
// the unit that is queued. A segmented and/or ladder request becomes a
// parent record plus one part record per unit; the parent never enters the
// queue — parts flow through admission as ordinary leased units and settle
// back into it (dispatch.go's partSettled). Admission is all-or-nothing: if
// any unit is rejected every already-queued sibling is withdrawn and the
// whole submit fails, so a client never observes a half-admitted job graph.
//
// The returned view is the queued state; rejections return queue.ErrFull /
// queue.ErrClosed (admission), ErrDeadlineInfeasible, or a validation
// error. Canceling ctx withdraws the units still queued; a unit already
// dispatched runs to completion.
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
	if req.Segments > maxSegments {
		return JobView{}, fmt.Errorf("serve: segments %d exceeds limit %d", req.Segments, maxSegments)
	}
	if len(req.Ladder) > maxLadderRungs {
		return JobView{}, fmt.Errorf("serve: ladder has %d rungs, limit %d", len(req.Ladder), maxLadderRungs)
	}
	multi := len(req.Ladder) > 0 || req.Segments > 1

	// Resolve each rung to its task + options; zero rung fields inherit the
	// top-level request.
	rungs := []rungSpec{{task: task, opts: opts}}
	if len(req.Ladder) > 0 {
		rungs = make([]rungSpec, len(req.Ladder))
		for i, rg := range req.Ladder {
			r := req
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
			if name == "" {
				name = "rung" + strconv.Itoa(i)
			}
			rungs[i] = rungSpec{task: rtask, opts: ropts, name: name}
		}
	}

	// The segment plan follows the workload the parts will actually encode
	// (core.SegmentsFor normalizes the clip length and clamps the part
	// count), so every part's range is valid by construction.
	segs := []codec.Segment{{}}
	if req.Segments > 1 {
		w := s.cfg.Proto
		w.Video = req.Video
		if segs, err = core.SegmentsFor(w, req.Segments); err != nil {
			return JobView{}, fmt.Errorf("serve: %w", err)
		}
	}

	// Deadline admission per rung: every unit must be placeable within the
	// deadline on some live class, so check each rung against its widest
	// segment (the strictest unit). A typed rejection here beats admitting
	// a graph that placement can never finish on time.
	widest := pframes
	if len(segs) > 1 {
		widest = 0
		for _, sg := range segs {
			widest = max(widest, sg.Len())
		}
	}
	for i, rg := range rungs {
		if err := s.admitDeadline(rg.opts, req, widest, pw, ph); err != nil {
			if multi {
				err = fmt.Errorf("ladder rung %d (%q): %w", i, rg.name, err)
			}
			return s.reject(err)
		}
	}

	now := time.Now()
	unit := func(rg rungSpec, seg codec.Segment) *record {
		return &record{
			task: rg.task, opts: rg.opts, class: req.Class,
			seg: seg, rung: rg.name,
			done: make(chan struct{}), state: StateQueued, enq: now,

			deadlineSeconds: req.DeadlineSeconds,
			qualityFloor:    req.QualityFloor,
			pw:              pw,
			ph:              ph,
			pframes:         pframes,
		}
	}
	job := unit(rungSpec{task: task, opts: opts}, codec.Segment{})
	units := []*record{job}
	s.jobsMu.Lock()
	s.seq++
	s.issued++
	job.seq = s.seq
	num := s.issued
	job.id = "job-" + strconv.FormatUint(num, 10)
	job.task.Name = job.id
	if multi {
		units = make([]*record, 0, len(rungs)*len(segs))
		for _, rg := range rungs {
			for _, sg := range segs {
				s.seq++
				part := unit(rg, sg)
				part.seq, part.parent = s.seq, job
				part.id = job.id + "." + strconv.Itoa(len(units)+1)
				part.task.Name = part.id
				units = append(units, part)
			}
		}
		job.parts = units
	}
	// Registered before the first unit is queued: a unit may settle, and
	// its job leave the retention window, before Submit returns.
	s.registerLocked(job)
	s.jobsMu.Unlock()

	tickets := make([]*queue.Ticket[*record], len(units))
	for i, u := range units {
		// The queue's own ctx watcher is bypassed (Background) so that the
		// serving layer observes every cancellation and can settle the record.
		tk, err := s.q.Submit(context.Background(), u, queue.SubmitOptions{Class: req.Class})
		if err != nil {
			// All-or-nothing: withdraw the units already admitted and drop
			// the records. The client never learned the id, so no
			// settlement is owed, and the id goes back unless a later
			// submission has taken the next one.
			for _, prev := range tickets[:i] {
				prev.Cancel()
			}
			s.jobsMu.Lock()
			s.unregisterLocked(job)
			if s.issued == num {
				s.issued--
			}
			s.jobsMu.Unlock()
			return s.reject(err)
		}
		tickets[i] = tk
		if u.parent != nil {
			u.ticket = tk // a failing sibling withdraws it (partSettled)
		}
	}

	if ctx.Done() != nil {
		// The watcher holds the job's records; settle stops it, so a
		// long-lived ctx keeps no finished job reachable.
		stop := context.AfterFunc(ctx, func() {
			for i, u := range units {
				if tickets[i].Cancel() {
					s.settleCanceled(u)
				}
			}
		})
		job.mu.Lock()
		if job.state.terminal() {
			job.mu.Unlock()
			stop()
		} else {
			job.unwatch = stop
			job.mu.Unlock()
		}
	}
	s.met.submitted.Inc()
	if multi {
		s.met.partsSubmitted.Add(int64(len(units)))
	}
	s.totMu.Lock()
	s.totals.Submitted++
	s.totMu.Unlock()
	s.wake() // a waiting dispatcher may find one of these placeable
	return job.view(), nil
}

// reject counts one admission rejection and returns it.
func (s *Server) reject(err error) (JobView, error) {
	s.met.rejected.Inc()
	s.totMu.Lock()
	s.totals.Rejected++
	s.totMu.Unlock()
	return JobView{}, err
}

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
	classes := distinctClasses(s.transport.specs())
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
