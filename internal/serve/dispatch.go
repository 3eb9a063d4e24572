package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/perf"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/uarch"
)

// This file is the online dispatcher: the incremental counterpart of the
// paper's one-shot Hungarian placement, split into placement (here) and
// delivery (transport.go / fleet.go). Each cycle it takes the next dequeued
// job, tops the batch up with whatever else is waiting (bounded by the
// free-slot count), and solves the batch×free-slots assignment over
// predicted seconds, built from the same affinity model the offline smart
// scheduler uses — a batch of one on a software fleet degenerates to
// greedy argmax-affinity, a fuller batch recovers the regret-aware
// matching (a job only concedes its best server when another job loses
// more by missing it). Videos without a cached baseline
// characterization fall back to seeded-random placement, the cold-start
// behaviour the random control policy uses for everything.

// run is the dispatcher loop; it exits when ctx cancels or the queue is
// closed and fully drained (including jobs put back by expiring leases).
// Its one wait, holding a dequeued job, is for the change counter to
// move: while no slot is free, or once the queue offers again a job found
// unplaceable since it last moved. The counter is read before the
// free-slot snapshot, so an event between the two still ends the wait.
func (s *Server) run(ctx context.Context) {
	defer close(s.runDone)
	// tried holds the jobs of rounds that placed nothing since the counter
	// read triedAt: no slot then free could run them, none has freed
	// since. passed holds those the queue offered again since the last
	// round, put straight back so its round-robin reaches other classes.
	var tried, passed []*queue.Ticket[*record]
	var triedAt uint64
	var held *queue.Ticket[*record]
	for {
		ticket := held
		held = nil
		if ticket == nil {
			var err error
			if ticket, err = s.q.Dequeue(ctx); err != nil {
				if errors.Is(err, queue.ErrClosed) && s.waitDrain(ctx) {
					// A lease was superseded during drain and put its job back:
					// the closed queue has work again, keep dispatching.
					continue
				}
				return // canceled, or closed and drained
			}
		}
		seen := s.changes.Load()
		if seen != triedAt {
			tried, passed, triedAt = tried[:0], passed[:0], seen
		}
		var free []slot
		if !slices.Contains(tried, ticket) {
			free = s.transport.freeSlots()
		} else if !slices.Contains(passed, ticket) {
			passed = append(passed, ticket)
			_ = s.q.Requeue(ticket) // dequeued by this loop, so it cannot fail
			continue
		}
		if len(free) == 0 {
			if !waitCond(ctx, s.flowCond, func() bool { return s.changes.Load() != seen }) {
				// Canceled while waiting: the job never ran; settle it so
				// no waiter hangs.
				s.settleCanceled(ticket.Payload())
				return
			}
			held = ticket
			continue
		}
		passed = passed[:0]
		sp := s.met.dispatch.Start()
		batch := []*queue.Ticket[*record]{ticket}
		for len(batch) < len(free) {
			extra, ok := s.q.TryDequeue()
			if !ok {
				break
			}
			batch = append(batch, extra)
		}
		recs := make([]*record, len(batch))
		for bi, tk := range batch {
			recs[bi] = tk.Payload()
		}
		placements := s.place(recs, free)
		sp.End()
		var unplaced []*queue.Ticket[*record]
		for bi, tk := range batch {
			if p := placements[bi]; p.slot >= 0 {
				s.launch(ctx, tk, free[p.slot], p.mode)
			} else {
				unplaced = append(unplaced, tk)
			}
		}
		if len(unplaced) == len(batch) {
			tried = append(tried, unplaced...)
		}
		// Jobs no free slot can run were never dispatched: back at their
		// rank, neither counted as requeues nor waking anyone.
		for _, tk := range unplaced {
			_ = s.q.Requeue(tk) // dequeued by this loop, so it cannot fail
		}
	}
}

// waitDrain parks after the queue reports closed-and-empty: with leases
// still in flight a timeout can requeue work, so "drained" only holds once
// nothing is running AND nothing is queued. Returns true when new work
// appeared (the caller re-enters the dequeue loop), false when drain is
// complete or ctx canceled.
func (s *Server) waitDrain(ctx context.Context) bool {
	work := false
	waitCond(ctx, s.flowCond, func() bool {
		work = s.q.Depth() > 0
		return work || s.inflight == 0
	})
	return work
}

// wake bumps the change counter on an event that can make a queued job
// placeable: a slot released or parked, a dispatched job back in the
// queue, an admission. Callers bump after releasing their own lock, so the
// dispatcher's next free-slot snapshot sees the change.
func (s *Server) wake() {
	s.flowMu.Lock()
	s.changes.Add(1)
	s.flowCond.Broadcast()
	s.flowMu.Unlock()
}

// waitCond blocks on c until ready reports true (returns true) or ctx is
// done first (returns false). ready runs with c.L held and is checked
// before ctx, so a wait that is already satisfied never fails; ctx
// cancellation broadcasts c so the wait observes it.
func waitCond(ctx context.Context, c *sync.Cond, ready func() bool) bool {
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() {
			c.L.Lock()
			c.Broadcast()
			c.L.Unlock()
		})()
	}
	c.L.Lock()
	defer c.L.Unlock()
	for !ready() {
		if ctx.Err() != nil {
			return false
		}
		c.Wait()
	}
	return true
}

// addInflight tracks dispatched-but-unfinished jobs for drain accounting.
func (s *Server) addInflight(d int) {
	s.flowMu.Lock()
	s.inflight += d
	s.flowCond.Broadcast()
	s.flowMu.Unlock()
}

// utilBias scales worker utilization (percent) into the placement cost
// matrix; see place.
const utilBias = 0.05

// placement pairs a batch entry with its chosen free-slot index and the
// mode the decision was made under.
type placement struct {
	slot int    // index into the free snapshot; -1 = no slot available
	mode string // smart | random | cold
}

// place assigns every batch entry to a distinct slot of the free snapshot
// (run caps the batch at len(free)); a row none of the slots left to it
// can run gets -1.
func (s *Server) place(batch []*record, free []slot) []placement {
	out := make([]placement, len(batch))
	reports := make([]*perf.Report, len(batch))
	for bi, rec := range batch {
		out[bi].slot = -1
		if s.cfg.Policy == PolicySmart {
			if reports[bi] = s.costOf(rec.task.Video); reports[bi] != nil {
				out[bi].mode = "smart"
			} else {
				out[bi].mode = "cold"
			}
		} else {
			out[bi].mode = "random"
		}
	}
	taken := make([]bool, len(free))
	if s.cfg.Policy == PolicySmart {
		// One placement matrix for every fleet: predicted seconds
		// (affinity-scaled for software, closed-form for the accelerator),
		// priced when the objective is dollars, with infeasible cells (option
		// surface, quality floor, deadline) masked before the solve.
		specs := make([]backend.ServerSpec, len(free))
		bias := make([]float64, len(free))
		jobs := make([]sched.HeteroJob, len(batch))
		for j, sl := range free {
			specs[j] = sl.spec
			// Live-load tiebreak: each slot's cost carries a small term from
			// its worker's reported utilization, so near-equal choices prefer
			// the idler machine. AssignHetero scales it by the mean predicted
			// cell, so it spans [0, 5%] of that mean across the 0-100% range —
			// well under typical affinity gaps, so a real bottleneck match
			// still dominates.
			bias[j] = utilBias * sl.util / 100
		}
		for bi, rec := range batch {
			jobs[bi] = s.heteroJob(rec, reports[bi])
		}
		assigned := sched.AssignHetero(jobs, specs, s.accel, s.cfg.Objective, bias)
		for bi, j := range assigned {
			if j >= 0 {
				out[bi].slot = j
				taken[j] = true
			} else if out[bi].mode == "smart" {
				// Overload spillover (or every cell masked): this row falls
				// back to the cold (seeded-random) path.
				out[bi].mode = "cold"
			}
		}
	}
	for bi, rec := range batch {
		if out[bi].slot >= 0 {
			continue
		}
		var remaining []int
		for j := range free {
			if !taken[j] && s.executable(rec, free[j].spec) {
				remaining = append(remaining, j)
			}
		}
		if len(remaining) == 0 {
			continue // no compatible slot for this row; run puts it back
		}
		// Per-job hash, not a shared RNG stream: the draw depends only on
		// (seed, job sequence), so placement is reproducible regardless of
		// dispatch interleaving.
		j := remaining[int(splitmix64(s.cfg.Seed^rec.seq)%uint64(len(remaining)))]
		out[bi].slot = j
		taken[j] = true
	}
	return out
}

// heteroJob projects a record into the economic placement row.
func (s *Server) heteroJob(rec *record, rep *perf.Report) sched.HeteroJob {
	return sched.HeteroJob{
		Report: rep, Opts: rec.opts,
		DeadlineSeconds: rec.deadlineSeconds, QualityFloor: rec.qualityFloor,
		Frames: rec.frames(), Width: rec.pw, Height: rec.ph,
	}
}

// executable reports whether the cold/random fallback may hand rec to a
// slot: the accelerator must accept the job's option surface, quality
// floor and (being exactly predictable) its deadline; software slots take
// anything — a cold software placement is the optimistic bet admission
// already made.
func (s *Server) executable(rec *record, spec backend.ServerSpec) bool {
	job := s.heteroJob(rec, nil)
	if !sched.Feasible(job, spec, s.accel) {
		return false
	}
	if rec.deadlineSeconds > 0 && spec.Backend == backend.Accel {
		if sec, ok := sched.PredictSeconds(nil, spec, s.accel, job.Frames, job.Width, job.Height); ok && sec > rec.deadlineSeconds {
			return false
		}
	}
	return true
}

// launch records the dispatch and hands the job to the transport. A start
// failure (the slot vanished between snapshot and delivery) requeues the
// job instead of failing it — delivery never began, so the attempt is free
// to retry elsewhere.
func (s *Server) launch(ctx context.Context, tk *queue.Ticket[*record], sl slot, mode string) {
	rec := tk.Payload()
	rec.mu.Lock()
	if rec.state.terminal() {
		// Settled while queued: a late result from a previous lease beat the
		// requeued ticket through the queue. Nothing to run.
		rec.mu.Unlock()
		return
	}
	rec.state = StateRunning
	rec.server = sl.label
	rec.mode = mode
	rec.attempts++
	first := rec.attempts == 1
	if rec.started.IsZero() {
		rec.started = time.Now()
	}
	rec.mu.Unlock()
	s.met.placed(mode).Inc()
	if rec.parent != nil {
		s.partLaunched(rec, first)
	}
	s.addInflight(1)
	if err := s.transport.start(ctx, sl, tk, func(out outcome) { s.finish(tk, out) }); err != nil {
		s.requeue(tk)
		s.addInflight(-1)
	}
}

// finish is the single completion path for every dispatched attempt,
// called exactly once per successful start.
func (s *Server) finish(tk *queue.Ticket[*record], out outcome) {
	rec := tk.Payload()
	if out.requeue {
		// The attempt died without a result (worker silent or restarted):
		// back in line at the original rank, then wake the drain waiter —
		// in this order, so drain never observes empty-and-idle in between.
		s.requeue(tk)
		s.addInflight(-1)
		return
	}
	if out.err == nil && out.report != nil && out.config == "baseline" {
		// The fleet learns while serving: any job that ran on a
		// baseline-configured slot doubles as the baseline characterization
		// of its video, warming the cost model for free.
		s.learn(rec.task.Video, out.report)
	}
	s.settle(rec, settlementOf(out))
	s.addInflight(-1)
}

// settlementOf prices one attempt's outcome: the settling attempt's spec
// and simulated seconds yield the job's dollar cost, exactly once because
// requeued attempts carry no outcome.
func settlementOf(out outcome) settlement {
	if out.err != nil {
		return settlement{state: StateFailed, backend: string(out.spec.Backend), err: out.err}
	}
	return settlement{
		state:   StateDone,
		seconds: out.seconds,
		cost:    out.spec.CostCents(out.seconds),
		backend: string(out.spec.Backend),
		class:   out.spec.Label(),
		stream:  out.stream,
	}
}

// requeue re-admits a dispatched-but-unfinished job at its original queue
// rank. Terminal records (a late result settled the job while its requeue
// was racing in) are left alone.
func (s *Server) requeue(tk *queue.Ticket[*record]) {
	rec := tk.Payload()
	rec.mu.Lock()
	if rec.state.terminal() {
		rec.mu.Unlock()
		return
	}
	rec.state = StateQueued
	rec.server, rec.mode = "", ""
	rec.mu.Unlock()
	if err := s.q.Requeue(tk); err != nil {
		// The ticket was withdrawn mid-race (client cancellation): settle so
		// no waiter hangs.
		s.settleCanceled(rec)
		return
	}
	s.met.requeues.Inc()
	s.wake()
}

// lateSettle handles a result that arrives after its lease was
// superseded: the job was requeued (and possibly re-dispatched), but the
// work is done and exactly-once settlement wants it. If the requeued
// ticket is still queued, it is withdrawn; if a second attempt is already
// running, the first settle wins at the record and the loser is a no-op.
// Reports whether the result was used.
func (s *Server) lateSettle(tk *queue.Ticket[*record], out outcome) bool {
	rec := tk.Payload()
	if rec.terminal() {
		return false
	}
	// Withdraw the requeued ticket if it is still waiting; if it was already
	// re-dispatched this loses the race and the duplicate attempt's own
	// finish becomes the no-op (settle is terminal-once at the record).
	tk.Cancel()
	if out.err == nil && out.report != nil && out.config == "baseline" {
		s.learn(rec.task.Video, out.report)
	}
	s.settle(rec, settlementOf(out))
	return true
}

// settlement is the full terminal description of a record: state and
// simulated seconds as before, plus the economics (dollar cost of the
// settling attempt, backend kind that ran it, deadline verdict) and the
// attempt's bitstream, which only a part keeps. Parents aggregate cost and
// misses from their parts before flowing through themselves.
type settlement struct {
	state   JobState
	seconds float64
	cost    float64 // cents, priced from the settling attempt's spec
	miss    bool    // parent-only override: any part missed its deadline
	backend string  // backend kind that executed ("software" / "accel")
	class   string  // capability class label (per-backend job counter key)
	stream  []byte  // encoded bitstream, if the attempt returned one
	err     error
}

// settle moves a record to a terminal state exactly once and updates the
// outcome counters. Parts of a multi-part job settle into their parent
// instead of the client-facing totals — the parent is the job the client
// submitted, and it flows through here itself once its last part lands.
// Cost is folded into the totals for every client-facing terminal record
// (a failed job still paid for its settling attempt); deadline misses
// count only on completion, since an unfinished job has no service time.
func (s *Server) settle(rec *record, st settlement) {
	rec.mu.Lock()
	if rec.state.terminal() {
		rec.mu.Unlock()
		return
	}
	rec.state = st.state
	rec.finished = time.Now()
	rec.seconds = st.seconds
	rec.costCents = st.cost
	rec.backendName = st.backend
	if rec.parent != nil {
		// A part keeps its bitstream so the parent can be stitched into a
		// downloadable rendition (GET /jobs/{id}/rendition): the bytes,
		// not the capacity the encoder's writer grew them to.
		rec.stream = append(make([]byte, 0, len(st.stream)), st.stream...)
	}
	miss := st.miss
	if st.state == StateDone && len(rec.parts) == 0 &&
		rec.deadlineSeconds > 0 && st.seconds > rec.deadlineSeconds {
		// Deadlines bound per-placed-unit service time; a parent's seconds
		// is the sum over parallel parts, so its verdict comes from st.miss
		// (any part missed), set by foldParts.
		miss = true
	}
	rec.deadlineMiss = miss
	if st.err != nil {
		rec.errMsg = st.err.Error()
	}
	enq := rec.enq
	unwatch := rec.unwatch
	rec.unwatch = nil
	rec.mu.Unlock()
	if unwatch != nil {
		unwatch()
	}

	if st.state == StateDone && st.class != "" {
		// Execution units only (parts and plain jobs): parents never carry a
		// class, so the per-backend job counter counts actual encodes.
		s.met.backendJobs(st.class).Inc()
	}

	if rec.parent != nil {
		if st.state == StateDone {
			s.met.partsCompleted.Inc()
		}
		close(rec.done)
		s.partSettled(rec, st.state)
		return
	}

	s.met.sojourn.ObserveSince(enq)
	s.totMu.Lock()
	s.totals.CostCents += st.cost
	s.met.costMicro.Add(int64(st.cost*1e6 + 0.5))
	switch st.state {
	case StateDone:
		s.met.completed.Inc()
		s.met.simMs.Add(int64(st.seconds * 1e3))
		s.totals.Completed++
		s.totals.SimSeconds += st.seconds
		if miss {
			s.met.deadlineMiss.Inc()
			s.totals.DeadlineMisses++
		}
	case StateFailed:
		s.met.failed.Inc()
		s.totals.Failed++
	case StateCanceled:
		s.met.canceled.Inc()
		s.totals.Canceled++
	}
	s.totMu.Unlock()
	close(rec.done)
	s.retain(rec)
}

// partLaunched folds one part dispatch into its parent: the first part to
// start moves the parent to running, and the moment every part has been
// dispatched at least once the fan-out latency is observed (requeued
// re-dispatches don't re-count).
func (s *Server) partLaunched(rec *record, first bool) {
	p := rec.parent
	p.mu.Lock()
	if p.state == StateQueued {
		p.state = StateRunning
		p.started = time.Now()
	}
	fannedOut := false
	if first {
		p.partsLaunched++
		fannedOut = p.partsLaunched == len(p.parts)
	}
	enq := p.enq
	p.mu.Unlock()
	if fannedOut {
		s.met.fanout.ObserveSince(enq)
	}
}

// partSettled counts one terminal part against its parent. The caller
// holds no locks. A failed part withdraws its still-queued siblings
// (Ticket.Cancel is false for tickets already off the queue, so running
// parts finish and settle normally); each withdrawal settles that sibling,
// re-entering here. Exactly one call brings the count to len(parts), and
// that call settles the parent with the fold of its parts.
func (s *Server) partSettled(rec *record, state JobState) {
	p := rec.parent
	p.mu.Lock()
	p.settled++
	finished := p.settled == len(p.parts)
	p.mu.Unlock()
	if state == StateFailed && !finished {
		for _, sib := range p.parts {
			if sib != rec && sib.ticket.Cancel() {
				s.settleCanceled(sib)
			}
		}
	}
	if !finished {
		return
	}
	st, anchor := foldParts(p.parts)
	if !anchor.IsZero() {
		s.met.stitch.ObserveSince(anchor)
	}
	s.settle(p, st)
}

// foldParts is a parent's settlement as a function of its settled parts,
// read in part order, so neither the numbers nor the error depend on the
// order parts finished in: failed if any part failed (the error names the
// first in part order), else canceled if any was canceled, else done.
// Seconds sum the done parts, cost sums every part, and the parent misses
// its deadline only if it is done and some part missed. anchor is the
// earliest finish of a done part, where the stitch latency starts.
func foldParts(parts []*record) (st settlement, anchor time.Time) {
	st.state = StateDone
	failed, canceled, missed := 0, 0, false
	first := ""
	for _, p := range parts {
		p.mu.Lock()
		st.cost += p.costCents
		switch p.state {
		case StateDone:
			st.seconds += p.seconds
			missed = missed || p.deadlineMiss
			if anchor.IsZero() || p.finished.Before(anchor) {
				anchor = p.finished
			}
		case StateFailed:
			if failed == 0 {
				first = p.id + ": " + p.errMsg
			}
			failed++
		case StateCanceled:
			canceled++
		}
		p.mu.Unlock()
	}
	switch {
	case failed > 0:
		st.state = StateFailed
		st.err = fmt.Errorf("serve: %d of %d parts failed; first: %s", failed, len(parts), first)
	case canceled > 0:
		st.state, st.err = StateCanceled, context.Canceled
	default:
		st.miss = missed
	}
	return st, anchor
}

// settleCanceled marks a withdrawn job (its queue ticket was canceled
// before dispatch).
func (s *Server) settleCanceled(rec *record) {
	s.settle(rec, settlement{state: StateCanceled, err: context.Canceled})
}

// --- characterization cost model ------------------------------------------------

// costOf returns the cached baseline characterization of a video, or nil
// when the cache is cold.
func (s *Server) costOf(video string) *perf.Report {
	s.costMu.Lock()
	defer s.costMu.Unlock()
	return s.costs[video]
}

// learn stores a baseline characterization (first writer wins, keeping the
// model stable once warm).
func (s *Server) learn(video string, rep *perf.Report) {
	s.costMu.Lock()
	if _, ok := s.costs[video]; !ok {
		s.costs[video] = rep
	}
	s.costMu.Unlock()
}

// Warm profiles the given videos on the baseline configuration with the
// paper's default options (medium, crf 23) and fills the cost cache,
// fanning out on the shared execution engine. The model is keyed by video
// only — content dominates the bottleneck mix — so one profile per video
// serves every (crf, refs, preset) a job may carry. Duplicate and
// already-warm videos are skipped. Typically called at startup with the
// expected catalog; without it the dispatcher serves cold (random) until
// baseline-placed jobs warm the model organically.
func (s *Server) Warm(ctx context.Context, videos []string) error {
	want := make(map[string]bool)
	var todo []string
	for _, v := range videos {
		if want[v] || s.costOf(v) != nil {
			continue
		}
		want[v] = true
		todo = append(todo, v)
	}
	sort.Strings(todo)
	if len(todo) == 0 {
		return nil
	}
	opts := codec.Defaults()
	base := uarch.Baseline()
	_, err := exec.Pool{Policy: exec.FailFast, Metrics: s.cfg.Metrics}.Map(ctx, len(todo), func(ctx context.Context, i int) error {
		w := s.cfg.Proto
		w.Video = todo[i]
		res, err := core.Run(ctx, core.Job{Workload: w, Options: opts, Config: base})
		if err != nil {
			return fmt.Errorf("serve: warm %s: %w", todo[i], err)
		}
		s.learn(todo[i], res.Report)
		return nil
	})
	return err
}

// splitmix64 is the per-job hash behind deterministic random placement.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
