// Package exec is the execution layer shared by every fan-out in the repo:
// a context-aware job engine that runs indexed jobs on a bounded worker
// pool with cancellation, per-job panic recovery and a configurable error
// policy.
//
// The sweeps in internal/core, the scheduling measurement matrix in
// internal/sched and any future sharded or remote execution all funnel
// through Pool.Map, so cancellation and error semantics are defined in
// exactly one place.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
)

// Policy selects what the engine does when a job returns an error.
type Policy int

const (
	// Collect runs every job regardless of failures; errors are reported
	// per job. This is the sweep default: one bad point must not void the
	// other 815.
	Collect Policy = iota
	// FailFast cancels the remaining jobs after the first error. In-flight
	// jobs still run to completion (jobs are CPU-bound simulations that
	// observe ctx only at their own checkpoints); unstarted jobs are
	// marked with ErrSkipped.
	FailFast
)

// ErrSkipped marks a job that never started because FailFast tripped on an
// earlier error. Jobs unstarted because the caller's context was canceled
// are marked with that context's error instead.
var ErrSkipped = errors.New("exec: job skipped after earlier failure")

// Pool configures a bounded worker pool. The zero value is a Collect-policy
// pool with GOMAXPROCS workers.
type Pool struct {
	// Workers bounds concurrency; 0 means GOMAXPROCS. The pool is fixed:
	// Workers goroutines pull job indices from a channel, so an 816-point
	// sweep holds a handful of live goroutines, not 816 parked ones.
	Workers int
	// Policy selects Collect (default) or FailFast error handling.
	Policy Policy
	// Metrics selects the registry the pool records its telemetry into
	// (job counts, queue wait, busy time); nil means obs.Default.
	Metrics *obs.Registry
}

// metrics bundles the pool's instrumentation points, resolved once per Map
// call so the per-job hot path is atomic adds only.
type poolMetrics struct {
	started   *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	panicked  *obs.Counter
	queueWait *obs.Histogram
	jobTime   *obs.Histogram
	busyNs    *obs.Counter
}

func (p Pool) metrics() poolMetrics {
	r := p.Metrics
	if r == nil {
		r = obs.Default()
	}
	return poolMetrics{
		started:   r.Counter("exec_jobs_started"),
		completed: r.Counter("exec_jobs_completed"),
		failed:    r.Counter("exec_jobs_failed"),
		panicked:  r.Counter("exec_jobs_panicked"),
		queueWait: r.Histogram("exec_queue_wait_ns"),
		jobTime:   r.Histogram("exec_job_ns"),
		busyNs:    r.Counter("exec_busy_ns"),
	}
}

// Map runs fn(ctx, i) for every i in [0, n) on the pool and returns one
// error slot per job.
//
// Semantics:
//   - errs[i] is fn's return for jobs that ran (nil on success), the
//     recovered panic for jobs that panicked, ctx.Err() for jobs unstarted
//     at cancellation, and ErrSkipped for jobs unstarted after a FailFast
//     trip.
//   - The returned error is the engine-level outcome: nil when every job
//     was attempted, ctx.Err() when the caller's context canceled the run,
//     or the triggering job error under FailFast.
//   - A panic in one job fails only that job's slot.
//
// Map always waits for in-flight jobs before returning, so on return no
// goroutine started by Map is still touching caller state: cancellation
// costs at most one in-flight job per worker.
func (p Pool) Map(ctx context.Context, n int, fn func(ctx context.Context, i int) error) ([]error, error) {
	errs := make([]error, n)
	if n <= 0 {
		return errs, ctx.Err()
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// runCtx stops the feeder and the workers' per-job checks; it is
	// canceled by the caller's ctx or by a FailFast trip.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error // FailFast trigger
		started  = make([]bool, n)
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	m := p.metrics()

	// The feeder stamps each index when it starts offering it; the channel
	// is unbuffered, so receive-time minus stamp is exactly how long the
	// job sat waiting for a free worker.
	type item struct {
		i   int
		enq time.Time
	}
	idx := make(chan item)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- item{i: i, enq: time.Now()}:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for it := range idx {
				i := it.i
				if runCtx.Err() != nil {
					// Drain without running: the feeder may have handed
					// out this index before observing cancellation.
					continue
				}
				m.queueWait.ObserveSince(it.enq)
				m.started.Inc()
				started[i] = true
				jobStart := time.Now()
				err, panicked := runJob(runCtx, i, fn)
				d := time.Since(jobStart)
				m.jobTime.Observe(int64(d))
				m.busyNs.Add(int64(d))
				m.completed.Inc()
				if panicked {
					m.panicked.Inc()
				}
				if err != nil {
					m.failed.Inc()
				}
				errs[i] = err
				if err != nil && p.Policy == FailFast {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()

	// Mark the jobs that never ran. The caller's cancellation wins over a
	// concurrent FailFast trip: those jobs were abandoned either way, but
	// ctx.Err() is the more truthful cause.
	var skip error
	switch {
	case ctx.Err() != nil:
		skip = ctx.Err()
	case firstErr != nil:
		skip = ErrSkipped
	}
	if skip != nil {
		for i := range errs {
			if !started[i] && errs[i] == nil {
				errs[i] = skip
			}
		}
	}
	switch {
	case ctx.Err() != nil:
		return errs, ctx.Err()
	case firstErr != nil:
		return errs, firstErr
	}
	return errs, nil
}

// runJob invokes fn for one index, converting a panic into that job's
// error so one corrupt point cannot take down a whole sweep. The second
// result reports whether the error came from a recovered panic.
func runJob(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exec: job %d panicked: %v\n%s", i, r, debug.Stack())
			panicked = true
		}
	}()
	return fn(ctx, i), false
}
