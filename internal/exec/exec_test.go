package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestMapRunsAll(t *testing.T) {
	const n = 100
	var ran [n]int32
	errs, err := Pool{}.Map(context.Background(), n, func(ctx context.Context, i int) error {
		atomic.AddInt32(&ran[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != n {
		t.Fatalf("%d error slots", len(errs))
	}
	for i := range ran {
		if ran[i] != 1 {
			t.Fatalf("job %d ran %d times", i, ran[i])
		}
		if errs[i] != nil {
			t.Fatalf("job %d unexpected error %v", i, errs[i])
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	errs, err := Pool{}.Map(context.Background(), 0, func(ctx context.Context, i int) error {
		t.Error("job ran")
		return nil
	})
	if err != nil || len(errs) != 0 {
		t.Fatalf("errs=%v err=%v", errs, err)
	}
}

func TestMapErrorsPerIndex(t *testing.T) {
	boom := errors.New("boom")
	errs, err := Pool{}.Map(context.Background(), 10, func(ctx context.Context, i int) error {
		if i%3 == 0 {
			return fmt.Errorf("job %d: %w", i, boom)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Collect policy returned engine error %v", err)
	}
	for i, e := range errs {
		if i%3 == 0 && !errors.Is(e, boom) {
			t.Fatalf("job %d error %v", i, e)
		}
		if i%3 != 0 && e != nil {
			t.Fatalf("job %d unexpected error %v", i, e)
		}
	}
}

// TestMapCancel checks prompt cancellation: workers blocked in jobs that
// honor ctx return, and every unstarted job is marked with ctx.Err().
func TestMapCancel(t *testing.T) {
	const n = 50
	ctx, cancel := context.WithCancel(context.Background())
	var entered int32
	p := Pool{Workers: 4}
	start := time.Now()
	errs, err := p.Map(ctx, n, func(ctx context.Context, i int) error {
		if atomic.AddInt32(&entered, 1) == 4 {
			cancel() // all workers busy: the rest of the queue must be abandoned
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("engine error %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not return promptly")
	}
	var unstarted int
	for _, e := range errs {
		if e == nil {
			t.Fatal("job reported success under cancellation")
		}
		if errors.Is(e, context.Canceled) {
			unstarted++
		}
	}
	if unstarted < n-8 { // at most one in-flight job per worker plus the four runners
		t.Fatalf("only %d/%d jobs carry ctx.Err()", unstarted, n)
	}
}

// TestMapPanicIsolation checks that a panic in one job fails only that
// job's slot.
func TestMapPanicIsolation(t *testing.T) {
	errs, err := Pool{}.Map(context.Background(), 8, func(ctx context.Context, i int) error {
		if i == 3 {
			panic("kaboom")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("engine error %v", err)
	}
	for i, e := range errs {
		if i == 3 {
			if e == nil || !strings.Contains(e.Error(), "kaboom") {
				t.Fatalf("panicking job error = %v", e)
			}
			continue
		}
		if e != nil {
			t.Fatalf("job %d poisoned by sibling panic: %v", i, e)
		}
	}
}

// TestMapFailFast checks the FailFast policy on one worker, where skipping
// is deterministic: everything after the failing job is abandoned.
func TestMapFailFast(t *testing.T) {
	boom := errors.New("boom")
	p := Pool{Workers: 1, Policy: FailFast}
	errs, err := p.Map(context.Background(), 10, func(ctx context.Context, i int) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("engine error %v", err)
	}
	for i, e := range errs {
		switch {
		case i < 2 && e != nil:
			t.Fatalf("job %d failed: %v", i, e)
		case i == 2 && !errors.Is(e, boom):
			t.Fatalf("trigger slot holds %v", e)
		case i > 2 && !errors.Is(e, ErrSkipped):
			t.Fatalf("job %d after the trip holds %v, want ErrSkipped", i, e)
		}
	}
}

// TestMapFailFastRace hammers the FailFast trip from many workers at once;
// under -race this is the engine's data-race gate (scripts/ci.sh).
func TestMapFailFastRace(t *testing.T) {
	const n = 200
	p := Pool{Workers: 16, Policy: FailFast}
	var failures int32
	errs, err := p.Map(context.Background(), n, func(ctx context.Context, i int) error {
		atomic.AddInt32(&failures, 1)
		return fmt.Errorf("job %d failed", i)
	})
	if err == nil {
		t.Fatal("no engine error despite failures")
	}
	for i, e := range errs {
		if e == nil {
			t.Fatalf("job %d reported success", i)
		}
	}
}

// TestMapWorkerBound verifies the pool really is bounded.
func TestMapWorkerBound(t *testing.T) {
	const workers = 3
	var cur, peak int32
	var mu sync.Mutex
	p := Pool{Workers: workers}
	if _, err := p.Map(context.Background(), 30, func(ctx context.Context, i int) error {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent jobs with %d workers", peak, workers)
	}
}

// TestMapPreCanceled checks that a context canceled before Map is called
// runs nothing and marks every slot.
func TestMapPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs, err := Pool{}.Map(ctx, 5, func(ctx context.Context, i int) error {
		t.Error("job ran under pre-canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("engine error %v", err)
	}
	for i, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("job %d error %v", i, e)
		}
	}
}

// TestMapMetrics pins the pool's telemetry contract: per-job counters,
// queue-wait and job-duration histograms, and the busy-time counter all
// land in the pool's registry.
func TestMapMetrics(t *testing.T) {
	r := obs.NewRegistry()
	boom := errors.New("boom")
	p := Pool{Workers: 2, Metrics: r}
	_, err := p.Map(context.Background(), 6, func(_ context.Context, i int) error {
		switch i {
		case 3:
			return boom
		case 4:
			panic("kaboom")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Collect policy returned engine error: %v", err)
	}
	s := r.Snapshot()
	for name, want := range map[string]int64{
		"exec_jobs_started":   6,
		"exec_jobs_completed": 6,
		"exec_jobs_failed":    2, // the error and the panic
		"exec_jobs_panicked":  1,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h, ok := s.HistogramByName("exec_job_ns"); !ok || h.Count != 6 {
		t.Errorf("exec_job_ns count = %+v, want 6 observations", h)
	}
	if h, ok := s.HistogramByName("exec_queue_wait_ns"); !ok || h.Count != 6 {
		t.Errorf("exec_queue_wait_ns count = %+v, want 6 observations", h)
	}
	// Busy time is conserved: the counter and the histogram record the
	// same duration per job.
	if h, _ := s.HistogramByName("exec_job_ns"); s.Counters["exec_busy_ns"] != h.Sum || h.Sum <= 0 {
		t.Errorf("exec_busy_ns = %d, want the exec_job_ns sum %d > 0", s.Counters["exec_busy_ns"], h.Sum)
	}
}
