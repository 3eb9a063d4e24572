package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/uarch"
)

// gridJob is point i of a crf x refs grid on w, crf-major.
func gridJob(w Workload, crfs, refs []int, i int) Job {
	opt := codec.Defaults()
	opt.CRF = crfs[i/len(refs)]
	opt.Refs = refs[i%len(refs)]
	return Job{Workload: w, Options: opt, Config: uarch.Baseline()}
}

// gridPlan is the Plan of that grid.
func gridPlan(w Workload, crfs, refs []int, opts SweepOpts) Plan {
	return Plan{
		N: len(crfs) * len(refs),
		Build: func(i int) (Job, Point, error) {
			job := gridJob(w, crfs, refs, i)
			return job, Point{Video: w.Video, CRF: job.Options.CRF, Refs: job.Options.Refs}, nil
		},
		Opts: opts,
	}
}

// canonicalOf resolves a job's canonical job on eng, as a sweep point does.
func canonicalOf(t *testing.T, eng *Engine, job Job) Job {
	t.Helper()
	in, err := eng.prepare(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	return in.canonical()
}

func sharedPoints() int64 { return obs.Default().Counter("core_sweep_points_shared").Load() }

// TestSweepSharedPointsMatchRuns: a grid whose refs run past what the clip
// can reach runs each canonical job once, every other point carries that
// run's Report and Stats pointers, and each point's Report and Stats are
// DeepEqual to a standalone Run of the point's own, unclamped job.
func TestSweepSharedPointsMatchRuns(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(DefaultCacheBudget)
	w := tinyWorkload("cricket")
	crfs, refs := []int{30, 40}, []int{1, 2, 4, 8, 16}
	n := len(crfs) * len(refs)
	distinct := make(map[Job]bool)
	for i := 0; i < n; i++ {
		distinct[canonicalOf(t, eng, gridJob(w, crfs, refs, i))] = true
	}
	if len(distinct) == n {
		t.Fatal("no two points share a canonical job; the grid shares nothing")
	}

	before := sharedPoints()
	pts := eng.Sweep(ctx, gridPlan(w, crfs, refs, SweepOpts{}))
	if got := sharedPoints() - before; got != int64(n-len(distinct)) {
		t.Errorf("core_sweep_points_shared went up by %d, want %d", got, n-len(distinct))
	}

	standalone := NewEngine(DefaultCacheBudget)
	ran := make(map[*perf.Report]Job)
	for i, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %d: %v", i, p.Err)
		}
		job := gridJob(w, crfs, refs, i)
		want, err := standalone.Run(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Report, want.Report) || !reflect.DeepEqual(p.Stats, want.Stats) {
			t.Errorf("point %d (crf %d refs %d) differs from a standalone run of its job", i, p.CRF, p.Refs)
		}
		c := canonicalOf(t, eng, job)
		if prev, ok := ran[p.Report]; ok && prev != c {
			t.Errorf("point %d shares a report with a point of another canonical job", i)
		}
		ran[p.Report] = c
	}
	if len(ran) != len(distinct) {
		t.Errorf("%d distinct reports for %d canonical jobs: a job ran more than once", len(ran), len(distinct))
	}
}

// TestSweepSharingKeepsInvalidRefsApart: refs out of range clamp to
// nothing, so such a point fails with its own error and never takes, or
// gives, a valid point's result.
func TestSweepSharingKeepsInvalidRefsApart(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(DefaultCacheBudget)
	w := tinyWorkload("cricket")
	// Build the title's analysis with a valid job first: its key ignores
	// refs, so the invalid point must find it built, not build it.
	if _, err := eng.Run(ctx, gridJob(w, []int{30}, []int{1}, 0)); err != nil {
		t.Fatal(err)
	}
	for _, refs := range [][]int{{2, 17}, {17, 2}} {
		pts := eng.Sweep(ctx, gridPlan(w, []int{30}, refs, SweepOpts{}))
		for _, p := range pts {
			switch p.Refs {
			case 2:
				if p.Err != nil || p.Report == nil {
					t.Errorf("refs %v: valid point failed: %v", refs, p.Err)
				}
			case 17:
				if p.Err == nil || !strings.Contains(p.Err.Error(), "refs 17 out of range") || p.Report != nil {
					t.Errorf("refs %v: refs 17 point carries err %v, report %v", refs, p.Err, p.Report != nil)
				}
			}
		}
	}
}

// TestSweepCancelSharedPoints is TestSweepCancel on a grid where most
// points share a run. Progress reports a sharing point only when the run
// it waits on finishes, so the cancel from the first progress call lands
// after the first run. Refs run high to low, so the points the pool starts
// first share one canonical job and, with two or more workers, some point
// shares a run before the cancel. Every point ends with a Report or
// context.Canceled, and a point that shares a run carries exactly that
// run's outcome: points of one canonical job hold one Report pointer.
func TestSweepCancelSharedPoints(t *testing.T) {
	eng := NewEngine(DefaultCacheBudget)
	w := tinyWorkload("cricket")
	crfs, refs := []int{10, 20, 30, 40}, []int{16, 8, 4, 2, 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls int32
	opts := SweepOpts{Progress: func(done, total int) {
		if atomic.AddInt32(&calls, 1) == 1 {
			cancel()
		}
	}}
	before := sharedPoints()
	pts := eng.Sweep(ctx, gridPlan(w, crfs, refs, opts))
	shared := sharedPoints() - before

	if len(pts) != len(crfs)*len(refs) {
		t.Fatalf("%d points", len(pts))
	}
	var finished, canceled int
	reportOf := make(map[Job]*perf.Report)
	holders := make(map[*perf.Report]int)
	for i, p := range pts {
		switch {
		case p.Err == nil && p.Report != nil:
			finished++
		case errors.Is(p.Err, context.Canceled) && p.Report == nil && p.Stats == nil:
			canceled++
			continue
		default:
			t.Fatalf("point %d: err %v, report %v", i, p.Err, p.Report != nil)
		}
		c := canonicalOf(t, eng, gridJob(w, crfs, refs, i))
		if r, ok := reportOf[c]; ok && r != p.Report {
			t.Errorf("point %d: two runs of one canonical job in one sweep", i)
		}
		reportOf[c] = p.Report
		holders[p.Report]++
	}
	if finished == 0 {
		t.Fatal("no point finished before cancellation")
	}
	if canceled == 0 {
		t.Fatal("no point carries ctx.Err() after cancellation")
	}
	var carried int64
	for _, n := range holders {
		carried += int64(n - 1)
	}
	if shared == 0 && runtime.GOMAXPROCS(0) >= 2 {
		t.Error("no point shared a run before the cancel")
	}
	if shared < carried {
		t.Errorf("%d points carry another point's report, but only %d were counted shared", carried, shared)
	}
}
