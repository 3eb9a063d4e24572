package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/uarch"
)

// waitParent submits a multi-part request and blocks until the parent
// settles, returning the final parent view.
func waitParent(t *testing.T, s *Server, req JobRequest) JobView {
	t.Helper()
	v, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := s.WaitJob(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// TestSegmentedJobGraph is the serving-layer half of the tentpole: a
// segmented submission expands into independently placed part jobs that
// all execute and settle back into one parent record.
func TestSegmentedJobGraph(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		Servers: sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 2),
		Proto:   core.Workload{Frames: 4, Scale: 16},
		Seed:    11,
		Metrics: reg,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	final := waitParent(t, s, JobRequest{Video: "desktop", Segments: 2})
	if final.State != StateDone {
		t.Fatalf("parent state %s (error %q), want done", final.State, final.Error)
	}
	if final.PartsTotal != 2 || final.PartsDone != 2 || len(final.Parts) != 2 {
		t.Fatalf("parent parts = %d total / %d done (%v), want 2/2", final.PartsTotal, final.PartsDone, final.Parts)
	}
	var sum float64
	for i, id := range final.Parts {
		pv, ok := s.Job(id)
		if !ok {
			t.Fatalf("part %s not visible", id)
		}
		if pv.State != StateDone || pv.Parent != final.ID {
			t.Fatalf("part %s: state %s parent %q", id, pv.State, pv.Parent)
		}
		if pv.Segment == nil || pv.Segment.Len() != 2 || pv.Segment.Start != 2*i {
			t.Fatalf("part %s segment = %v, want [%d,%d)", id, pv.Segment, 2*i, 2*i+2)
		}
		sum += pv.SimSeconds
	}
	if final.SimSeconds != sum {
		t.Fatalf("parent seconds %f != part sum %f", final.SimSeconds, sum)
	}
	tot := s.Totals()
	if tot.Submitted != 1 || tot.Completed != 1 {
		t.Fatalf("totals count parts as jobs: %+v", tot)
	}
	snap := reg.Snapshot()
	if got := snap.CounterTotal("serve_parts_submitted"); got != 2 {
		t.Fatalf("serve_parts_submitted = %d, want 2", got)
	}
	if got := snap.CounterTotal("serve_parts_completed"); got != 2 {
		t.Fatalf("serve_parts_completed = %d, want 2", got)
	}
	for _, h := range []string{"serve_fanout_ns", "serve_stitch_ns"} {
		if hs, ok := snap.HistogramByName(h); !ok || hs.Count != 1 {
			t.Fatalf("%s count = %+v, want one observation", h, hs)
		}
	}
}

// ladderSharedAnalysisRuns counts TestLadderSharedAnalysis invocations, so
// that each (go test -count=N repeats it) gets a title of its own.
var ladderSharedAnalysisRuns atomic.Uint64

// TestLadderSharedAnalysis pins the N-1 cache-hit contract: every rung of
// an ABR ladder reuses the one shared codec.Analysis artifact of its
// (video, segment), so N rungs cost exactly one analysis build plus N-1
// cache hits. The workload carries a content seed no other test or earlier
// invocation used, so the process-wide core caches are cold for it at entry.
func TestLadderSharedAnalysis(t *testing.T) {
	hitKey := obs.Key("core_cache_hits", "cache", "analysis")
	missKey := obs.Key("core_cache_misses", "cache", "analysis")
	before := obs.Default().Snapshot()

	s := newTestServer(t, Config{
		Servers: sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 1),
		Proto:   core.Workload{Frames: 4, Scale: 16, Seed: 0xAB120000 + ladderSharedAnalysisRuns.Add(1)},
		Seed:    7,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	ladder := []Rung{
		{Name: "1080p", CRF: 23},
		{Name: "720p", CRF: 33},
		{Name: "360p", CRF: 43, Refs: 1},
	}
	final := waitParent(t, s, JobRequest{Video: "cricket", Ladder: ladder})
	if final.State != StateDone || final.PartsDone != 3 {
		t.Fatalf("ladder parent: state %s, %d parts done (error %q)", final.State, final.PartsDone, final.Error)
	}
	for i, id := range final.Parts {
		pv, _ := s.Job(id)
		if pv.Rung != ladder[i].Name {
			t.Fatalf("part %s rung %q, want %q", id, pv.Rung, ladder[i].Name)
		}
		if pv.Segment != nil {
			t.Fatalf("unsegmented ladder part %s carries segment %v", id, pv.Segment)
		}
	}

	after := obs.Default().Snapshot()
	hits := after.Counters[hitKey] - before.Counters[hitKey]
	misses := after.Counters[missKey] - before.Counters[missKey]
	if misses != 1 || hits != int64(len(ladder)-1) {
		t.Fatalf("analysis cache: %d misses / %d hits across %d rungs, want 1 / %d",
			misses, hits, len(ladder), len(ladder)-1)
	}
}

// TestLadderTimesSegments checks the rung x segment cross product: 2 rungs
// over 2 segments is 4 parts, every (rung, segment) pair present.
func TestLadderTimesSegments(t *testing.T) {
	s := newTestServer(t, Config{
		Servers: sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 2),
		Proto:   core.Workload{Frames: 4, Scale: 16},
		Seed:    13,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	final := waitParent(t, s, JobRequest{
		Video: "desktop", Segments: 2,
		Ladder: []Rung{{Name: "hi", CRF: 23}, {Name: "lo", CRF: 43}},
	})
	if final.State != StateDone || final.PartsTotal != 4 || final.PartsDone != 4 {
		t.Fatalf("parent: state %s, parts %d/%d (error %q)",
			final.State, final.PartsDone, final.PartsTotal, final.Error)
	}
	seen := map[string]bool{}
	for _, id := range final.Parts {
		pv, _ := s.Job(id)
		if pv.Segment == nil {
			t.Fatalf("part %s has no segment", id)
		}
		seen[pv.Rung+pv.Segment.String()] = true
	}
	for _, rung := range []string{"hi", "lo"} {
		for _, seg := range []string{"[0,2)", "[2,4)"} {
			if !seen[rung+seg] {
				t.Fatalf("missing part %s %s in %v", rung, seg, seen)
			}
		}
	}
}

// TestMultiSubmitAtomic pins all-or-nothing admission: when the queue
// cannot hold every part, the whole submission is rejected and nothing is
// registered or left queued.
func TestMultiSubmitAtomic(t *testing.T) {
	s := newTestServer(t, Config{
		Servers:    sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 1),
		QueueDepth: 2,
	})
	// Not started: admission only.
	_, err := s.Submit(context.Background(), JobRequest{Video: "desktop", Segments: 4})
	if !errors.Is(err, queue.ErrFull) {
		t.Fatalf("overflowing multi submit returned %v, want queue full", err)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("rejected submit left %d parts queued", got)
	}
	tot := s.Totals()
	if tot.Submitted != 0 || tot.Rejected != 1 {
		t.Fatalf("totals after rejection: %+v", tot)
	}
	if _, ok := s.Job("job-1"); ok {
		t.Fatal("rejected parent is visible")
	}

	// Caps reject before touching the queue.
	if _, err := s.Submit(context.Background(), JobRequest{Video: "desktop", Segments: maxSegments + 1}); err == nil {
		t.Fatal("want error for segments above cap")
	}
	if _, err := s.Submit(context.Background(), JobRequest{
		Video: "desktop", Ladder: make([]Rung, maxLadderRungs+1),
	}); err == nil {
		t.Fatal("want error for oversized ladder")
	}
	if _, err := s.Submit(context.Background(), JobRequest{
		Video: "desktop", Ladder: []Rung{{CRF: 99}},
	}); err == nil {
		t.Fatal("want error for invalid rung crf")
	}
}

// TestMultiSubmitCancel checks client withdrawal: canceling the submit
// context while parts are queued cancels every part and the parent.
func TestMultiSubmitCancel(t *testing.T) {
	s := newTestServer(t, Config{
		Servers: sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 1),
	})
	// Not started: parts stay queued until withdrawn.
	ctx, cancel := context.WithCancel(context.Background())
	v, err := s.Submit(ctx, JobRequest{Video: "desktop", Segments: 3})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	final, err := s.WaitJob(wctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("parent state %s, want canceled", final.State)
	}
	if got := s.Totals().Canceled; got != 1 {
		t.Fatalf("totals canceled %d, want 1 (parts must not count)", got)
	}
}

// TestPlaceUtilBias is the utilization-aware placement unit test: with two
// free slots of identical configuration, the dispatcher routes a warm job
// to the idler one.
func TestPlaceUtilBias(t *testing.T) {
	s := newTestServer(t, Config{
		Servers: sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 2),
	})
	rep := &perf.Report{Config: "baseline", Seconds: 1,
		Topdown: perf.Topdown{FrontEnd: 40, BadSpec: 2, MemBound: 5, CoreBound: 3, BackEnd: 8}}
	s.learn("desktop", rep)
	rec := &record{seq: 1, task: sched.Task{Video: "desktop"}}

	base := sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 1)[0]
	free := []slot{
		{id: "w-a", label: "w-a", spec: base, util: 90},
		{id: "w-b", label: "w-b", spec: base, util: 10},
	}
	got := s.place([]*record{rec}, free)
	if got[0].mode != "smart" || got[0].slot != 1 {
		t.Fatalf("placement %+v, want smart on idler slot 1", got[0])
	}
	// Swapped load swaps the choice.
	free[0].util, free[1].util = 10, 90
	got = s.place([]*record{rec}, free)
	if got[0].slot != 0 {
		t.Fatalf("placement %+v, want idler slot 0", got[0])
	}
}
