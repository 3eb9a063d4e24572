package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/uarch"
)

// TestSweepCancel is the execution-layer contract at the sweep level:
// canceling the context mid-sweep returns promptly, finished points keep
// their results, and points that never started carry ctx.Err(). It is also
// the fast -race gate in scripts/ci.sh.
func TestSweepCancel(t *testing.T) {
	w := tinyWorkload("cricket")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel from inside the progress callback after the first completed
	// point, so the cut lands mid-sweep deterministically.
	var calls int32
	opts := SweepOpts{Progress: func(done, total int) {
		if atomic.AddInt32(&calls, 1) == 1 {
			cancel()
		}
	}}
	start := time.Now()
	pts := SweepCRFRefsWith(ctx, w, codec.Defaults(), uarch.Baseline(),
		[]int{10, 20, 30, 40}, []int{1, 2, 3, 4}, opts)
	elapsed := time.Since(start)

	if len(pts) != 16 {
		t.Fatalf("%d points", len(pts))
	}
	var finished, canceled int
	for _, p := range pts {
		switch {
		case p.Err == nil && p.Report != nil:
			finished++
		case errors.Is(p.Err, context.Canceled):
			canceled++
		case p.Err != nil:
			t.Fatalf("unexpected point error: %v", p.Err)
		default:
			t.Fatal("point with neither result nor error")
		}
	}
	if finished == 0 {
		t.Fatal("no point finished before cancellation")
	}
	if canceled == 0 {
		t.Fatal("no point carries ctx.Err() after cancellation")
	}
	if err := Points(pts).FirstErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("FirstErr = %v", err)
	}
	// Generous bound: "promptly" means within one in-flight tiny job per
	// worker, not the 12+ remaining grid points.
	if elapsed > 2*time.Minute {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestSweepPreCanceled checks that a sweep under an already-canceled
// context runs nothing and marks every point.
func TestSweepPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := SweepCRFRefs(ctx, tinyWorkload("cricket"), codec.Defaults(), uarch.Baseline(),
		[]int{20, 30}, []int{1, 2})
	if err := pts.FirstErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("FirstErr = %v", err)
	}
	for _, p := range pts {
		if p.Report != nil {
			t.Fatal("point ran under pre-canceled context")
		}
	}
}

// TestSweepPresetsBuildError pins the build-error fix: a preset that fails
// to apply must fail only its own point with the original error — the old
// runner executed the zero Job and clobbered the error with a bogus
// unknown-video one.
func TestSweepPresetsBuildError(t *testing.T) {
	w := tinyWorkload("cat")
	pts := SweepPresets(context.Background(), w, uarch.Baseline(),
		[]codec.Preset{codec.PresetUltrafast, "nosuchpreset"}, 23, 3)
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Err != nil {
		t.Fatalf("valid preset failed: %v", pts[0].Err)
	}
	if pts[0].Report == nil {
		t.Fatal("valid preset missing report")
	}
	bad := pts[1]
	if bad.Err == nil {
		t.Fatal("invalid preset did not fail")
	}
	if bad.Report != nil {
		t.Fatal("failed build still produced a report: the zero Job ran")
	}
	if !strings.Contains(bad.Err.Error(), "nosuchpreset") {
		t.Fatalf("build error %q lost the original cause", bad.Err)
	}
	// Coordinates survive on the failed point so CSVs and logs can name it.
	if bad.Preset != "nosuchpreset" || bad.Video != w.Video {
		t.Fatalf("failed point lost its coordinates: %+v", bad)
	}
	if failed := pts.Failed(); len(failed) != 1 || failed[0].Preset != "nosuchpreset" {
		t.Fatalf("Failed() = %+v", failed)
	}
}

// TestSweepProgressCounts checks the progress contract end to end through
// core.Sweep: one serialized call per point, ending at (n, n).
func TestSweepProgressCounts(t *testing.T) {
	var calls []int
	opts := SweepOpts{Progress: func(done, total int) {
		if total != 4 {
			t.Errorf("total = %d", total)
		}
		calls = append(calls, done)
	}}
	pts := SweepCRFRefsWith(context.Background(), tinyWorkload("cat"), codec.Defaults(),
		uarch.Baseline(), []int{20, 35}, []int{1, 2}, opts)
	if err := pts.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 {
		t.Fatalf("%d progress calls for 4 points", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress call %d reported done=%d", i, d)
		}
	}
}

// TestFlightCacheCancelDetach checks the cancellation contract of the
// singleflight layer: a canceled waiter detaches with ctx.Err() while the
// build keeps running and lands in the cache, so later callers get the
// real value — the cache is never poisoned by a canceled context.
func TestFlightCacheCancelDetach(t *testing.T) {
	c := flightCache[string, int]{name: "test", size: func(int) int64 { return 1 }, lru: &budget{limit: 1 << 20}}
	building := make(chan struct{})
	release := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-building
		cancel()
	}()
	_, err := c.get(ctx, "k", func() (int, error) {
		close(building)
		<-release
		return 42, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v", err)
	}

	close(release) // let the detached build finish
	v, err := c.get(context.Background(), "k", func() (int, error) {
		t.Error("build ran twice")
		return 0, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("post-cancel get = %d, %v; cache was poisoned", v, err)
	}
}

// TestSweepReturnsOnePointPerPlannedJob pins Sweep's contract on the paths
// that fail: a bad title fails only its own point, with its own error, and
// a canceled sweep still returns every planned point with its coordinates.
func TestSweepReturnsOnePointPerPlannedJob(t *testing.T) {
	t.Run("unknown video", func(t *testing.T) {
		videos := []string{"desktop", "nosuchvideo", "holi"}
		pts := SweepVideos(context.Background(), videos, 4, 8, codec.Defaults(), uarch.Baseline())
		if len(pts) != len(videos) {
			t.Fatalf("%d points for %d planned jobs: %+v", len(pts), len(videos), pts)
		}
		for i, p := range pts {
			if p.Video != videos[i] {
				t.Fatalf("point %d is video %q, planned %q", i, p.Video, videos[i])
			}
			if p.CRF != codec.Defaults().CRF || p.Refs != codec.Defaults().Refs {
				t.Errorf("point %d lost its coordinates: crf %d refs %d", i, p.CRF, p.Refs)
			}
		}
		for _, i := range []int{0, 2} {
			if pts[i].Err != nil || pts[i].Report == nil {
				t.Errorf("point %d (%s) did not run: err %v", i, videos[i], pts[i].Err)
			}
		}
		if err := pts[1].Err; err == nil || !strings.Contains(err.Error(), `vbench: unknown video "nosuchvideo"`) {
			t.Errorf("bad video's point carries %v, want its unknown-video error", err)
		}
		if pts[1].Report != nil {
			t.Error("bad video's point has a report")
		}
	})

	t.Run("pre-canceled grid", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		crfs, refs := []int{20, 30}, []int{1, 2}
		pts := SweepCRFRefs(ctx, tinyWorkload("cricket"), codec.Defaults(), uarch.Baseline(), crfs, refs)
		if len(pts) != len(crfs)*len(refs) {
			t.Fatalf("%d points for %d planned jobs: %+v", len(pts), len(crfs)*len(refs), pts)
		}
		for i, p := range pts {
			if p.Video != "cricket" || p.CRF != crfs[i/len(refs)] || p.Refs != refs[i%len(refs)] {
				t.Errorf("point %d has coordinates %s crf %d refs %d", i, p.Video, p.CRF, p.Refs)
			}
			if !errors.Is(p.Err, context.Canceled) || p.Report != nil {
				t.Errorf("point %d: err %v, report %v; want context.Canceled and no report", i, p.Err, p.Report != nil)
			}
		}
	})
}
