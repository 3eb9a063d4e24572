//go:build !race

// The race detector's runtime is not the heap the charges describe, and it
// would make these few thousand encodes take minutes.

package serve

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestRetentionChargesMatchHeap keeps jobRecordBytes and partRecordBytes
// true: with the window unbounded, the heap freed by clearing Server.jobs
// and the window is, per plain job and per ladder part (its bitstream
// aside), within ±10 % of the constant the window charges for it.
func TestRetentionChargesMatchHeap(t *testing.T) {
	const (
		plainJobs = 1000
		ladders   = 160 // two segments x three rungs: six parts each
		batch     = 40  // 240 queued parts, under the queue's 256
	)
	measure := func(t *testing.T, n int, req JobRequest) (freed float64, parts, streamBytes int64) {
		s := newRetainServer(t, 1<<62, Config{})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.Start(ctx)
		defer s.Stop()
		for done := 0; done < n; done += batch {
			for range batch {
				v, err := s.Submit(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				parts += int64(len(v.Parts))
			}
			waitUntil(t, 5*time.Minute, "batch settled", func() bool {
				tot := s.Totals()
				return tot.Submitted == tot.Completed+tot.Failed+tot.Canceled
			})
		}
		if tot := s.Totals(); tot.Completed != int64(n) {
			t.Fatalf("totals %+v, want %d completed", tot, n)
		}
		s.jobsMu.Lock()
		for _, r := range s.window {
			for _, p := range r.rec.parts {
				p.mu.Lock()
				streamBytes += int64(len(p.stream))
				p.mu.Unlock()
			}
		}
		s.jobsMu.Unlock()

		held := heapAfterGC()
		s.jobsMu.Lock()
		s.jobs, s.window, s.windowBytes = make(map[string]*record), nil, 0
		s.jobsMu.Unlock()
		return float64(held) - float64(heapAfterGC()), parts, streamBytes
	}
	within := func(t *testing.T, what string, got float64, want int) {
		t.Logf("%s: %.0f B freed, charged %d B", what, got, want)
		if got < 0.9*float64(want) || got > 1.1*float64(want) {
			t.Errorf("%s: %.0f B freed, but the window charges %d B", what, got, want)
		}
	}

	t.Run("plain", func(t *testing.T) {
		freed, _, _ := measure(t, plainJobs, JobRequest{Video: "cat", CRF: 40, Refs: 1, Preset: "ultrafast"})
		within(t, "per plain job", freed/plainJobs, jobRecordBytes)
	})
	t.Run("ladder", func(t *testing.T) {
		freed, parts, streams := measure(t, ladders, JobRequest{
			Video: "cat", CRF: 40, Refs: 1, Preset: "ultrafast", Segments: 2,
			Ladder: []Rung{{Name: "hi"}, {Name: "mid", CRF: 44}, {Name: "lo", CRF: 48}},
		})
		if parts != 6*ladders {
			t.Fatalf("%d parts for %d ladders", parts, ladders)
		}
		within(t, "per ladder part", (freed-float64(streams)-ladders*jobRecordBytes)/float64(parts), partRecordBytes)
	})
}

// heapAfterGC is the live heap after two collections.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
