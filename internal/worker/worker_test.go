package worker

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/uarch"
)

var tinyProto = core.Workload{Frames: 4, Scale: 16}

// startFleet brings up an orchestrator in fleet mode behind a listener.
func startFleet(t *testing.T, ttl time.Duration, reg *obs.Registry) (*serve.Server, *httptest.Server, context.CancelFunc) {
	t.Helper()
	s, err := serve.New(serve.Config{
		Proto: tinyProto, Seed: 1, Metrics: reg,
		Fleet: &serve.FleetOptions{LeaseTTL: ttl, PollWait: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	return s, ts, cancel
}

// startWorker runs one real worker until its cancel func is called.
func startWorker(t *testing.T, url, id string, cfg uarch.Config, opts Options) (context.CancelFunc, chan struct{}) {
	t.Helper()
	opts.Orchestrator = url
	opts.ID = id
	opts.Config = cfg
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 50 * time.Millisecond
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	w, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	return cancel, done
}

// TestWorkerEndToEnd: two real workers on different configurations join an
// orchestrator, a stream of jobs is submitted over the job API, and every
// job settles done with a worker id as its server. Jobs that run on the
// baseline worker must warm the cost model (smart placements appear).
func TestWorkerEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts, cancel := startFleet(t, 5*time.Second, reg)
	base, _ := uarch.ByName("baseline")
	fe, _ := uarch.ByName("fe_op")
	stop1, done1 := startWorker(t, ts.URL, "w-base", base, Options{})
	stop2, done2 := startWorker(t, ts.URL, "w-fe", fe, Options{})
	defer func() {
		cancel()
		s.Stop()
		stop1()
		stop2()
		<-done1
		<-done2
		ts.Close()
	}()

	ctx := context.Background()
	var ids []string
	for i := 0; i < 6; i++ {
		view, err := s.Submit(ctx, serve.JobRequest{Video: "bbb"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}
	workers := map[string]bool{}
	for _, id := range ids {
		wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
		final, err := s.WaitJob(wctx, id)
		wcancel()
		if err != nil {
			t.Fatal(err)
		}
		if final.State != serve.StateDone {
			t.Fatalf("job %s: %s (%s)", id, final.State, final.Error)
		}
		if final.Server != "w-base" && final.Server != "w-fe" {
			t.Fatalf("job %s ran on %q, want a worker id", id, final.Server)
		}
		workers[final.Server] = true
	}
	if tot := s.Totals(); tot.Completed != 6 {
		t.Fatalf("totals %+v, want 6 completions", tot)
	}
	// All jobs are the same video and the first completion on w-base warms
	// the model, so at least one later placement must be smart.
	snap := reg.Snapshot()
	if smart := snap.CounterTotal(obs.Key("serve_placements", "mode", "smart")); smart == 0 {
		t.Fatalf("no smart placements after baseline warm-up; placements: %v", snap.Counters)
	}
}

// TestWorkerCrashMidJobReassigns is the tentpole's acceptance scenario in
// miniature: a worker dies mid-job without a goodbye; the lease expires
// and the job finishes on the surviving worker, settled exactly once.
func TestWorkerCrashMidJobReassigns(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts, cancel := startFleet(t, 300*time.Millisecond, reg)
	base, _ := uarch.ByName("baseline")
	// The doomed worker pads jobs to 10s, so the crash always lands mid-job.
	stopDoomed, doomedDone := startWorker(t, ts.URL, "w-doomed", base, Options{MinJobTime: 10 * time.Second})
	defer func() {
		cancel()
		s.Stop()
		ts.Close()
	}()

	ctx := context.Background()
	view, err := s.Submit(ctx, serve.JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the doomed worker actually holds the job, then "crash" it
	// (cancel kills heartbeats and the job; nothing is reported — the
	// closest in-process stand-in for kill -9).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := s.Job(view.ID); ok && v.State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started on the doomed worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopDoomed()
	<-doomedDone

	// The survivor joins after the crash and inherits the job.
	stopLive, liveDone := startWorker(t, ts.URL, "w-live", base, Options{})
	defer func() {
		stopLive()
		<-liveDone
	}()
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	final, err := s.WaitJob(wctx, view.ID)
	wcancel()
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone || final.Server != "w-live" || final.Attempts != 2 {
		t.Fatalf("final %+v, want done on w-live after 2 attempts", final)
	}
	if tot := s.Totals(); tot.Completed != 1 || tot.Failed != 0 {
		t.Fatalf("totals %+v, want exactly one completion", tot)
	}
	snap := reg.Snapshot()
	if snap.CounterTotal("fleet_lease_reassigned") == 0 {
		t.Fatal("no lease reassignment recorded")
	}
}

// TestAccelWorkerRejectsOutsideSurface pins the accelerator-surface check in
// serve.Execute: an accel worker handed options it cannot run posts a
// result error and the job fails instead of hanging. Placement never makes
// that assignment, so the test misregisters the worker — a proxy rewrites
// its advertised backend to software on the way in.
func TestAccelWorkerRejectsOutsideSurface(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts, cancel := startFleet(t, 5*time.Second, reg)
	h := s.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		body = bytes.ReplaceAll(body, []byte(`"backend":"accel"`), []byte(`"backend":"software"`))
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		h.ServeHTTP(w, r)
	}))
	stop, done := startWorker(t, proxy.URL, "w-accel", uarch.Baseline(), Options{Backend: backend.Accel})
	defer func() {
		cancel()
		s.Stop()
		stop()
		<-done
		proxy.Close()
		ts.Close()
	}()

	// Eight reference frames is outside the accelerator's surface (<= 4).
	view, err := s.Submit(context.Background(), serve.JobRequest{Video: "bbb", Refs: 8})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	final, err := s.WaitJob(wctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateFailed || !strings.Contains(final.Error, "outside the accelerator") {
		t.Fatalf("job ended %s (%q), want failed outside the accelerator's surface", final.State, final.Error)
	}
}

// TestWorkerLeaseAbortStopsWastedWork: when a worker's lease is
// invalidated (here: expired while the job drags on), the next heartbeat
// reply makes the worker abandon the job instead of finishing it.
func TestWorkerLeaseAbortStopsWastedWork(t *testing.T) {
	wreg := obs.NewRegistry()
	reg := obs.NewRegistry()
	s, ts, cancel := startFleet(t, 200*time.Millisecond, reg)
	base, _ := uarch.ByName("baseline")
	// Heartbeat slower than the TTL: the lease always expires mid-job, and
	// the next heartbeat learns it.
	stop, done := startWorker(t, ts.URL, "w-slow", base, Options{
		Heartbeat:  500 * time.Millisecond,
		MinJobTime: 30 * time.Second,
		Metrics:    wreg,
	})
	defer func() {
		cancel()
		s.Stop()
		stop()
		<-done
		ts.Close()
	}()

	if _, err := s.Submit(context.Background(), serve.JobRequest{Video: "bbb"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for wreg.Snapshot().CounterTotal("worker_lease_aborts") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never aborted its invalidated lease")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
