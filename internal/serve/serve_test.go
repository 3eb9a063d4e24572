package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/uarch"
)

// tinyProto keeps simulated jobs cheap: 4 frames at an aggressive proxy
// scale, the same shrink the sched tests use.
var tinyProto = core.Workload{Frames: 4, Scale: 16}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Servers == nil {
		cfg.Servers = sched.SoftwareFleet(uarch.TableIV(), 1)
	}
	if cfg.Proto == (core.Workload{}) {
		cfg.Proto = tinyProto
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLoopbackRunsAtMostWorkersJobs: Config.Workers caps the loopback's
// concurrent executions below its server count. Three jobs on three idle
// servers with one worker run one at a time, counted by the exec pool each
// job runs on (started is read before completed, so a job finishing
// between the reads can only lower the difference).
func TestLoopbackRunsAtMostWorkersJobs(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		Servers: sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 3),
		Workers: 1, Metrics: reg,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	started, completed := reg.Counter("exec_jobs_started"), reg.Counter("exec_jobs_completed")
	var ids []string
	for _, video := range []string{"bbb", "cricket", "desktop"} {
		view, err := s.Submit(ctx, JobRequest{Video: video})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}
	for deadline := time.Now().Add(time.Minute); completed.Load() < int64(len(ids)); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs completed after a minute", completed.Load(), len(ids))
		}
		if running := started.Load() - completed.Load(); running > 1 {
			t.Fatalf("%d jobs running at once with Workers 1", running)
		}
		time.Sleep(100 * time.Microsecond)
	}
	for _, id := range ids {
		if final, err := s.WaitJob(ctx, id); err != nil || final.State != StateDone {
			t.Fatalf("job %s ended %+v (%v), want done", id, final, err)
		}
	}
}

// TestSmartBeatsRandomDeterministic is the acceptance criterion of the
// serving layer: on a heterogeneous pool, the characterization-driven
// dispatcher completes the same job sequence in strictly fewer
// fleet-seconds than random placement, and the whole comparison is
// reproducible bit-for-bit from the seed.
func TestSmartBeatsRandomDeterministic(t *testing.T) {
	fleet := sched.SoftwareFleet(uarch.TableIV(), 1)
	tasks := sched.GenerateTasks(8, 7)
	ctx := context.Background()

	first, err := RunComparison(ctx, fleet, tasks, tinyProto, 42)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunComparison(ctx, fleet, tasks, tinyProto, 42)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("comparison not deterministic:\n first %+v\nsecond %+v", first, second)
	}
	if got := first.Smart.Completed; got != int64(len(tasks)) {
		t.Fatalf("smart completed %d of %d jobs", got, len(tasks))
	}
	if got := first.Random.Completed; got != int64(len(tasks)) {
		t.Fatalf("random completed %d of %d jobs", got, len(tasks))
	}
	if first.Smart.SimSeconds >= first.Random.SimSeconds {
		t.Fatalf("smart placement (%f fleet-seconds) did not beat random (%f)",
			first.Smart.SimSeconds, first.Random.SimSeconds)
	}
	if d := first.Delta(); d <= 0 || d >= 1 {
		t.Fatalf("delta %f out of (0,1)", d)
	}
}

// TestColdThenLearned pins the cold-start path: with an unwarmed cost
// model the smart policy places randomly (mode "cold"); once a job has run
// on a baseline-configured server, the same video places smart.
func TestColdThenLearned(t *testing.T) {
	// A pool of only baseline servers: the cold random draw must land on
	// baseline, which feeds the learning path.
	s := newTestServer(t, Config{Servers: sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 2)})
	ctx := context.Background()
	s.Start(ctx)
	defer s.Stop()

	run := func(wantMode string) {
		t.Helper()
		view, err := s.Submit(ctx, JobRequest{Video: "bbb"})
		if err != nil {
			t.Fatal(err)
		}
		final, err := s.WaitJob(ctx, view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("job ended %s: %s", final.State, final.Error)
		}
		if final.Mode != wantMode {
			t.Fatalf("job placed in mode %q, want %q", final.Mode, wantMode)
		}
		if final.Server != "baseline" {
			t.Fatalf("job placed on %q, want baseline", final.Server)
		}
		if final.SimSeconds <= 0 {
			t.Fatalf("sim seconds %f", final.SimSeconds)
		}
	}
	run("cold")
	run("smart")
}

// TestWarmSkipsKnownVideos checks Warm is idempotent and deduplicating.
func TestWarmSkipsKnownVideos(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	if err := s.Warm(ctx, []string{"bbb", "bbb"}); err != nil {
		t.Fatal(err)
	}
	if s.costOf("bbb") == nil {
		t.Fatal("warm did not populate the cost cache")
	}
	rep := s.costOf("bbb")
	if err := s.Warm(ctx, []string{"bbb"}); err != nil {
		t.Fatal(err)
	}
	if s.costOf("bbb") != rep {
		t.Fatal("second warm replaced the cached report")
	}
}

// TestSubmitValidation exercises the 400-path checks.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	cases := []JobRequest{
		{Video: "no-such-video"},
		{Video: "bbb", CRF: 99},
		{Video: "bbb", Refs: 99},
		{Video: "bbb", Preset: "warpspeed"},
	}
	for _, req := range cases {
		if _, err := s.Submit(ctx, req); err == nil {
			t.Fatalf("submit %+v: expected validation error", req)
		}
	}
}

// TestCancelWhileQueued withdraws a queued job via its submission context
// and checks it settles canceled without ever running.
func TestCancelWhileQueued(t *testing.T) {
	s := newTestServer(t, Config{})
	// Not started: the job stays queued, so the cancellation must win.
	ctx, cancel := context.WithCancel(context.Background())
	view, err := s.Submit(ctx, JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	final, err := s.WaitJob(context.Background(), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("job state %s, want canceled", final.State)
	}
	if got := s.Totals().Canceled; got != 1 {
		t.Fatalf("canceled total %d, want 1", got)
	}
}

// TestHTTPLifecycle drives the full API surface over a real listener:
// submit, poll to completion, healthz, 404 and 400.
func TestHTTPLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	s.Start(ctx)
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, JobView) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var view JobView
		json.NewDecoder(resp.Body).Decode(&view)
		return resp, view
	}

	resp, view := post(`{"video":"bbb","class":"live","priority":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if view.State != StateQueued || view.ID == "" {
		t.Fatalf("submit view %+v", view)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got JobView
		json.NewDecoder(r.Body).Decode(&got)
		r.Body.Close()
		if got.State == StateDone {
			if got.Server == "" || got.SimSeconds <= 0 {
				t.Fatalf("done view %+v", got)
			}
			break
		}
		if got.State == StateFailed || got.State == StateCanceled {
			t.Fatalf("job ended %s: %s", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthBody
	json.NewDecoder(r.Body).Decode(&health)
	r.Body.Close()
	if health.Status != "ok" || health.PoolSize != 5 || health.Totals.Completed != 1 {
		t.Fatalf("healthz %+v", health)
	}

	if r, err = http.Get(ts.URL + "/jobs/job-999"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %v %v", r.StatusCode, err)
	}
	r.Body.Close()
	if resp, _ := post(`{"video":"no-such-video"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad video status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{broken`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d, want 400", resp.StatusCode)
	}

	// The obs side door rides on the same mux and shows the server's own
	// registry, not the process default.
	if r, err = http.Get(ts.URL + "/metrics"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %v", r.StatusCode, err)
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil || !bytes.Contains(body, []byte(`"serve_jobs_submitted"`)) {
		t.Fatalf("metrics body lacks serve_jobs_submitted (err %v):\n%s", err, body)
	}
}

// TestHTTPAdmissionFull pins the 429 path: a depth-1 queue with no
// dispatcher running fills after one job.
func TestHTTPAdmissionFull(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"video":"bbb"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d, want 429", resp.StatusCode)
	}
	var e errorBody
	json.NewDecoder(resp.Body).Decode(&e)
	if e.Reason != "full" {
		t.Fatalf("overflow reason %q, want full", e.Reason)
	}
	if got := s.Totals().Rejected; got != 1 {
		t.Fatalf("rejected total %d, want 1", got)
	}
}

// FuzzSubmitRequest feeds arbitrary bytes to POST /jobs on an unstarted
// server. Every answer is a JSON admission outcome, never a panic or a
// 500, and every 202 names a job GET /jobs/{id} finds. The fleet is one
// accelerator, so deadline admission can refuse (a cold software class
// admits anything), and the queue holds 4, so a ladder of segments can
// overflow it.
func FuzzSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		`{"video":"bbb"}`,
		`{"video":"desktop","crf":40,"refs":2,"preset":"fast","class":"live","priority":3,"deadline_ms":500}`,
		`{"video":"bbb","refs":8}`,
		`{"video":"bbb","deadline_seconds":1e-9}`,
		`{"video":"bbb","quality_floor":1,"deadline_seconds":5}`,
		`{"video":"holi","segments":2,"ladder":[{"name":"hi","crf":20},{"crf":35,"preset":"veryfast"}]}`,
		`{"video":"bbb","segments":3,"ladder":[{},{}]}`,
		`{"video":"bbb","segments":65}`,
		`{"video":"bbb","crf":52}`,
		`{"video":"bbb","preset":"warp"}`,
		`{"video":"nosuchvideo"}`,
		`{"video":"bbb"} trailing`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	want := map[int]bool{
		http.StatusAccepted: true, http.StatusBadRequest: true,
		http.StatusRequestEntityTooLarge: true, http.StatusUnprocessableEntity: true,
		http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newTestServer(t, Config{
			Servers:    sched.Fleet{backend.ServerSpec{Backend: backend.Accel}},
			QueueDepth: 4,
		})
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if !want[rec.Code] {
			t.Fatalf("POST /jobs %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var view JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil || view.ID == "" {
			t.Fatalf("POST /jobs %q: 202 body %q (%v)", body, rec.Body, err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+view.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s after 202: status %d", view.ID, rec.Code)
		}
	})
}

// TestStopDrainsQueuedJobs checks graceful shutdown: jobs admitted before
// Stop still execute.
func TestStopDrainsQueuedJobs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	s.Start(ctx)
	var ids []string
	for i := 0; i < 4; i++ {
		view, err := s.Submit(ctx, JobRequest{Video: "bbb"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}
	s.Stop()
	if _, err := s.Submit(ctx, JobRequest{Video: "bbb"}); !errors.Is(err, queue.ErrClosed) {
		t.Fatalf("submit after stop: %v, want ErrClosed", err)
	}
	for _, id := range ids {
		final, err := s.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("job %s ended %s after graceful stop: %s", id, final.State, final.Error)
		}
	}
	if got := s.Totals().Completed; got != 4 {
		t.Fatalf("completed %d, want 4", got)
	}
}

// BenchmarkDispatch measures one placement decision — the per-job overhead
// the online dispatcher adds on top of execution — with a warm cost model,
// a four-job batch and a ten-server fleet.
func BenchmarkDispatch(b *testing.B) {
	s, err := New(Config{
		Servers: sched.SoftwareFleet(uarch.TableIV(), 2), Proto: tinyProto, Seed: 1, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]*record, 4)
	for i := range batch {
		video := sched.GenerateTasks(len(batch), 9)[i].Video
		batch[i] = &record{seq: uint64(i + 1), task: sched.Task{Video: video}}
		s.learn(video, &perf.Report{Topdown: perf.Topdown{
			FrontEnd: 0.2 + 0.1*float64(i), BadSpec: 0.1,
			MemBound: 0.3 - 0.05*float64(i), CoreBound: 0.2,
		}})
	}
	// The free snapshot is rebuilt per iteration in real dispatch; here the
	// fleet is fully idle, so one snapshot serves every solve.
	free := s.transport.freeSlots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.place(batch, free)
	}
}
