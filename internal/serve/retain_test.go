package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/uarch"
)

// hookCtx is a context that is never done and runs hook whenever its Done
// is read: it marks the moment Submit (after queueing its units) or
// WaitJob (after looking its record up) consults the context.
type hookCtx struct {
	context.Context
	hook func()
}

func (c hookCtx) Done() <-chan struct{} {
	c.hook()
	return nil
}

func newHookCtx(hook func()) hookCtx { return hookCtx{context.Background(), hook} }

// newRetainServer is newTestServer with a retention window of budget
// bytes, set before any job is submitted.
func newRetainServer(t *testing.T, budget int64, cfg Config) *Server {
	t.Helper()
	s := newTestServer(t, cfg)
	s.retainLimit = budget
	return s
}

// settleDone settles a record as a completed attempt carrying stream.
func settleDone(t *testing.T, s *Server, id string, stream []byte) {
	t.Helper()
	rec, err := s.record(id)
	if err != nil {
		t.Fatal(err)
	}
	s.settle(rec, settlement{state: StateDone, seconds: 1, stream: stream})
}

// checkWindow asserts the retention window's three accounts agree: the
// serve_retained_bytes gauge is the sum of the window's charges and within
// the budget, and serve_records counts the records held by id.
func checkWindow(t *testing.T, s *Server) {
	t.Helper()
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	var sum int64
	for _, r := range s.window {
		sum += r.bytes
	}
	if got := s.met.retainedBytes.Load(); got != sum || sum != s.windowBytes || sum > s.retainLimit {
		t.Fatalf("retained bytes: gauge %d, window %d (sum %d), budget %d", got, s.windowBytes, sum, s.retainLimit)
	}
	if got := s.met.records.Load(); got != int64(len(s.jobs)) {
		t.Fatalf("serve_records %d, Server.jobs holds %d", got, len(s.jobs))
	}
}

// wantHeld asserts which ids the server still holds and which it forgot.
func wantHeld(t *testing.T, s *Server, held, gone []string) {
	t.Helper()
	for _, id := range held {
		if _, err := s.Lookup(id); err != nil {
			t.Fatalf("%s: %v, want held", id, err)
		}
	}
	for _, id := range gone {
		if _, err := s.Lookup(id); !errors.Is(err, ErrGone) {
			t.Fatalf("%s: %v, want ErrGone", id, err)
		}
	}
}

// TestRetentionForgetsInSettleOrder drives settle directly on an unstarted
// server. Jobs are submitted A, B, C, P (a two-part parent), D and settle
// C, A, P, B, D; the budget holds one plain job beside P. The window
// forgets in settle order, a parent goes with both its parts, and after
// every settle the charges are within the budget.
func TestRetentionForgetsInSettleOrder(t *testing.T) {
	const stream = 100
	chargeP := int64(jobRecordBytes + 2*(partRecordBytes+stream))
	s := newRetainServer(t, jobRecordBytes+chargeP, Config{})
	ctx := context.Background()
	submit := func(req JobRequest) JobView {
		t.Helper()
		v, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b, c := submit(JobRequest{Video: "bbb"}), submit(JobRequest{Video: "bbb"}), submit(JobRequest{Video: "bbb"})
	p := submit(JobRequest{Video: "bbb", Segments: 2})
	d := submit(JobRequest{Video: "bbb"})
	if len(p.Parts) != 2 {
		t.Fatalf("parent parts %v, want 2", p.Parts)
	}
	checkWindow(t, s)
	if got := s.met.records.Load(); got != 7 {
		t.Fatalf("serve_records %d after submitting 4 plain jobs and a 2-part parent, want 7", got)
	}

	settleDone(t, s, c.ID, nil)
	settleDone(t, s, a.ID, nil)
	checkWindow(t, s)
	wantHeld(t, s, []string{a.ID, b.ID, c.ID}, nil)

	// P settles with its second part: C, settled first, makes room.
	settleDone(t, s, p.Parts[0], make([]byte, stream))
	checkWindow(t, s)
	wantHeld(t, s, []string{c.ID, p.ID}, nil)
	settleDone(t, s, p.Parts[1], make([]byte, stream))
	checkWindow(t, s)
	wantHeld(t, s, append([]string{a.ID, p.ID}, p.Parts...), []string{c.ID})

	settleDone(t, s, b.ID, nil)
	checkWindow(t, s)
	wantHeld(t, s, append([]string{b.ID, p.ID}, p.Parts...), []string{a.ID, c.ID})

	// D pushes P out, and both its parts with it.
	settleDone(t, s, d.ID, nil)
	checkWindow(t, s)
	wantHeld(t, s, []string{b.ID, d.ID}, append([]string{a.ID, c.ID, p.ID}, p.Parts...))
	if got := s.met.forgotten.Load(); got != 5 {
		t.Fatalf("serve_records_forgotten %d, want 5 (A, C, P and its two parts)", got)
	}
	if got := s.met.retainedBytes.Load(); got != 2*jobRecordBytes {
		t.Fatalf("serve_retained_bytes %d, want B and D at %d each", got, jobRecordBytes)
	}
	if tot := s.Totals(); tot.Submitted != 5 || tot.Completed != 5 {
		t.Fatalf("totals %+v, want 5 submitted and completed", tot)
	}
}

// TestGoneVersusUnknown: with room for one plain job, the first of two
// settled jobs is forgotten. Its id answers 410 gone on both job
// endpoints and ErrGone from Lookup and WaitJob; an id the server never
// issued answers 404 and ErrUnknownJob.
func TestGoneVersusUnknown(t *testing.T) {
	s := newRetainServer(t, jobRecordBytes, Config{})
	ctx := context.Background()
	var ids []string
	for range 2 {
		v, err := s.Submit(ctx, JobRequest{Video: "bbb", Segments: 2})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		for _, part := range v.Parts {
			settleDone(t, s, part, []byte{1})
		}
	}
	// A parent alone is over the budget, so each is forgotten as it settles.
	gone := ids[0] + ".1"
	held, err := s.Submit(ctx, JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct {
		path   string
		status int
		reason string
	}{
		{"/jobs/" + ids[0], http.StatusGone, "gone"},
		{"/jobs/" + gone, http.StatusGone, "gone"},
		{"/jobs/" + ids[1] + "/rendition", http.StatusGone, "gone"},
		{"/jobs/job-999", http.StatusNotFound, "unknown"},
		{"/jobs/job-999/rendition", http.StatusNotFound, "unknown"},
		{"/jobs/" + ids[0] + ".0", http.StatusNotFound, "unknown"},
		{"/jobs/job-01", http.StatusNotFound, "unknown"},
		{"/jobs/nosuch", http.StatusNotFound, "unknown"},
		{"/jobs/" + held.ID, http.StatusOK, ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		var eb errorBody
		json.Unmarshal(rec.Body.Bytes(), &eb)
		if rec.Code != tc.status || eb.Reason != tc.reason {
			t.Errorf("GET %s: %d %q, want %d %q", tc.path, rec.Code, eb.Reason, tc.status, tc.reason)
		}
	}
	for id, want := range map[string]error{ids[0]: ErrGone, gone: ErrGone, "job-999": ErrUnknownJob} {
		if _, err := s.WaitJob(ctx, id); !errors.Is(err, want) {
			t.Errorf("WaitJob(%s): %v, want %v", id, err, want)
		}
		if _, err := s.Lookup(id); !errors.Is(err, want) {
			t.Errorf("Lookup(%s): %v, want %v", id, err, want)
		}
	}
}

// TestIDsCountClientVisibleJobs: job ids number the jobs a client was
// handed, so an id the server never handed out answers ErrUnknownJob, not
// ErrGone. Parts take no job number, a submission the all-or-nothing path
// rejects gives its number back, and a missing part of a held job was
// never issued.
func TestIDsCountClientVisibleJobs(t *testing.T) {
	s := newTestServer(t, Config{
		Servers:    sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 1),
		QueueDepth: 3,
	})
	ctx := context.Background()
	// Not started: admission only.
	first, err := s.Submit(ctx, JobRequest{Video: "desktop", Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != "job-1" || len(first.Parts) != 2 {
		t.Fatalf("first submission is %s with parts %v, want job-1 with two", first.ID, first.Parts)
	}
	if _, err := s.Submit(ctx, JobRequest{Video: "desktop", Segments: 2}); !errors.Is(err, queue.ErrFull) {
		t.Fatalf("two parts into one free slot: %v, want queue full", err)
	}
	for _, id := range []string{"job-2", "job-2.1", "job-3", "job-1.3"} {
		if _, err := s.Lookup(id); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("Lookup(%s): %v, want ErrUnknownJob", id, err)
		}
	}
	next, err := s.Submit(ctx, JobRequest{Video: "desktop"})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "job-2" {
		t.Fatalf("the job after a two-part job-1 and a rejection is %s, want job-2", next.ID)
	}
	for _, id := range append([]string{first.ID, next.ID}, first.Parts...) {
		if _, err := s.Lookup(id); err != nil {
			t.Errorf("Lookup(%s): %v", id, err)
		}
	}
}

// TestWaitJobOutlivesEviction: a WaitJob that has looked its record up
// returns the final view even though the job is forgotten as it settles.
func TestWaitJobOutlivesEviction(t *testing.T) {
	s := newRetainServer(t, 1, Config{})
	v, err := s.Submit(context.Background(), JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	waiting := make(chan struct{})
	final := make(chan JobView, 1)
	go func() {
		view, err := s.WaitJob(newHookCtx(func() { close(waiting) }), v.ID)
		if err != nil {
			view.Error = err.Error()
		}
		final <- view
	}()
	<-waiting
	settleDone(t, s, v.ID, nil)
	if got := <-final; got.State != StateDone || got.ID != v.ID || got.Error != "" {
		t.Fatalf("blocked WaitJob returned %+v, want %s done", got, v.ID)
	}
	wantHeld(t, s, nil, []string{v.ID})
	checkWindow(t, s)
}

// TestSettledBeforeSubmitReturnsIsRetained: Submit registers a job before
// queueing it, so a job that settles before Submit returns is retained,
// counted, and forgotten exactly once when the next job needs the room.
// Submit's context holds each call until its job has settled.
func TestSettledBeforeSubmitReturnsIsRetained(t *testing.T) {
	s := newRetainServer(t, jobRecordBytes, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()
	var ids []string
	for i := range 2 {
		v, err := s.Submit(newHookCtx(func() {
			waitUntil(t, time.Minute, "job settled", func() bool {
				return s.met.completed.Load() == int64(i+1) && s.met.forgotten.Load() == int64(i) &&
					s.met.retainedBytes.Load() == jobRecordBytes
			})
		}), JobRequest{Video: "bbb"})
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("job %s is %s when Submit returns, want done", v.ID, v.State)
		}
		ids = append(ids, v.ID)
		checkWindow(t, s)
		if got := s.met.records.Load(); got != 1 {
			t.Fatalf("serve_records %d after job %d, want 1", got, i+1)
		}
	}
	wantHeld(t, s, ids[1:], ids[:1])
	if got := s.met.forgotten.Load(); got != 1 {
		t.Fatalf("serve_records_forgotten %d, want 1", got)
	}
	if tot := s.Totals(); tot.Submitted != 2 || tot.Completed != 2 {
		t.Fatalf("totals %+v, want 2 submitted and completed", tot)
	}
}

// TestServerSoakHoldsRetention cycles three passes of tiny ladder jobs
// through a loopback server whose window holds a few of them, submitted
// under one live context. After every pass the ledger balances and
// Server.jobs holds no more than the budget's worth of records; from pass
// two to pass three the heap after GC, the goroutine count and the
// /metrics key count stay within ±10 %.
func TestServerSoakHoldsRetention(t *testing.T) {
	const (
		budget  = 16 << 10
		perPass = 24
		passes  = 3
	)
	reg := obs.NewRegistry()
	s := newRetainServer(t, budget, Config{Metrics: reg})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()
	h := s.Handler()
	videos := []string{"bbb", "desktop", "cricket"}

	metricKeys := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var snap obs.Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		return len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
	}
	// The goroutines of settled jobs are still exiting: read until two
	// readings a few milliseconds apart agree.
	goroutines := func() int {
		n := runtime.NumGoroutine()
		for range 200 {
			time.Sleep(5 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	heapAfterGC := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var heap, gor, keys [passes]float64
	var records int64
	for pass := range passes {
		for i := range perPass {
			v, err := s.Submit(ctx, JobRequest{
				Video: videos[i%len(videos)], CRF: 40, Refs: 1, Preset: "ultrafast",
				Segments: 2, Ladder: []Rung{{Name: "hi"}, {Name: "lo", CRF: 48}},
			})
			if err != nil {
				t.Fatal(err)
			}
			records += int64(1 + len(v.Parts))
		}
		waitUntil(t, 5*time.Minute, "pass settled", func() bool {
			tot := s.Totals()
			return tot.Submitted == tot.Completed+tot.Failed+tot.Canceled
		})
		if tot := s.Totals(); tot.Submitted != int64((pass+1)*perPass) || tot.Completed != tot.Submitted {
			t.Fatalf("pass %d: totals %+v, want %d submitted, all completed", pass, tot, (pass+1)*perPass)
		}
		checkWindow(t, s)
		held, forgotten := s.met.records.Load(), s.met.forgotten.Load()
		if held > budget/jobRecordBytes || held+forgotten != records || forgotten == 0 {
			t.Fatalf("pass %d: %d records held, %d forgotten, %d submitted; budget holds at most %d",
				pass, held, forgotten, records, budget/jobRecordBytes)
		}
		heap[pass], gor[pass], keys[pass] = float64(heapAfterGC()), float64(goroutines()), float64(metricKeys())
	}
	for _, m := range []struct {
		what string
		v    [passes]float64
	}{{"heap after GC", heap}, {"goroutines", gor}, {"/metrics keys", keys}} {
		if m.v[2] < 0.9*m.v[1] || m.v[2] > 1.1*m.v[1] {
			t.Errorf("%s moved from %.0f after pass two to %.0f after pass three", m.what, m.v[1], m.v[2])
		}
	}
	// ±10 % of a heap that holds the engine's caches hides a pass's worth of
	// records: a server that kept every job would add at least this much.
	if kept := float64(perPass * (jobRecordBytes + 4*partRecordBytes)); heap[2]-heap[1] > kept/2 {
		t.Errorf("heap grew %.0f B in pass three; keeping its jobs would add %.0f B", heap[2]-heap[1], kept)
	}
	t.Logf("records %d, retained %d B of %d; heap %v, goroutines %v, metric keys %v",
		s.met.records.Load(), s.met.retainedBytes.Load(), budget, heap, gor, keys)
}
