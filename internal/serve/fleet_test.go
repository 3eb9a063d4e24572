package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The fleet tests drive the worker protocol at the wire level (raw HTTP,
// no internal/worker) so crashes and races are fully scripted: a "worker"
// here is just a test goroutine that polls, then misbehaves exactly as the
// scenario demands. The end-to-end tests with real workers live in
// internal/worker (which imports this package; the reverse would cycle).

// fleetHarness is one orchestrator in fleet mode behind a real listener.
type fleetHarness struct {
	s      *Server
	reg    *obs.Registry
	ts     *httptest.Server
	cancel context.CancelFunc
}

func newFleetHarness(t *testing.T, ttl time.Duration) *fleetHarness {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := New(Config{
		Proto: tinyProto, Seed: 1, Metrics: reg,
		Fleet: &FleetOptions{LeaseTTL: ttl, PollWait: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	h := &fleetHarness{s: s, reg: reg, ts: ts, cancel: cancel}
	t.Cleanup(func() {
		// Cancel before Stop: scenarios deliberately leave jobs stranded on
		// dead workers, and a graceful drain would wait for them forever.
		cancel()
		s.Stop()
		ts.Close()
	})
	return h
}

func (h *fleetHarness) counter(name string) int64 {
	return h.reg.Snapshot().CounterTotal(name)
}

// protoWorker is a scripted wire-level worker. The zero values of the
// capability fields (backend/price/spot) advertise a default-priced
// on-demand software worker, matching the pre-economic protocol.
type protoWorker struct {
	t       *testing.T
	base    string
	id      string
	cfg     string
	backend string
	price   float64
	spot    bool
}

func (w *protoWorker) post(path string, body, out any) int {
	w.t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		w.t.Fatal(err)
	}
	resp, err := http.Post(w.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			w.t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func (w *protoWorker) capability() Capability {
	return Capability{
		WorkerID: w.id, Config: w.cfg,
		Backend: w.backend, PriceCentsHour: w.price, Spot: w.spot,
	}
}

// poll blocks like a real worker's long poll; ok is false on 204.
func (w *protoWorker) poll() (Assignment, bool) {
	w.t.Helper()
	var a Assignment
	switch code := w.post("/fleet/poll", PollRequest{Capability: w.capability()}, &a); code {
	case http.StatusOK:
		return a, true
	case http.StatusNoContent:
		return Assignment{}, false
	default:
		w.t.Fatalf("poll: unexpected status %d", code)
		return Assignment{}, false
	}
}

func (w *protoWorker) beat(lease string) HeartbeatReply {
	w.t.Helper()
	var reply HeartbeatReply
	hb := Heartbeat{Capability: w.capability(), LeaseID: lease}
	if code := w.post("/fleet/heartbeat", hb, &reply); code != http.StatusOK {
		w.t.Fatalf("heartbeat: unexpected status %d", code)
	}
	return reply
}

// parkedPoll is how a background poll ended.
type parkedPoll struct {
	a    Assignment
	code int
	err  error
}

// park starts w's long poll in the background (its goroutine reports on
// the channel instead of failing the test) and returns once the
// orchestrator holds it as a free slot.
func (w *protoWorker) park(h *fleetHarness) <-chan parkedPoll {
	w.t.Helper()
	raw, err := json.Marshal(PollRequest{Capability: w.capability()})
	if err != nil {
		w.t.Fatal(err)
	}
	out := make(chan parkedPoll, 1)
	go func() {
		var p parkedPoll
		resp, err := http.Post(w.base+"/fleet/poll", "application/json", bytes.NewReader(raw))
		if err != nil {
			p.err = err
		} else {
			p.code = resp.StatusCode
			if p.code == http.StatusOK {
				p.err = json.NewDecoder(resp.Body).Decode(&p.a)
			}
			resp.Body.Close()
		}
		out <- p
	}()
	waitUntil(w.t, 3*time.Second, w.id+" parked", func() bool {
		for _, sl := range h.s.transport.freeSlots() {
			if sl.id == w.id {
				return true
			}
		}
		return false
	})
	return out
}

func (w *protoWorker) result(a Assignment, seconds float64, errMsg string) ResultReply {
	w.t.Helper()
	var reply ResultReply
	rep := ResultReport{WorkerID: w.id, LeaseID: a.LeaseID, JobID: a.JobID, Seconds: seconds, Error: errMsg}
	if code := w.post("/fleet/result", rep, &reply); code != http.StatusOK {
		w.t.Fatalf("result: unexpected status %d", code)
	}
	return reply
}

func waitUntil(t *testing.T, d time.Duration, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFleetLeaseExpiryLateResultSettles covers the requeue path and one
// side of the result-vs-expiry race: the worker goes silent, its lease
// expires and the job is requeued; then the presumed-dead worker's result
// arrives with no second attempt running — the late result must settle the
// job (exactly once) and withdraw the requeued ticket.
func TestFleetLeaseExpiryLateResultSettles(t *testing.T) {
	h := newFleetHarness(t, 150*time.Millisecond)
	w1 := &protoWorker{t: t, base: h.ts.URL, id: "w1", cfg: "baseline"}

	view, err := h.s.Submit(context.Background(), JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	a, ok := w1.poll()
	if !ok {
		t.Fatal("poll returned no assignment")
	}
	if a.JobID != view.ID {
		t.Fatalf("assignment for %s, want %s", a.JobID, view.ID)
	}
	// Silence: no heartbeat, no result. The lease must expire and requeue.
	waitUntil(t, 3*time.Second, "lease reassignment", func() bool {
		return h.counter("fleet_lease_reassigned") >= 1
	})
	if got, _ := h.s.Job(view.ID); got.State != StateQueued {
		t.Fatalf("after expiry job state %s, want %s", got.State, StateQueued)
	}
	if got := h.counter("serve_requeues"); got != 1 {
		t.Fatalf("serve_requeues %d, want 1", got)
	}
	if got := h.counter("queue_requeued"); got != 1 {
		t.Fatalf("queue_requeued %d, want 1", got)
	}

	// A heartbeat naming the dead lease must be told it lost it.
	if reply := w1.beat(a.LeaseID); reply.LeaseValid {
		t.Fatal("heartbeat validated an expired lease")
	}

	// The late result lands with no retry running: it settles the job.
	reply := w1.result(a, 2.5, "")
	if !reply.Accepted || reply.Reason != "late" {
		t.Fatalf("late result reply %+v, want accepted/late", reply)
	}
	final, err := h.s.WaitJob(context.Background(), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.SimSeconds != 2.5 {
		t.Fatalf("final %+v, want done @2.5s", final)
	}
	if tot := h.s.Totals(); tot.Completed != 1 || tot.Failed != 0 || tot.Canceled != 0 {
		t.Fatalf("totals %+v, want exactly one completion", tot)
	}
	if got := h.counter("fleet_results_late"); got != 1 {
		t.Fatalf("fleet_results_late %d, want 1", got)
	}
}

// TestFleetLateResultLosesToRetry covers the other side of the race: the
// lease expires, a second worker re-runs and settles the job, and only
// then does the first worker's result crawl in — it must be discarded, and
// the job must settle exactly once with the retry's outcome.
func TestFleetLateResultLosesToRetry(t *testing.T) {
	h := newFleetHarness(t, 150*time.Millisecond)
	w1 := &protoWorker{t: t, base: h.ts.URL, id: "w1", cfg: "baseline"}
	w2 := &protoWorker{t: t, base: h.ts.URL, id: "w2", cfg: "baseline"}

	view, err := h.s.Submit(context.Background(), JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	a1, ok := w1.poll()
	if !ok {
		t.Fatal("w1 got no assignment")
	}
	waitUntil(t, 3*time.Second, "lease reassignment", func() bool {
		return h.counter("fleet_lease_reassigned") >= 1
	})
	// w2 picks up the requeued job and completes it.
	a2, ok := w2.poll()
	if !ok {
		t.Fatal("w2 got no assignment after requeue")
	}
	if a2.JobID != view.ID || a2.LeaseID == a1.LeaseID {
		t.Fatalf("retry assignment %+v, want same job under a fresh lease (first %+v)", a2, a1)
	}
	if reply := w2.result(a2, 4.0, ""); !reply.Accepted {
		t.Fatalf("retry result rejected: %+v", reply)
	}
	final, err := h.s.WaitJob(context.Background(), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.SimSeconds != 4.0 {
		t.Fatalf("final %+v, want done @4.0s (the retry's result)", final)
	}
	if final.Attempts != 2 || final.Server != "w2" {
		t.Fatalf("final attempts %d on %q, want 2 on w2", final.Attempts, final.Server)
	}

	// Now the original worker's result arrives: too late, must not
	// double-settle. Depending on whether the monitor GC'd the superseded
	// lease yet, the reply is late_discarded or unknown_lease — rejected
	// either way.
	if reply := w1.result(a1, 9.9, ""); reply.Accepted {
		t.Fatalf("stale result accepted: %+v", reply)
	}
	if got, _ := h.s.Job(view.ID); got.SimSeconds != 4.0 {
		t.Fatalf("job overwritten by stale result: %+v", got)
	}
	if tot := h.s.Totals(); tot.Completed != 1 {
		t.Fatalf("totals %+v, want exactly one completion", tot)
	}
}

// TestLeaseLivesWhileItsWorkerBeats: a lease lives exactly as long as its
// worker. A job that runs many TTLs keeps its lease while the holder
// heartbeats, and its result settles normally; once the holder falls
// silent, the monitor declares it gone and requeues the job.
func TestLeaseLivesWhileItsWorkerBeats(t *testing.T) {
	const ttl = 150 * time.Millisecond
	h := newFleetHarness(t, ttl)
	w1 := &protoWorker{t: t, base: h.ts.URL, id: "w1", cfg: "baseline"}
	ctx := context.Background()

	view, err := h.s.Submit(ctx, JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	a, ok := w1.poll()
	if !ok {
		t.Fatal("poll returned no assignment")
	}
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(ttl / 3) {
		if reply := w1.beat(a.LeaseID); !reply.LeaseValid {
			t.Fatal("heartbeat from the live holder found its lease invalid")
		}
		if got := h.counter("fleet_lease_reassigned"); got != 0 {
			t.Fatalf("fleet_lease_reassigned %d while the holder beats, want 0", got)
		}
	}
	if reply := w1.result(a, 1.5, ""); !reply.Accepted || reply.Reason != "" {
		t.Fatalf("result reply %+v, want accepted on time", reply)
	}
	if final, err := h.s.WaitJob(ctx, view.ID); err != nil || final.State != StateDone || final.Attempts != 1 {
		t.Fatalf("final %+v (%v), want done after 1 attempt", final, err)
	}

	// The holder of a second job beats a little, then falls silent.
	view, err = h.s.Submit(ctx, JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	if a, ok = w1.poll(); !ok {
		t.Fatal("second poll returned no assignment")
	}
	w1.beat(a.LeaseID)
	misses := h.counter("fleet_heartbeat_miss")
	waitUntil(t, time.Second, "silent holder's job reassigned", func() bool {
		return h.counter("fleet_lease_reassigned") == 1
	})
	if got := h.counter("fleet_heartbeat_miss"); got <= misses {
		t.Fatalf("fleet_heartbeat_miss %d, want the silent worker counted (was %d)", got, misses)
	}
	if got, _ := h.s.Job(view.ID); got.State != StateQueued {
		t.Fatalf("after the holder fell silent job state %s, want %s", got.State, StateQueued)
	}
}

// TestDefaultLeaseTTLKeepsHeartbeatMargin: with no -lease-ttl the TTL is
// three default heartbeats, however short the jobs the fleet has run.
func TestDefaultLeaseTTLKeepsHeartbeatMargin(t *testing.T) {
	h := newFleetHarness(t, 0)
	w1 := &protoWorker{t: t, base: h.ts.URL, id: "w1", cfg: "baseline"}
	ctx := context.Background()

	view, err := h.s.Submit(ctx, JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	a, ok := w1.poll()
	if !ok {
		t.Fatal("no assignment")
	}
	w1.result(a, 0.5, "")
	if _, err := h.s.WaitJob(ctx, view.ID); err != nil {
		t.Fatal(err)
	}

	if _, err := h.s.Submit(ctx, JobRequest{Video: "bbb"}); err != nil {
		t.Fatal(err)
	}
	if a, ok = w1.poll(); !ok {
		t.Fatal("no second assignment")
	}
	if a.LeaseTTLMs < 3000 {
		t.Fatalf("assignment TTL %dms after a short job, want >= 3000", a.LeaseTTLMs)
	}
	if got := h.reg.Snapshot().Gauges["fleet_lease_ttl_ms"]; got < 3000 {
		t.Fatalf("fleet_lease_ttl_ms %d after a short job, want >= 3000", got)
	}
	w1.result(a, 0.5, "")
}

// TestFleetRejoinReclaimsOrphanedJob is the crash-and-rejoin path: a
// worker takes a job, "crashes", and a fresh process under the same id
// polls again. The orchestrator must treat the poll as a disclaimer of the
// old lease — the orphaned job requeues immediately (no TTL wait) and is
// redelivered.
func TestFleetRejoinReclaimsOrphanedJob(t *testing.T) {
	h := newFleetHarness(t, 10*time.Second) // TTL long: only the rejoin can free the job
	w1 := &protoWorker{t: t, base: h.ts.URL, id: "w1", cfg: "fe_op"}

	view, err := h.s.Submit(context.Background(), JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	a1, ok := w1.poll()
	if !ok {
		t.Fatal("w1 got no assignment")
	}
	// Crash, restart, poll again: the same id shows up idle.
	a2, ok := w1.poll()
	if !ok {
		t.Fatal("rejoined worker got no assignment")
	}
	if a2.JobID != view.ID || a2.LeaseID == a1.LeaseID {
		t.Fatalf("rejoin assignment %+v, want same job under a fresh lease", a2)
	}
	if got := h.counter("fleet_lease_reassigned"); got != 1 {
		t.Fatalf("fleet_lease_reassigned %d, want 1", got)
	}
	if reply := w1.result(a2, 1.0, ""); !reply.Accepted {
		t.Fatalf("result rejected: %+v", reply)
	}
	final, err := h.s.WaitJob(context.Background(), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Attempts != 2 {
		t.Fatalf("final %+v, want done after 2 attempts", final)
	}
}

// TestFleetDuplicateResultIsIdempotent: a worker retrying its result post
// (e.g. after a network blip ate the first reply) must not double-settle.
func TestFleetDuplicateResultIsIdempotent(t *testing.T) {
	h := newFleetHarness(t, 10*time.Second)
	w1 := &protoWorker{t: t, base: h.ts.URL, id: "w1", cfg: "baseline"}

	view, err := h.s.Submit(context.Background(), JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	a, ok := w1.poll()
	if !ok {
		t.Fatal("no assignment")
	}
	if reply := w1.result(a, 3.0, ""); !reply.Accepted {
		t.Fatalf("first result rejected: %+v", reply)
	}
	// The retry is either recognized as a duplicate (lease still cached) or
	// rejected as unknown (monitor GC'd it); it must never settle again.
	reply := w1.result(a, 3.0, "")
	if reply.Accepted && reply.Reason != "duplicate" {
		t.Fatalf("duplicate reply %+v", reply)
	}
	if tot := h.s.Totals(); tot.Completed != 1 {
		t.Fatalf("totals %+v, want exactly one completion", tot)
	}
	if _, err := h.s.WaitJob(context.Background(), view.ID); err != nil {
		t.Fatal(err)
	}
}

// TestFleetHealthAndRegistration: heartbeats register workers idempotently
// and surface per-worker telemetry in /healthz and labeled gauges.
func TestFleetHealthAndRegistration(t *testing.T) {
	h := newFleetHarness(t, 5*time.Second)
	w1 := &protoWorker{t: t, base: h.ts.URL, id: "w1", cfg: "baseline"}
	for i := 0; i < 3; i++ { // re-registration must not duplicate
		w1.beat("")
	}
	if reply := w1.beat("lease-nonexistent"); reply.LeaseValid {
		t.Fatal("unknown lease reported valid")
	}

	resp, err := http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body healthBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Fleet || body.PoolSize != 1 || len(body.Workers) != 1 {
		t.Fatalf("healthz %+v, want fleet with exactly worker w1", body)
	}
	if w := body.Workers[0]; w.ID != "w1" || w.Config != "baseline" || w.Busy {
		t.Fatalf("worker view %+v", w)
	}
	if g, ok := h.reg.Snapshot().Gauges["fleet_workers"]; !ok || g != 1 {
		t.Fatalf("fleet_workers gauge %d (present %v), want 1", g, ok)
	}
}

// TestHTTPHardening: wrong methods get JSON 405s with an Allow header, and
// oversized bodies get a JSON 413 — on the job API and the fleet endpoints.
func TestHTTPHardening(t *testing.T) {
	h := newFleetHarness(t, 5*time.Second)

	for _, path := range []string{"/jobs", "/fleet/heartbeat", "/fleet/poll", "/fleet/result"} {
		resp, err := http.Get(h.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("GET %s: non-JSON error body: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
			t.Fatalf("GET %s: status %d allow %q, want 405 allowing POST", path, resp.StatusCode, resp.Header.Get("Allow"))
		}
		if eb.Reason != "method" {
			t.Fatalf("GET %s: reason %q, want method", path, eb.Reason)
		}
	}

	huge := `{"video":"` + strings.Repeat("x", maxRequestBody+1) + `"}`
	for _, path := range []string{"/jobs", "/fleet/heartbeat"} {
		resp, err := http.Post(h.ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("POST %s oversized: non-JSON error body: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Reason != "too_large" {
			t.Fatalf("POST %s oversized: status %d reason %q, want 413/too_large", path, resp.StatusCode, eb.Reason)
		}
	}

	// Garbage JSON is a 400 with a JSON body, not a silent 500.
	resp, err := http.Post(h.ts.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("bad JSON: non-JSON error body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error == "" {
		t.Fatalf("bad JSON: status %d body %+v, want 400 with error", resp.StatusCode, eb)
	}
}

// TestCapabilityWireBytes pins the JSON of the two messages that carry a
// worker's Capability: embedding flattens its fields, so heartbeats and
// polls read byte for byte as they did when each spelled them out.
func TestCapabilityWireBytes(t *testing.T) {
	full := Capability{WorkerID: "w1", Config: "baseline", Backend: "accel", PriceCentsHour: 12.5, Spot: true}
	bare := Capability{WorkerID: "w2", Config: "fe_op"}
	for _, c := range []struct {
		msg  any
		want string
	}{
		{Heartbeat{Capability: full, LeaseID: "lease-3", UtilizationPct: 40, JobsDone: 7},
			`{"worker_id":"w1","config":"baseline","backend":"accel","price_cents_hour":12.5,"spot":true,"lease_id":"lease-3","utilization_pct":40,"jobs_done":7}`},
		{Heartbeat{Capability: bare},
			`{"worker_id":"w2","config":"fe_op","utilization_pct":0,"jobs_done":0}`},
		{PollRequest{Capability: full},
			`{"worker_id":"w1","config":"baseline","backend":"accel","price_cents_hour":12.5,"spot":true}`},
		{PollRequest{Capability: bare}, `{"worker_id":"w2","config":"fe_op"}`},
	} {
		got, err := json.Marshal(c.msg)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%T marshals to\n%s\nwant\n%s", c.msg, got, c.want)
		}
	}
}

// FuzzFleetMessages feeds arbitrary bodies to the three worker-protocol
// endpoints of a fleet server that has no job. A body within the size cap
// is answered 200, 204 or 400, never a panic, and no message settles,
// bills or reassigns anything. Whatever ids the messages named, a monitor
// pass past every TTL leaves no worker behind: none in /healthz's view or
// the fleet_workers gauge, and no gauge labeled by worker.
//
// The fleet is built once for all inputs, so the check covers what earlier
// inputs left too.
func FuzzFleetMessages(f *testing.F) {
	for _, seed := range []string{
		`{"worker_id":"w1","config":"baseline","backend":"accel","price_cents_hour":12.5,"spot":true,"lease_id":"lease-3","utilization_pct":40,"jobs_done":7}`,
		`{"worker_id":"w2","config":"fe_op","utilization_pct":0,"jobs_done":0}`,
		`{"worker_id":"w1","config":"baseline","backend":"accel","price_cents_hour":12.5,"spot":true}`,
		`{"worker_id":"w2","config":"fe_op"}`,
		`{"worker_id":"w1","lease_id":"lease-1","job_id":"job-1","seconds":2.5}`,
		`{"worker_id":"w1","config":"nosuchconfig"}`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	reg := obs.NewRegistry()
	s, err := New(Config{
		Proto: tinyProto, Seed: 1, Metrics: reg,
		Fleet: &FleetOptions{PollWait: 5 * time.Millisecond},
	})
	if err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	f.Cleanup(func() {
		cancel()
		s.Stop()
	})
	h := s.Handler()
	ft := s.transport.(*fleetTransport)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range []struct {
			path  string
			limit int
		}{
			{"/fleet/heartbeat", maxRequestBody},
			{"/fleet/poll", maxRequestBody},
			{"/fleet/result", maxResultBody},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusNoContent, http.StatusBadRequest:
			case http.StatusRequestEntityTooLarge:
				if len(body) <= ep.limit {
					t.Fatalf("POST %s %q: 413 under the %d-byte cap", ep.path, body, ep.limit)
				}
			default:
				t.Fatalf("POST %s %q: status %d: %s", ep.path, body, rec.Code, rec.Body)
			}
		}
		if tot := s.Totals(); tot != (Totals{}) {
			t.Fatalf("totals %+v after fleet messages with no job, want zero", tot)
		}
		if got := reg.Snapshot().CounterTotal("fleet_lease_reassigned"); got != 0 {
			t.Fatalf("fleet_lease_reassigned %d with no job, want 0", got)
		}
		ft.sweep(time.Now().Add(time.Hour))
		if views := ft.workerViews(); len(views) != 0 {
			t.Fatalf("%d workers registered after a sweep past every TTL, want 0: %+v", len(views), views)
		}
		snap := reg.Snapshot()
		if got := snap.Gauges["fleet_workers"]; got != 0 {
			t.Fatalf("fleet_workers %d after a sweep past every TTL, want 0", got)
		}
		for key := range snap.Gauges {
			if strings.Contains(key, "worker=") {
				t.Fatalf("gauge %s outlives its worker", key)
			}
		}
	})
}

// TestUnplaceableRowWaitsForACompatibleSlot: a job no free slot can run
// waits for one, without being requeued or retried on a timer, and while
// it waits a job of another class still takes the slot it cannot use.
// refs 8 is outside the accelerator's option surface; the default job
// (refs 3) is inside it.
func TestUnplaceableRowWaitsForACompatibleSlot(t *testing.T) {
	ctx := context.Background()
	t.Run("waits_for_software", func(t *testing.T) {
		h := newFleetHarness(t, 10*time.Second)
		accel := &protoWorker{t: t, base: h.ts.URL, id: "w-accel", backend: "accel"}
		accelPoll := accel.park(h)
		view, err := h.s.Submit(ctx, JobRequest{Video: "bbb", Refs: 8})
		if err != nil {
			t.Fatal(err)
		}
		for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
			select {
			case p := <-accelPoll:
				t.Fatalf("accelerator poll ended with %+v, want it parked", p)
			case <-time.After(5 * time.Millisecond):
			}
			if got, _ := h.s.Job(view.ID); got.State != StateQueued {
				t.Fatalf("job %s, want queued", got.State)
			}
			if got := h.counter("serve_requeues"); got != 0 {
				t.Fatalf("serve_requeues %d while waiting, want 0", got)
			}
		}
		// The dispatcher looks at the job again only when something
		// happens: the admission, the accelerator's own park (its wake-up
		// may land after the job), and the first look, each at most one
		// round plus one pass of the queue. A timer would return it every
		// few milliseconds.
		if got := h.counter("queue_requeued"); got > 6 {
			t.Fatalf("queue_requeued %d in 100ms with nothing happening, want <= 6", got)
		}

		sw := &protoWorker{t: t, base: h.ts.URL, id: "w-sw", cfg: "baseline"}
		a, ok := sw.poll()
		if !ok || a.JobID != view.ID {
			t.Fatalf("software poll got %+v (ok %v), want %s", a, ok, view.ID)
		}
		if reply := sw.result(a, 1.5, ""); !reply.Accepted {
			t.Fatalf("result rejected: %+v", reply)
		}
		final, err := h.s.WaitJob(ctx, view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone || final.Server != "w-sw" || final.Attempts != 1 {
			t.Fatalf("final %+v, want done on w-sw in one attempt", final)
		}
		if got := h.counter("serve_requeues"); got != 0 {
			t.Fatalf("serve_requeues %d, want 0", got)
		}
	})
	t.Run("another_class_takes_the_accelerator", func(t *testing.T) {
		h := newFleetHarness(t, 10*time.Second)
		accel := &protoWorker{t: t, base: h.ts.URL, id: "w-accel", backend: "accel"}
		accelPoll := accel.park(h)
		head, err := h.s.Submit(ctx, JobRequest{Video: "bbb", Refs: 8, Class: "a"})
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 3*time.Second, "the software-only job found unplaceable", func() bool {
			return h.counter("queue_requeued") >= 1
		})
		other, err := h.s.Submit(ctx, JobRequest{Video: "bbb", Class: "b"})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-accelPoll:
			if p.err != nil || p.code != http.StatusOK || p.a.JobID != other.ID {
				t.Fatalf("accelerator poll ended with %+v, want an assignment of %s", p, other.ID)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s never reached the parked accelerator", other.ID)
		}
		if got, _ := h.s.Job(head.ID); got.State != StateQueued {
			t.Fatalf("software-only job %s, want queued", got.State)
		}
		if got := h.counter("serve_requeues"); got != 0 {
			t.Fatalf("serve_requeues %d, want 0", got)
		}
	})
}

// TestForgottenWorkerRejoinsOnNextPoll: the monitor forgets a parked worker
// silent past its TTL and answers its poll 204 at once, not when the poll
// window lapses; the worker's next poll registers it afresh and takes the
// job that waited for a slot meanwhile.
func TestForgottenWorkerRejoinsOnNextPoll(t *testing.T) {
	h := newFleetHarness(t, 10*time.Second)
	w1 := &protoWorker{t: t, base: h.ts.URL, id: "w1", cfg: "baseline"}
	polled := w1.park(h)
	h.s.transport.(*fleetTransport).sweep(time.Now().Add(time.Minute)) // silent past its TTL
	select {
	case p := <-polled:
		if p.err != nil || p.code != http.StatusNoContent {
			t.Fatalf("forgotten worker's poll ended with %+v, want 204", p)
		}
	case <-time.After(time.Second): // inside the harness's 2 s poll window
		t.Fatal("forgotten worker's poll stayed parked")
	}
	if views := h.s.transport.(*fleetTransport).workerViews(); len(views) != 0 {
		t.Fatalf("workers %+v after the sweep, want none", views)
	}
	view, err := h.s.Submit(context.Background(), JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	a, ok := w1.poll()
	if !ok || a.JobID != view.ID {
		t.Fatalf("rejoined worker's poll got %+v (ok %v), want an assignment of %s", a, ok, view.ID)
	}
	if d := time.Since(start); d > time.Second { // inside the harness's 2 s poll window
		t.Fatalf("rejoined worker took the waiting job after %v, want within 1s", d)
	}
}

// TestParentSettlesInPartOrder pins a job graph's parent as a fold over its
// parts in part order: three workers report 0.1, 0.2 and 0.3 s for parts
// 0, 1 and 2 and post their results in reverse. Float addition is not
// associative, so only the part-order sums match whatever order the parts
// finished in.
func TestParentSettlesInPartOrder(t *testing.T) {
	h := newFleetHarness(t, 10*time.Second)
	view, err := h.s.Submit(context.Background(), JobRequest{Video: "bbb", Segments: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Parts) != 3 {
		t.Fatalf("parts %v, want 3", view.Parts)
	}
	secs := []float64{0.1, 0.2, 0.3}
	type held struct {
		w *protoWorker
		a Assignment
	}
	byPart := make([]held, len(view.Parts))
	for _, id := range []string{"w0", "w1", "w2"} {
		w := &protoWorker{t: t, base: h.ts.URL, id: id, cfg: "baseline"}
		a, ok := w.poll()
		if !ok {
			t.Fatalf("%s: poll returned no assignment", id)
		}
		i := slices.Index(view.Parts, a.JobID)
		if i < 0 || byPart[i].w != nil {
			t.Fatalf("%s: assignment %s is not a fresh part of %v", id, a.JobID, view.Parts)
		}
		byPart[i] = held{w, a}
	}
	for i := len(byPart) - 1; i >= 0; i-- {
		if reply := byPart[i].w.result(byPart[i].a, secs[i], ""); !reply.Accepted {
			t.Fatalf("part %d result %+v, want accepted", i, reply)
		}
	}
	final, err := h.s.WaitJob(context.Background(), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var seconds, cost float64
	for i, id := range view.Parts {
		part, _ := h.s.Job(id)
		if part.State != StateDone || part.SimSeconds != secs[i] {
			t.Fatalf("part %d %+v, want done @%v s", i, part, secs[i])
		}
		seconds += part.SimSeconds
		cost += part.CostCents
	}
	if final.State != StateDone || final.PartsDone != 3 {
		t.Fatalf("parent %+v, want done with 3 parts done", final)
	}
	if final.SimSeconds != seconds || final.CostCents != cost {
		t.Fatalf("parent %.17g s, %.17g ¢; want part-order sums %.17g s, %.17g ¢",
			final.SimSeconds, final.CostCents, seconds, cost)
	}
}
