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
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/uarch"
)

// mixedFleet is the canonical two-class market the acceptance tests run
// on: a cheap baseline software server and an accelerator priced high
// enough (1¢ per busy second) that its ~10× speed advantage does NOT make
// it the cheaper choice — so the seconds and cost objectives must diverge.
func mixedFleet() sched.Fleet {
	return sched.Fleet{
		backend.ServerSpec{Backend: backend.Software, Config: uarch.Baseline(), PriceCentsHour: 34},
		backend.ServerSpec{Backend: backend.Accel, PriceCentsHour: 3600},
	}
}

// TestCostAwareBeatsFleetSecondsDeterministic is the tentpole acceptance
// gate: on a mixed fleet, cost-aware placement must produce a strictly
// lower total bill than fleet-seconds-only placement at an equal deadline
// -miss count, and the whole comparison must be bit-reproducible.
func TestCostAwareBeatsFleetSecondsDeterministic(t *testing.T) {
	ctx := context.Background()
	tasks := sched.GenerateTasks(6, 42)
	cfg := Config{Servers: mixedFleet(), Objective: sched.ObjectiveSeconds, Proto: tinyProto, Seed: 42}
	toCost := func(c *Config) { c.Objective = sched.ObjectiveCost }
	secs, cost := closedLoopAB(ctx, t, cfg, toCost, tasks)
	secs2, cost2 := closedLoopAB(ctx, t, cfg, toCost, tasks)
	if secs != secs2 || cost != cost2 {
		t.Fatalf("cost comparison not deterministic:\nfirst:  seconds %+v cost %+v\nsecond: seconds %+v cost %+v",
			secs, cost, secs2, cost2)
	}
	if secs.Completed != cost.Completed || cost.Completed != int64(len(tasks)) {
		t.Fatalf("unequal work: seconds completed %d, cost completed %d, want %d",
			secs.Completed, cost.Completed, len(tasks))
	}
	if secs.DeadlineMisses != cost.DeadlineMisses {
		t.Fatalf("unequal deadline misses: seconds %d, cost %d",
			secs.DeadlineMisses, cost.DeadlineMisses)
	}
	if cost.CostCents >= secs.CostCents {
		t.Fatalf("cost objective did not save money: %.9f¢ vs %.9f¢ under seconds",
			cost.CostCents, secs.CostCents)
	}
	// The flip side of the trade: the seconds objective must have bought
	// real speed with those dollars (it routed accel-feasible jobs to the
	// ASIC), otherwise the fleets degenerated to the same placement.
	if secs.SimSeconds >= cost.SimSeconds {
		t.Fatalf("seconds objective not faster: %.6fs vs %.6fs under cost",
			secs.SimSeconds, cost.SimSeconds)
	}
	if sav := (secs.CostCents - cost.CostCents) / secs.CostCents; sav <= 0 || sav > 1 {
		t.Fatalf("savings fraction %f out of range", sav)
	}
}

// TestDeadlineInfeasibleRejectedAtAdmission pins the typed admission
// rejection: a deadline no live server class can predictably meet fails
// Submit with ErrDeadlineInfeasible and returns HTTP 422 with the
// deadline_infeasible reason, before the job ever touches the queue.
func TestDeadlineInfeasibleRejectedAtAdmission(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	s, err := New(Config{
		Servers: sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 1), Proto: tinyProto, Seed: 1, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the class: admission is deliberately optimistic while the cost
	// model is cold (it cannot predict what it has never measured).
	if err := s.Warm(ctx, []string{"bbb"}); err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.Start(runCtx)
	defer s.Stop()

	_, err = s.Submit(ctx, JobRequest{Video: "bbb", DeadlineSeconds: 1e-9})
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("impossible deadline admitted: err = %v", err)
	}
	if got := s.Totals().Rejected; got != 1 {
		t.Fatalf("rejected total %d, want 1", got)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(JobRequest{Video: "bbb", DeadlineSeconds: 1e-9})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || eb.Reason != "deadline_infeasible" {
		t.Fatalf("HTTP rejection: status %d reason %q, want 422 deadline_infeasible", resp.StatusCode, eb.Reason)
	}

	// A generous deadline sails through and completes without a miss.
	view, err := s.Submit(ctx, JobRequest{Video: "bbb", DeadlineSeconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.WaitJob(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.DeadlineMiss {
		t.Fatalf("feasible job ended %s (miss=%v)", final.State, final.DeadlineMiss)
	}
	if got := s.Totals().DeadlineMisses; got != 0 {
		t.Fatalf("deadline misses %d, want 0", got)
	}
}

// TestSpotPreemptionMidLadder is the spot-recovery acceptance gate at the
// wire level: a spot accelerator worker takes one segment part of a
// two-part job and vanishes without notice (kill -9 semantics — no
// disclaim, no result). The lease must expire, ONLY the preempted part be
// re-attempted, the surviving on-demand worker finish everything, and the
// parent's bill price each part exactly once at the settling attempt.
func TestSpotPreemptionMidLadder(t *testing.T) {
	h := newFleetHarness(t, 150*time.Millisecond)
	spot := &protoWorker{t: t, base: h.ts.URL, id: "w-spot", backend: "accel", spot: true}
	onDemand := &protoWorker{t: t, base: h.ts.URL, id: "w1", cfg: "baseline"}

	view, err := h.s.Submit(context.Background(), JobRequest{Video: "bbb", Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if view.PartsTotal != 2 {
		t.Fatalf("parts total %d, want 2", view.PartsTotal)
	}

	// The spot worker polls first and is handed one part... then dies.
	aSpot, ok := spot.poll()
	if !ok {
		t.Fatal("spot worker got no assignment")
	}
	if !aSpot.WantStream {
		t.Fatal("segment part assigned without want_stream")
	}
	// The spot worker's capability made it to the registry before it died.
	var sawSpot bool
	for _, wv := range h.s.transport.(*fleetTransport).workerViews() {
		if wv.ID == "w-spot" {
			sawSpot = wv.Spot && wv.Backend == string(backend.Accel) && wv.PriceCentsHour > 0
		}
	}
	if !sawSpot {
		t.Fatal("spot worker's economic capability not registered")
	}
	// The on-demand worker takes the sibling and finishes it properly.
	a1, ok := onDemand.poll()
	if !ok {
		t.Fatal("on-demand worker got no assignment")
	}
	if aSpot.JobID == a1.JobID {
		t.Fatalf("both workers got part %s", a1.JobID)
	}
	onDemand.result(a1, 2.0, "")

	// Silence from the spot worker: its lease expires and the preempted
	// part is requeued; the on-demand worker picks it up and finishes. The
	// tiny TTL can also forget the parked on-demand worker between polls,
	// which answers its poll 204, so keep polling — the next request
	// registers it again.
	var a2 Assignment
	waitUntil(t, 10*time.Second, "preempted part reassigned", func() bool {
		a, ok := onDemand.poll()
		if ok {
			a2 = a
		}
		return ok
	})
	if a2.JobID != aSpot.JobID {
		t.Fatalf("reassigned part %s, want the preempted %s", a2.JobID, aSpot.JobID)
	}
	onDemand.result(a2, 3.0, "")

	waitUntil(t, 2*time.Second, "parent settles", func() bool {
		v, ok := h.s.Job(view.ID)
		return ok && v.State == StateDone
	})
	parent, ok := h.s.Job(view.ID)
	if !ok {
		t.Fatal("parent vanished")
	}
	if parent.PartsDone != 2 {
		t.Fatalf("parts done %d, want 2", parent.PartsDone)
	}
	if got := h.counter("fleet_lease_reassigned"); got != 1 {
		t.Fatalf("lease reassignments %d, want exactly 1 (the preempted part)", got)
	}

	// Zero loss, minimal re-work: the preempted part carries the extra
	// attempt, its sibling was never touched again.
	var preempted, sibling JobView
	for _, id := range parent.Parts {
		pv, ok := h.s.Job(id)
		if !ok {
			t.Fatalf("part %s vanished", id)
		}
		if pv.ID == aSpot.JobID {
			preempted = pv
		} else {
			sibling = pv
		}
	}
	if preempted.Attempts != 2 {
		t.Fatalf("preempted part attempts %d, want 2", preempted.Attempts)
	}
	if sibling.Attempts != 1 {
		t.Fatalf("untouched sibling attempts %d, want 1", sibling.Attempts)
	}

	// Exactly-once economics: both parts settled on the on-demand software
	// worker (default price), so the bill is (2s + 3s) at that rate — the
	// abandoned spot attempt contributes nothing.
	wantCents := backend.ServerSpec{Backend: backend.Software, Config: uarch.Baseline()}.
		FillDefaults().CostCents(2.0 + 3.0)
	if diff := parent.CostCents - wantCents; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("parent cost %.12f¢, want %.12f¢", parent.CostCents, wantCents)
	}
	if tot := h.s.Totals().CostCents; tot != parent.CostCents {
		t.Fatalf("totals cost %.12f¢, want %.12f¢", tot, parent.CostCents)
	}
	if preempted.Backend != string(backend.Software) {
		t.Fatalf("preempted part settled on %q, want software", preempted.Backend)
	}
}

// TestRenditionStitchesByteIdentical pins the server-side stitch: the
// bitstream GET /jobs/{id}/rendition returns for a segment-parallel job
// must equal the reference stitch of independently encoded segments.
func TestRenditionStitchesByteIdentical(t *testing.T) {
	ctx := context.Background()
	s, err := New(Config{
		Servers: sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 2),
		Proto:   tinyProto, Seed: 1, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.Start(runCtx)
	defer s.Stop()

	view, err := s.Submit(ctx, JobRequest{Video: "bbb", Segments: 2})
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
	// A settled part keeps its bitstream and nothing past it.
	rec, err := s.record(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rec.parts {
		p.mu.Lock()
		n, c := len(p.stream), cap(p.stream)
		p.mu.Unlock()
		if n == 0 || c != n {
			t.Fatalf("part %s retains its stream with len %d, cap %d", p.id, n, c)
		}
	}

	// Reference: encode the same segments independently, stitch locally.
	task := sched.Task{Video: "bbb", CRF: 23, Refs: 3, Preset: codec.PresetMedium}
	opts, err := task.Options()
	if err != nil {
		t.Fatal(err)
	}
	w := tinyProto
	w.Video = "bbb"
	segs, err := core.SegmentsFor(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]byte, len(segs))
	for i, sg := range segs {
		res, err := core.EncodeOnly(ctx, core.Job{Workload: w, Options: opts, Segment: sg})
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = res.Stream
	}
	want, err := codec.StitchStreams(streams)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/rendition")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rendition status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("rendition content type %q", ct)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stitched rendition differs from reference: %d vs %d bytes", len(got), len(want))
	}

	// Error surface: plain jobs carry no rendition, unknown rungs 404.
	plain, err := s.Submit(ctx, JobRequest{Video: "bbb"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitJob(ctx, plain.ID); err != nil {
		t.Fatal(err)
	}
	if _, status, eb := s.rendition(plain.ID, ""); status != http.StatusNotFound || eb.Reason != "no_rendition" {
		t.Fatalf("plain-job rendition: status %d reason %q", status, eb.Reason)
	}
	if _, status, eb := s.rendition(view.ID, "nope"); status != http.StatusNotFound || eb.Reason != "unknown_rung" {
		t.Fatalf("unknown rung: status %d reason %q", status, eb.Reason)
	}
}

// BenchmarkDispatchHeterogeneous measures one economic placement decision:
// a four-job warm batch against a ten-slot mixed fleet under the cost
// objective — the matrix build plus the masked Hungarian solve.
func BenchmarkDispatchHeterogeneous(b *testing.B) {
	fleet := make(sched.Fleet, 0, 10)
	for _, cfg := range uarch.TableIV() {
		fleet = append(fleet, backend.ServerSpec{Backend: backend.Software, Config: cfg}.FillDefaults())
	}
	for len(fleet) < 10 {
		fleet = append(fleet, backend.ServerSpec{Backend: backend.Accel}.FillDefaults())
	}
	s, err := New(Config{
		Servers: fleet, Objective: sched.ObjectiveCost,
		Proto: tinyProto, Seed: 1, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := codec.Defaults()
	batch := make([]*record, 4)
	for i := range batch {
		video := sched.GenerateTasks(len(batch), 9)[i].Video
		batch[i] = &record{
			seq: uint64(i + 1), task: sched.Task{Video: video}, opts: opts,
			deadlineSeconds: 1, pw: 128, ph: 80, pframes: 4,
		}
		s.learn(video, &perf.Report{Seconds: 4e-4, Topdown: perf.Topdown{
			FrontEnd: 20 + 10*float64(i), BadSpec: 10,
			MemBound: 30 - 5*float64(i), CoreBound: 20,
		}})
	}
	free := s.transport.freeSlots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.place(batch, free)
	}
}
