package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

// TestCollectFailsFastOnUnheldIDs: collecting an id the server never
// issued, or a job or part it forgot, fails at once with the reason
// instead of polling until -timeout and reporting the job lost.
func TestCollectFailsFastOnUnheldIDs(t *testing.T) {
	// The two answers serve gives an id it does not hold.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status, reason := http.StatusNotFound, "unknown"
		if strings.HasPrefix(r.URL.Path, "/jobs/job-1") {
			status, reason = http.StatusGone, "gone"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]string{"error": "not held", "reason": reason})
	}))
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	sojourn := obs.NewRegistry().Histogram("sojourn")

	for id, want := range map[string]string{"job-999": "status 404, unknown", "job-1": "status 410, gone"} {
		accepted := make(chan submitted, 1)
		accepted <- submitted{id: id, deadline: time.Now().Add(time.Minute)}
		close(accepted)
		start := time.Now()
		c := collect(context.Background(), client, ts.URL, accepted, false, sojourn)
		if c.err == nil || !strings.Contains(c.err.Error(), want) {
			t.Errorf("collect(%s): %v, want an error saying %s", id, c.err, want)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("collect(%s) took %s", id, d)
		}
	}
	var c collection
	parent := serve.JobView{ID: "job-1", PartsTotal: 2, PartsDone: 2, Parts: []string{"job-1.1", "job-1.2"}}
	if err := c.collectParts(client, ts.URL, parent); err == nil || !strings.Contains(err.Error(), "status 410, gone") {
		t.Errorf("collectParts over forgotten parts: %v, want an error saying gone", err)
	}
}

// TestLadderRunOutlastsRetentionWindow drives a real server with more
// two-segment, three-rung ladder jobs than its default retention window
// holds. The server must forget some of them during the run, and loadgen
// must still read every job and every part before it is forgotten.
func TestLadderRunOutlastsRetentionWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 100 ladder jobs")
	}
	// cmd/serve's default pool, at the benchmark's proxy sizes. The queue
	// admits every part and no job times out, however slow the machine,
	// so all 100 ladders (about 3.3 MB of charges) settle.
	specs, err := backend.ParseFleet(*flagPool, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := serve.New(serve.Config{
		Servers: sched.Fleet(specs), Proto: core.Workload{Frames: 8, Scale: 8},
		QueueDepth: 1024, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for flag, v := range map[*int]int{flagN: 100, flagSegs: 2} {
		old := *flag
		*flag = v
		defer func() { *flag = old }()
	}
	oldAddr, oldLadder, oldRate, oldTimeout := *flagAddr, *flagLadder, *flagRate, *flagTimeout
	*flagAddr, *flagLadder, *flagRate, *flagTimeout = ts.URL, "23,33,43", 10, time.Hour
	defer func() { *flagAddr, *flagLadder, *flagRate, *flagTimeout = oldAddr, oldLadder, oldRate, oldTimeout }()

	if err := runLoad(ctx); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if forgotten := snap.CounterTotal("serve_records_forgotten"); forgotten == 0 {
		t.Fatalf("the server forgot no job: the run fit the retention window (%d records, %d B retained) and tests nothing",
			snap.Gauges["serve_records"], snap.Gauges["serve_retained_bytes"])
	}
}
