// abrladder builds a per-title adaptive-bitrate ladder the way the serving
// layer does it: one POST /jobs request whose ladder of rungs fans out into
// independently placed rung jobs (here rung × segment parts), all reusing
// the single shared codec.Analysis artifact of the title. The example
// stands up an in-process orchestrator with a real HTTP listener, submits
// the ladder over the wire, waits for the parent job to settle, and then
// proves the shared-analysis economics from the metrics registry: N rungs
// cost exactly one analysis build plus N-1 cache hits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/uarch"
)

// ladder is the rung plan: one rendition per quality tier, highest first.
// CRF is the quality knob; every rung inherits the job's preset and refs.
var ladder = []serve.Rung{
	{Name: "high", CRF: 20},
	{Name: "medium", CRF: 30},
	{Name: "low", CRF: 40},
	{Name: "minimal", CRF: 48},
}

func main() {
	const video = "house"
	hitKey := obs.Key("core_cache_hits", "cache", "analysis")
	missKey := obs.Key("core_cache_misses", "cache", "analysis")
	before := obs.Default().Snapshot()

	// A two-server loopback fleet: parts are placed independently, so even
	// this tiny example runs two rungs at a time.
	s, err := serve.New(serve.Config{
		Servers: sched.SoftwareFleet([]uarch.Config{uarch.Baseline()}, 2),
		Proto:   core.Workload{Frames: 8, Scale: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	body, _ := json.Marshal(serve.JobRequest{Video: video, Ladder: ladder, Segments: 2})
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var parent serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&parent); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted ladder job %s for %s: %d rungs x 2 segments = %d parts\n\n",
		parent.ID, video, len(ladder), parent.PartsTotal)

	parent = waitDone(base, parent.ID)
	fmt.Printf("%-10s  %-8s  %4s  %-7s  %12s\n", "part", "rung", "crf", "segment", "sim seconds")
	for _, id := range parent.Parts {
		pv := getJob(base, id)
		seg := "whole"
		if pv.Segment != nil {
			seg = pv.Segment.String()
		}
		fmt.Printf("%-10s  %-8s  %4d  %-7s  %12.3f\n", pv.ID, pv.Rung, pv.CRF, seg, pv.SimSeconds)
	}
	fmt.Printf("\nladder settled in %s of simulated fleet time (%d/%d parts)\n",
		fmt.Sprintf("%.3fs", parent.SimSeconds), parent.PartsDone, parent.PartsTotal)

	// The shared-analysis claim, read off the default metrics registry: the
	// first rung of each segment builds the artifact, every other rung hits.
	after := obs.Default().Snapshot()
	hits := after.Counters[hitKey] - before.Counters[hitKey]
	misses := after.Counters[missKey] - before.Counters[missKey]
	const segments = 2
	wantMisses, wantHits := int64(segments), int64(segments*(len(ladder)-1))
	fmt.Printf("analysis artifacts: %d built, %d reused (want %d built, %d reused: N-1 hits per segment)\n",
		misses, hits, wantMisses, wantHits)
	if misses != wantMisses || hits != wantHits {
		log.Fatalf("rungs did not share analysis artifacts")
	}
}

func getJob(base, id string) serve.JobView {
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var v serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		log.Fatal(err)
	}
	return v
}

func waitDone(base, id string) serve.JobView {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v := getJob(base, id)
		switch v.State {
		case serve.StateDone:
			return v
		case serve.StateFailed, serve.StateCanceled:
			log.Fatalf("ladder job %s: %s (%s)", id, v.State, v.Error)
		}
		if time.Now().After(deadline) {
			log.Fatalf("ladder job %s did not settle", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
