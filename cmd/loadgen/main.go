// Command loadgen drives an online serving instance (cmd/serve) with a
// deterministic open-loop arrival process and reports sojourn-time
// quantiles — the client side of the DESIGN.md §10 serving study.
//
//	loadgen -addr localhost:8080 -n 50 -rate 25 -seed 1
//	loadgen -compare -n 8 -seed 42
//
// Arrivals are Poisson (exponential interarrivals) but fully seeded:
// the i-th job's task parameters come from sched.GenerateTasks and its
// arrival gap from a per-index hash, so two runs with the same flags
// submit the identical workload on the identical schedule. The run fails
// (exit 1) if any admitted job is lost — neither completed, failed, nor
// canceled within -timeout — or if the server's /metrics snapshot does not
// expose the queue depth gauge and sojourn histogram the serving layer is
// supposed to publish.
//
// With -compare, no server is contacted: the same task sequence is served
// in-process once under smart placement and once under random, printing
// the completed-work delta (the online analogue of `paper -fig 9`).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

var (
	flagAddr     = flag.String("addr", "localhost:8080", "serve instance to drive: host:port or base URL (e.g. http://host:8080)")
	flagN        = flag.Int("n", 50, "jobs to submit")
	flagRate     = flag.Float64("rate", 25, "mean arrival rate, jobs/second")
	flagSeed     = flag.Uint64("seed", 1, "seed for tasks and interarrival gaps")
	flagClasses  = flag.String("classes", "live,batch", "fairness classes cycled across jobs")
	flagTimeout  = flag.Duration("timeout", 120*time.Second, "deadline for all jobs to reach a terminal state")
	flagCompare  = flag.Bool("compare", false, "run the in-process smart-vs-random comparison instead of driving a server")
	flagSegs     = flag.Int("segments", 1, "segments per job: every submission fans out into this many independently placed segment parts")
	flagLadder   = flag.String("ladder", "", "comma-separated rung CRFs (e.g. 23,33,43): every submission becomes an ABR ladder job")
	flagPool     = flag.String("pool", "baseline,fe_op,be_op1,be_op2,bs_op", "fleet server specs, name[:price][:spot] (-compare/-compare-cost only)")
	flagEach     = flag.Int("each", 1, "replicas of each -pool entry (-compare/-compare-cost only)")
	flagFrames   = flag.Int("frames", 8, "frames per job (-compare/-compare-cost only)")
	flagScale    = flag.Int("scale", 0, "proxy downscale factor (-compare/-compare-cost only)")
	flagCmpCost  = flag.Bool("compare-cost", false, "run the in-process cost-vs-seconds objective comparison over the -pool fleet")
	flagDeadline = flag.Float64("deadline", 0, "per-job deadline in simulated seconds, carried on every submission (0: none)")
	flagBudget   = flag.Float64("budget", 0, "per-job cost budget in cents; the run fails if the mean cost of completed jobs exceeds it (0: no check)")
)

func main() {
	cli.Main("loadgen", run)
}

func run(ctx context.Context) error {
	if *flagCompare {
		return runCompare(ctx)
	}
	if *flagCmpCost {
		return runCompareCost(ctx)
	}
	return runLoad(ctx)
}

// splitmix64 mirrors the serving layer's per-index hash so arrival gaps
// are deterministic without sharing RNG state across jobs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// gap returns the i-th exponential interarrival time for the given rate.
func gap(seed uint64, i int, rate float64) time.Duration {
	u := float64(splitmix64(seed^uint64(i))>>11) / float64(1<<53) // [0,1)
	d := -math.Log(1-u) / rate
	return time.Duration(d * float64(time.Second))
}

type submitted struct {
	id    string
	class string
}

// ladderRungs parses -ladder into rung specs: one rung per CRF, named
// after it, all inheriting the job's preset and refs.
func ladderRungs() ([]serve.Rung, error) {
	if *flagLadder == "" {
		return nil, nil
	}
	crfs, err := cli.Ints(*flagLadder)
	if err != nil {
		return nil, fmt.Errorf("-ladder: %w", err)
	}
	rungs := make([]serve.Rung, len(crfs))
	for i, crf := range crfs {
		rungs[i] = serve.Rung{Name: fmt.Sprintf("crf%d", crf), CRF: crf}
	}
	return rungs, nil
}

func runLoad(ctx context.Context) error {
	tasks := sched.GenerateTasks(*flagN, *flagSeed)
	classes := cli.Strings(*flagClasses)
	if len(classes) == 0 {
		classes = []string{""}
	}
	rungs, err := ladderRungs()
	if err != nil {
		return err
	}
	multi := *flagSegs > 1 || len(rungs) > 0
	base := cli.BaseURL(*flagAddr)
	client := &http.Client{Timeout: 10 * time.Second}
	reg := obs.NewRegistry()
	sojourn := reg.Histogram("loadgen_sojourn_ns")

	var accepted []submitted
	var rejected, infeasible int
	for i, task := range tasks {
		select {
		case <-time.After(gap(*flagSeed, i, *flagRate)):
		case <-ctx.Done():
			return ctx.Err()
		}
		req := serve.JobRequest{
			Video: task.Video, CRF: task.CRF, Refs: task.Refs,
			Preset: string(task.Preset), Class: classes[i%len(classes)],
			Ladder: rungs, DeadlineSeconds: *flagDeadline,
		}
		if *flagSegs > 1 {
			req.Segments = *flagSegs
		}
		body, _ := json.Marshal(req)
		resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		var view serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted && err == nil:
			accepted = append(accepted, submitted{id: view.ID, class: view.Class})
		case resp.StatusCode == http.StatusTooManyRequests:
			rejected++ // admission control doing its job, not a lost job
		case resp.StatusCode == http.StatusUnprocessableEntity:
			infeasible++ // deadline-infeasible at admission: rejected, not lost
		default:
			return fmt.Errorf("submit %d: status %d (%v)", i, resp.StatusCode, err)
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d submitted, %d accepted, %d rejected, %d deadline-infeasible\n",
		len(tasks), len(accepted), rejected, infeasible)

	// Poll every accepted job to a terminal state within the deadline.
	deadline := time.Now().Add(*flagTimeout)
	var done, failed, canceled, lost, missed int
	var costCents float64
	var parents []serve.JobView
	for _, sub := range accepted {
		final, err := pollJob(ctx, client, base, sub.id, deadline)
		if err != nil {
			return err
		}
		costCents += final.CostCents
		switch final.State {
		case serve.StateDone:
			done++
			if final.DeadlineMiss {
				missed++
			}
			sojourn.Observe(int64(final.Finished.Sub(final.Submitted)))
			if multi {
				parents = append(parents, final)
			}
		case serve.StateFailed:
			failed++
		case serve.StateCanceled:
			canceled++
		default:
			lost++
			fmt.Fprintf(os.Stderr, "loadgen: job %s still %s at deadline\n", sub.id, final.State)
		}
	}

	if h, ok := reg.Snapshot().HistogramByName("loadgen_sojourn_ns"); ok && h.Count > 0 {
		fmt.Printf("loadgen: %d jobs done, sojourn p50 %s p95 %s p99 %s (max %s)\n",
			done, obs.FmtDuration(h.P50), obs.FmtDuration(h.P95), obs.FmtDuration(h.P99),
			obs.FmtDuration(h.Max))
	}
	fmt.Printf("loadgen: outcomes: %d done, %d failed, %d canceled, %d rejected, %d infeasible, %d lost\n",
		done, failed, canceled, rejected, infeasible, lost)
	if done > 0 {
		missRate := float64(missed) / float64(done)
		fmt.Printf("loadgen: economics: %.6f¢ total, %.6f¢/job, %d deadline misses (%.1f%% of completed)\n",
			costCents, costCents/float64(done), missed, 100*missRate)
	}

	if err := checkServerMetrics(client, base, multi); err != nil {
		return err
	}
	if err := checkCostLedger(client, base, costCents); err != nil {
		return err
	}
	if multi {
		if err := verifyParts(client, base, parents); err != nil {
			return err
		}
	}
	if lost > 0 {
		return fmt.Errorf("%d jobs lost (admitted but not terminal within %s)", lost, *flagTimeout)
	}
	if failed > 0 {
		return fmt.Errorf("%d jobs failed", failed)
	}
	if *flagBudget > 0 && done > 0 && costCents/float64(done) > *flagBudget {
		return fmt.Errorf("mean cost %.6f¢/job exceeds the %.6f¢ budget", costCents/float64(done), *flagBudget)
	}
	return nil
}

// checkCostLedger cross-checks the client-side cost tally against the
// server's own Totals: every cent the jobs report must appear exactly once
// in the server ledger. The server may have served other clients, so its
// total is only required to be >= ours (and consistent within float noise
// when we are the sole client and they match closely).
func checkCostLedger(client *http.Client, base string, clientCents float64) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	var body struct {
		Totals serve.Totals `json:"totals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if body.Totals.CostCents+1e-9 < clientCents {
		return fmt.Errorf("cost ledger: server records %.9f¢ but jobs reported %.9f¢",
			body.Totals.CostCents, clientCents)
	}
	fmt.Fprintf(os.Stderr, "loadgen: cost ledger ok (server %.6f¢ >= client %.6f¢)\n",
		body.Totals.CostCents, clientCents)
	return nil
}

func pollJob(ctx context.Context, client *http.Client, base, id string, deadline time.Time) (serve.JobView, error) {
	var view serve.JobView
	for {
		resp, err := client.Get(base + "/jobs/" + id)
		if err != nil {
			return view, fmt.Errorf("poll %s: %w", id, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return view, fmt.Errorf("poll %s: %w", id, err)
		}
		switch view.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return view, nil
		}
		if time.Now().After(deadline) {
			return view, nil // caller counts it lost
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return view, ctx.Err()
		}
	}
}

// checkServerMetrics asserts the serving instance publishes the queue and
// sojourn instrumentation on /metrics — the observability contract the CI
// smoke test pins. In multi-part mode it additionally requires the segment
// fan-out instrumentation and a balanced part ledger: every part the
// server admitted must also have completed, however many times its lease
// was reassigned along the way.
func checkServerMetrics(client *http.Client, base string, multi bool) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if !gaugeExists(snap, "queue_depth") {
		return fmt.Errorf("metrics: server exposes no queue_depth gauge")
	}
	for _, h := range []string{"serve_sojourn_ns", "queue_wait_ns"} {
		if _, ok := snap.HistogramByName(h); !ok {
			return fmt.Errorf("metrics: server exposes no %s histogram", h)
		}
	}
	fmt.Fprintln(os.Stderr, "loadgen: server metrics ok (queue depth gauge + sojourn histograms present)")
	if !multi {
		return nil
	}
	for _, h := range []string{"serve_fanout_ns", "serve_stitch_ns"} {
		if hs, ok := snap.HistogramByName(h); !ok || hs.Count == 0 {
			return fmt.Errorf("metrics: server exposes no %s observations", h)
		}
	}
	sub := snap.CounterTotal("serve_parts_submitted")
	comp := snap.CounterTotal("serve_parts_completed")
	if sub == 0 || sub != comp {
		return fmt.Errorf("metrics: part ledger unbalanced: %d submitted, %d completed", sub, comp)
	}
	fmt.Fprintf(os.Stderr, "loadgen: part ledger balanced (%d parts submitted and completed)\n", sub)
	return nil
}

// verifyParts walks every completed parent's part jobs and asserts the job
// graph settled without loss: every part done, and every requeue confined
// to individual parts — siblings of a reassigned part keep attempts == 1,
// which is the per-segment (not whole-job) recovery contract
// scripts/ladder_smoke.sh pins after killing a worker mid-segment.
func verifyParts(client *http.Client, base string, parents []serve.JobView) error {
	var total, reassigned, untouched int
	for _, p := range parents {
		if p.PartsTotal == 0 || p.PartsDone != p.PartsTotal {
			return fmt.Errorf("parts: job %s done with %d/%d parts", p.ID, p.PartsDone, p.PartsTotal)
		}
		re := 0
		for _, id := range p.Parts {
			resp, err := client.Get(base + "/jobs/" + id)
			if err != nil {
				return fmt.Errorf("parts: %s: %w", id, err)
			}
			var pv serve.JobView
			err = json.NewDecoder(resp.Body).Decode(&pv)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("parts: %s: %w", id, err)
			}
			if pv.State != serve.StateDone {
				return fmt.Errorf("parts: %s is %s under a done parent", id, pv.State)
			}
			total++
			if pv.Attempts > 1 {
				re++
			}
		}
		reassigned += re
		if re > 0 {
			untouched += p.PartsTotal - re
		}
	}
	fmt.Printf("loadgen: parts: %d done, %d reassigned, %d untouched siblings of reassigned parents\n",
		total, reassigned, untouched)
	return nil
}

func gaugeExists(snap obs.Snapshot, name string) bool {
	for k := range snap.Gauges {
		if k == name || len(k) > len(name) && k[:len(name)+1] == name+"{" {
			return true
		}
	}
	return false
}

// runCompareCost serves the same tasks under the seconds and cost
// objectives over a (typically mixed) fleet and prints the bill delta.
func runCompareCost(ctx context.Context) error {
	fleet, err := backend.ParseFleet(*flagPool, *flagEach)
	if err != nil {
		return err
	}
	tasks := sched.GenerateTasks(*flagN, *flagSeed)
	proto := core.Workload{Frames: *flagFrames, Scale: *flagScale}
	fmt.Fprintf(os.Stderr, "loadgen: comparing cost vs seconds objectives over %d jobs on %d servers...\n",
		len(tasks), len(fleet))
	c, err := serve.RunCostComparison(ctx, fleet, tasks, proto, *flagSeed)
	if err != nil {
		return err
	}
	fmt.Printf("seconds-objective: %d completed, %.3f fleet-seconds, %.6f¢, %d deadline misses\n",
		c.Seconds.Completed, c.Seconds.SimSeconds, c.Seconds.CostCents, c.Seconds.DeadlineMisses)
	fmt.Printf("cost-objective:    %d completed, %.3f fleet-seconds, %.6f¢, %d deadline misses\n",
		c.Cost.Completed, c.Cost.SimSeconds, c.Cost.CostCents, c.Cost.DeadlineMisses)
	fmt.Printf("savings: cost-aware placement avoids %.1f%% of the seconds-objective bill\n", 100*c.Savings())
	return nil
}

func runCompare(ctx context.Context) error {
	fleet, err := backend.ParseFleet(*flagPool, *flagEach)
	if err != nil {
		return err
	}
	tasks := sched.GenerateTasks(*flagN, *flagSeed)
	proto := core.Workload{Frames: *flagFrames, Scale: *flagScale}
	fmt.Fprintf(os.Stderr, "loadgen: comparing smart vs random over %d jobs on %d servers...\n",
		len(tasks), len(fleet))
	c, err := serve.RunComparison(ctx, fleet, tasks, proto, *flagSeed)
	if err != nil {
		return err
	}
	fmt.Printf("smart:  %d completed, %.3f fleet-seconds\n", c.Smart.Completed, c.Smart.SimSeconds)
	fmt.Printf("random: %d completed, %.3f fleet-seconds\n", c.Random.Completed, c.Random.SimSeconds)
	fmt.Printf("delta:  smart frees %+.2f%% of the fleet time random spends\n", 100*c.Delta())
	return nil
}
