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
	flagTimeout  = flag.Duration("timeout", 120*time.Second, "deadline for each admitted job to reach a terminal state, counted from its admission")
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

// submitted is an accepted job and the time by which it must be terminal
// (-timeout after its admission).
type submitted struct {
	id       string
	deadline time.Time
}

// collection is what the collector read of the accepted jobs: outcome
// counts, the cost they report and, for multi-part jobs, their parts.
type collection struct {
	done, failed, canceled, lost, missed int
	costCents                            float64
	// parts counts the parts of done parents; reassigned, those run more
	// than once; untouched, their siblings that ran once.
	parts, reassigned, untouched int
	err                          error
}

// collect polls the accepted jobs until each is terminal or past its
// deadline (lost). Every round reads every pending job once, so a job is
// read within one round of settling however the jobs ahead of it fare
// (a round lasts 20 ms, or 5 ms per pending job), and a done parent's
// parts are read right after the parent.
func collect(ctx context.Context, client *http.Client, base string, accepted <-chan submitted,
	multi bool, sojourn *obs.Histogram) (c collection) {
	var pending []submitted
	for open := true; open || len(pending) > 0; {
		// Take the jobs accepted since the last round; wait for one when
		// none is pending.
	take:
		for open {
			var sub submitted
			if len(pending) == 0 {
				sub, open = <-accepted
			} else {
				select {
				case sub, open = <-accepted:
				default:
					break take
				}
			}
			if open {
				pending = append(pending, sub)
			}
		}
		still := pending[:0]
		for _, sub := range pending {
			final, err := getJob(client, base, sub.id)
			if err != nil {
				c.err = fmt.Errorf("poll %s: %w", sub.id, err)
				return c
			}
			switch final.State {
			case serve.StateDone:
				c.done++
				if final.DeadlineMiss {
					c.missed++
				}
				sojourn.Observe(int64(final.Finished.Sub(final.Submitted)))
				if multi {
					if c.err = c.collectParts(client, base, final); c.err != nil {
						return c
					}
				}
			case serve.StateFailed:
				c.failed++
			case serve.StateCanceled:
				c.canceled++
			default:
				if time.Now().Before(sub.deadline) {
					still = append(still, sub)
					continue
				}
				c.lost++
				fmt.Fprintf(os.Stderr, "loadgen: job %s still %s at deadline\n", sub.id, final.State)
			}
			c.costCents += final.CostCents
		}
		pending = still
		if len(pending) == 0 {
			continue
		}
		// At most 200 reads a second, so polling a deep backlog does not
		// crowd out the server being measured.
		select {
		case <-time.After(max(20*time.Millisecond, time.Duration(len(pending))*5*time.Millisecond)):
		case <-ctx.Done():
			c.err = ctx.Err()
			return c
		}
	}
	return c
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

// submitAll submits the tasks on their seeded arrival schedule and sends
// each accepted job to accepted. Jobs the server turns away at admission
// (429 queue full, 422 deadline-infeasible) are counted, not lost.
func submitAll(ctx context.Context, client *http.Client, base string, tasks []sched.Task,
	classes []string, rungs []serve.Rung, accepted chan<- submitted) (rejected, infeasible int, err error) {
	n := 0
	for i, task := range tasks {
		select {
		case <-time.After(gap(*flagSeed, i, *flagRate)):
		case <-ctx.Done():
			return rejected, infeasible, ctx.Err()
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
			return rejected, infeasible, fmt.Errorf("submit %d: %w", i, err)
		}
		var view serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted && err == nil:
			n++
			accepted <- submitted{id: view.ID, deadline: time.Now().Add(*flagTimeout)}
		case resp.StatusCode == http.StatusTooManyRequests:
			rejected++ // admission control doing its job, not a lost job
		case resp.StatusCode == http.StatusUnprocessableEntity:
			infeasible++ // deadline-infeasible at admission: rejected, not lost
		default:
			return rejected, infeasible, fmt.Errorf("submit %d: status %d (%v)", i, resp.StatusCode, err)
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d submitted, %d accepted, %d rejected, %d deadline-infeasible\n",
		len(tasks), n, rejected, infeasible)
	return rejected, infeasible, nil
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

	// The collector reads accepted jobs while later ones are still being
	// submitted, so each result is read soon after it settles, before the
	// server's retention window forgets it. accepted holds every
	// submission, so submitting never waits on the collector.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	accepted := make(chan submitted, len(tasks))
	collected := make(chan collection, 1)
	go func() { collected <- collect(ctx, client, base, accepted, multi, sojourn) }()
	rejected, infeasible, err := submitAll(ctx, client, base, tasks, classes, rungs, accepted)
	close(accepted)
	if err != nil {
		cancel()
		<-collected
		return err
	}
	c := <-collected
	if c.err != nil {
		return c.err
	}
	if h, ok := reg.Snapshot().HistogramByName("loadgen_sojourn_ns"); ok && h.Count > 0 {
		fmt.Printf("loadgen: %d jobs done, sojourn p50 %s p95 %s p99 %s (max %s)\n",
			c.done, obs.FmtDuration(h.P50), obs.FmtDuration(h.P95), obs.FmtDuration(h.P99),
			obs.FmtDuration(h.Max))
	}
	fmt.Printf("loadgen: outcomes: %d done, %d failed, %d canceled, %d rejected, %d infeasible, %d lost\n",
		c.done, c.failed, c.canceled, rejected, infeasible, c.lost)
	if c.done > 0 {
		missRate := float64(c.missed) / float64(c.done)
		fmt.Printf("loadgen: economics: %.6f¢ total, %.6f¢/job, %d deadline misses (%.1f%% of completed)\n",
			c.costCents, c.costCents/float64(c.done), c.missed, 100*missRate)
	}

	if err := checkServerMetrics(client, base, multi); err != nil {
		return err
	}
	if err := checkCostLedger(client, base, c.costCents); err != nil {
		return err
	}
	if multi {
		fmt.Printf("loadgen: parts: %d done, %d reassigned, %d untouched siblings of reassigned parents\n",
			c.parts, c.reassigned, c.untouched)
	}
	if c.lost > 0 {
		return fmt.Errorf("%d jobs lost (admitted but not terminal within %s)", c.lost, *flagTimeout)
	}
	if c.failed > 0 {
		return fmt.Errorf("%d jobs failed", c.failed)
	}
	if *flagBudget > 0 && c.done > 0 && c.costCents/float64(c.done) > *flagBudget {
		return fmt.Errorf("mean cost %.6f¢/job exceeds the %.6f¢ budget", c.costCents/float64(c.done), *flagBudget)
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

// getJob fetches GET /jobs/{id}. Any answer but 200 is an error naming
// the status, and the reason for an id the server does not hold: unknown
// (404, never issued) or gone (410, forgotten past its retention window).
func getJob(client *http.Client, base, id string) (serve.JobView, error) {
	var view serve.JobView
	resp, err := client.Get(base + "/jobs/" + id)
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error  string `json:"error"`
			Reason string `json:"reason"`
		}
		json.NewDecoder(resp.Body).Decode(&eb)
		return view, fmt.Errorf("status %d, %s: %s", resp.StatusCode, eb.Reason, eb.Error)
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	return view, err
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

// collectParts reads a done parent's part jobs and asserts the job graph
// settled without loss: every part done, and every requeue confined to
// individual parts — siblings of a reassigned part keep attempts == 1,
// which is the per-segment (not whole-job) recovery contract
// `scripts/smoke.sh ladder` pins after killing a worker mid-segment.
func (c *collection) collectParts(client *http.Client, base string, p serve.JobView) error {
	if p.PartsTotal == 0 || p.PartsDone != p.PartsTotal {
		return fmt.Errorf("parts: job %s done with %d/%d parts", p.ID, p.PartsDone, p.PartsTotal)
	}
	re := 0
	for _, id := range p.Parts {
		pv, err := getJob(client, base, id)
		if err != nil {
			return fmt.Errorf("parts: %s: %w", id, err)
		}
		if pv.State != serve.StateDone {
			return fmt.Errorf("parts: %s is %s under a done parent", id, pv.State)
		}
		c.parts++
		if pv.Attempts > 1 {
			re++
		}
	}
	c.reassigned += re
	if re > 0 {
		c.untouched += p.PartsTotal - re
	}
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

// closedLoopAB serves the seeded -n tasks over the -pool fleet twice
// through serve.RunClosedLoop: under cfg, then under cfg as flip changes
// it. what names the comparison on stderr.
func closedLoopAB(ctx context.Context, what string, cfg serve.Config, flip func(*serve.Config)) (a, b serve.Totals, err error) {
	if cfg.Servers, err = backend.ParseFleet(*flagPool, *flagEach); err != nil {
		return a, b, err
	}
	tasks := sched.GenerateTasks(*flagN, *flagSeed)
	cfg.Proto, cfg.Seed = core.Workload{Frames: *flagFrames, Scale: *flagScale}, *flagSeed
	fmt.Fprintf(os.Stderr, "loadgen: comparing %s over %d jobs on %d servers...\n",
		what, len(tasks), len(cfg.Servers))
	if a, err = serve.RunClosedLoop(ctx, cfg, tasks); err != nil {
		return a, b, err
	}
	flip(&cfg)
	b, err = serve.RunClosedLoop(ctx, cfg, tasks)
	return a, b, err
}

// runCompareCost serves the same tasks under the seconds and cost
// objectives over a (typically mixed) fleet and prints the bill delta: the
// share of the seconds-objective bill the cost objective avoids.
func runCompareCost(ctx context.Context) error {
	secs, cost, err := closedLoopAB(ctx, "cost vs seconds objectives",
		serve.Config{Objective: sched.ObjectiveSeconds},
		func(c *serve.Config) { c.Objective = sched.ObjectiveCost })
	if err != nil {
		return err
	}
	var savings float64
	if secs.CostCents != 0 {
		savings = (secs.CostCents - cost.CostCents) / secs.CostCents
	}
	fmt.Printf("seconds-objective: %d completed, %.3f fleet-seconds, %.6f¢, %d deadline misses\n",
		secs.Completed, secs.SimSeconds, secs.CostCents, secs.DeadlineMisses)
	fmt.Printf("cost-objective:    %d completed, %.3f fleet-seconds, %.6f¢, %d deadline misses\n",
		cost.Completed, cost.SimSeconds, cost.CostCents, cost.DeadlineMisses)
	fmt.Printf("savings: cost-aware placement avoids %.1f%% of the seconds-objective bill\n", 100*savings)
	return nil
}

// runCompare serves the same tasks under smart and random placement and
// prints the delta: the share of random's fleet-seconds smart does not
// spend.
func runCompare(ctx context.Context) error {
	smart, random, err := closedLoopAB(ctx, "smart vs random",
		serve.Config{Policy: serve.PolicySmart},
		func(c *serve.Config) { c.Policy = serve.PolicyRandom })
	if err != nil {
		return err
	}
	var delta float64
	if random.SimSeconds != 0 {
		delta = (random.SimSeconds - smart.SimSeconds) / random.SimSeconds
	}
	fmt.Printf("smart:  %d completed, %.3f fleet-seconds\n", smart.Completed, smart.SimSeconds)
	fmt.Printf("random: %d completed, %.3f fleet-seconds\n", random.Completed, random.SimSeconds)
	fmt.Printf("delta:  smart frees %+.2f%% of the fleet time random spends\n", 100*delta)
	return nil
}
