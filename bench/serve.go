package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/uarch"
	"repro/internal/worker"
)

// The serve workloads drive serve.Server.Handler() over real loopback HTTP
// in a closed loop: clients connections, each keeping outstanding jobs in
// flight and submitting the next only when one is in hand. The load shape
// is fixed — it does not grow with the host's core count.
const (
	clients     = 2
	outstanding = 4
	executors   = 2
)

// ladderFleet is serve_ladder's mixed priced fleet (backend.ParseFleet).
const ladderFleet = "baseline,fe_op,be_op1,be_op2,bs_op,accel::spot"

var ladderRungs = []serve.Rung{{Name: "hi", CRF: 23}, {Name: "mid", CRF: 33}, {Name: "lo", CRF: 43}}

// The task populations are constants. GenerateTasks draws videos from 480p
// to 2160p and presets from ultrafast to slow, so two independent draws
// differ in total work by several percent; the run seed decides the order
// of the tasks, the placement seed and the content of every video instead.
// The ladder's ten hold no 2160p title: at scale 8 it is eight times the
// work of a 720p one, and a single job would set the cycle time.
const (
	fleetPopulationSeed  = 20
	ladderPopulationSeed = 28
)

type serveSizing struct {
	fleet      bool // networked pull workers; otherwise in-process loopback
	ladder     bool
	proto      core.Workload
	population int // distinct tasks; the clients cycle through them and stop on a cycle boundary
	popSeed    uint64
	// window is how many completions close a throughput window: whole
	// cycles, so that with 8 jobs in flight and completions out of order a
	// window still holds close to the population's mix of work.
	window      int
	setups      int
	sampleFloor int // fewest jobs a full run is designed to complete
}

func fleetSizing(tiny bool) serveSizing {
	if tiny {
		return serveSizing{fleet: true, proto: core.Workload{Frames: 4, Scale: 16}, population: 8, popSeed: fleetPopulationSeed, window: 8, setups: 1, sampleFloor: 8}
	}
	return serveSizing{fleet: true, proto: core.Workload{Frames: 4, Scale: 16}, population: 120, popSeed: fleetPopulationSeed, window: 120, setups: 3, sampleFloor: 400}
}

func ladderSizing(tiny bool) serveSizing {
	if tiny {
		return serveSizing{ladder: true, proto: core.Workload{Frames: 4, Scale: 16}, population: 3, popSeed: ladderPopulationSeed, window: 3, setups: 1, sampleFloor: 3}
	}
	return serveSizing{ladder: true, proto: core.Workload{Frames: 8, Scale: 8}, population: 10, popSeed: ladderPopulationSeed, window: 20, setups: 3, sampleFloor: 80}
}

func runServeFleet(ctx context.Context, p params, rec *recorder) (*outcome, error) {
	return runServe(ctx, p, rec, fleetSizing(p.tiny))
}

func runServeLadder(ctx context.Context, p params, rec *recorder) (*outcome, error) {
	return runServe(ctx, p, rec, ladderSizing(p.tiny))
}

// instance is one serving stack: orchestrator, listener and (fleet mode)
// its two in-process workers.
type instance struct {
	srv  *serve.Server
	ts   *httptest.Server
	reg  *obs.Registry
	stop func()
}

// startInstance is one complete set-up: build the server, profile the
// catalog into its cost model (Server.Warm), pre-fill core's caches for
// every unit the workload will place, open the listener and, in fleet mode,
// register both workers and wait until each has a poll parked.
func startInstance(ctx context.Context, sz serveSizing, proto core.Workload, seed uint64, tasks []sched.Task) (*instance, error) {
	videos := make([]string, len(tasks))
	for i, t := range tasks {
		videos[i] = t.Video
	}
	reg := obs.NewRegistry()
	cfg := serve.Config{Proto: proto, Seed: seed, Metrics: reg}
	if sz.fleet {
		cfg.Fleet = &serve.FleetOptions{PollWait: time.Second}
	} else {
		fleet, err := backend.ParseFleet(ladderFleet, 1)
		if err != nil {
			return nil, err
		}
		cfg.Servers, cfg.Objective, cfg.Workers = fleet, sched.ObjectiveCost, executors
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	srv.Start(runCtx)
	if err := srv.Warm(ctx, videos); err != nil {
		cancel()
		return nil, err
	}
	if err := prefill(ctx, sz, proto, tasks); err != nil {
		cancel()
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	var workers sync.WaitGroup
	inst := &instance{srv: srv, ts: ts, reg: reg}
	var once sync.Once
	inst.stop = func() {
		once.Do(func() {
			cancel() // workers fall out of their polls; the drained dispatcher exits
			workers.Wait()
			srv.Stop()
			ts.Close()
		})
	}
	if !sz.fleet {
		return inst, nil
	}
	for _, cfgName := range []string{"baseline", "fe_op"} {
		uc, _ := uarch.ByName(cfgName)
		w, err := worker.New(worker.Options{
			Orchestrator: ts.URL, ID: "w-" + cfgName, Config: uc,
			Heartbeat: 250 * time.Millisecond, Metrics: reg,
		})
		if err != nil {
			inst.stop()
			return nil, err
		}
		workers.Add(1)
		go func() {
			defer workers.Done()
			// Run only returns once runCtx is canceled; that error is the stop signal.
			_ = w.Run(runCtx)
		}()
	}
	if err := waitParked(ctx, ts.URL, executors); err != nil {
		inst.stop()
		return nil, err
	}
	return inst, nil
}

// prefill builds what Server.Warm leaves cold. Warm profiles each video
// once, whole-clip, medium preset, on baseline; a placed unit needs the
// analysis artifact of its own preset and segment and the machine snapshots
// of the config it lands on. Left to the timed region, those ~100 one-time
// builds arrive in whatever order placement happens to produce and decide
// the first cycles' throughput. So set-up runs the cheapest encode (crf 51,
// one reference) for every (video, preset) x segment x software config.
func prefill(ctx context.Context, sz serveSizing, proto core.Workload, tasks []sched.Task) error {
	configs := []uarch.Config{uarch.Baseline(), uarch.FeOp()}
	parts := 1
	if sz.ladder {
		fleet, err := backend.ParseFleet(ladderFleet, 1)
		if err != nil {
			return err
		}
		configs = configs[:0]
		for _, spec := range fleet {
			if spec.Backend == backend.Software {
				configs = append(configs, spec.Config)
			}
		}
		parts = 2
	}
	type unit struct {
		video  string
		preset codec.Preset
	}
	seen := make(map[unit]bool)
	var jobs []core.Job
	for _, t := range tasks {
		u := unit{t.Video, t.Preset}
		if seen[u] {
			continue
		}
		seen[u] = true
		opts, err := sched.Task{Video: t.Video, CRF: 51, Refs: 1, Preset: t.Preset}.Options()
		if err != nil {
			return err
		}
		w := proto
		w.Video = t.Video
		segs := []codec.Segment{{}}
		if parts > 1 {
			if segs, err = core.SegmentsFor(w, parts); err != nil {
				return err
			}
		}
		for _, sg := range segs {
			for _, cfg := range configs {
				jobs = append(jobs, core.Job{Workload: w, Options: opts, Config: cfg, Segment: sg})
			}
		}
	}
	_, err := exec.Pool{Workers: executors, Policy: exec.FailFast, Metrics: obs.NewRegistry()}.Map(ctx, len(jobs), func(ctx context.Context, i int) error {
		_, err := core.Run(ctx, jobs[i])
		return err
	})
	return err
}

// waitParked polls /healthz until n workers each have a long poll parked.
func waitParked(ctx context.Context, base string, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var body struct {
			Workers []serve.WorkerView `json:"workers"`
		}
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		parked := 0
		for _, w := range body.Workers {
			if w.Parked {
				parked++
			}
		}
		if parked >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("serve set-up: %d workers did not park within 10s", n)
}

// jobSample is one client-visible job.
type jobSample struct {
	req        serve.JobRequest
	view       serve.JobView
	t0, t1     time.Time // POST sent, POST answered
	t2, t3     time.Time // result in hand, last rendition in hand
	ok         bool
	why        string
	renditions map[string][]byte // kept for the first few ladder parents only
}

func (s jobSample) end() time.Time {
	if !s.t3.IsZero() {
		return s.t3
	}
	return s.t2
}

// runServe is both serve workloads; sz says which.
func runServe(ctx context.Context, p params, rec *recorder, sz serveSizing) (*outcome, error) {
	o := newOutcome(p.traced)
	tasks := shuffled(mix(p.seed, 1), sched.GenerateTasks(sz.population, sz.popSeed))

	// Each set-up gets its own content seed, so every one of them starts
	// from cold caches; the first instance is the one measured.
	protoOf := func(i int) core.Workload {
		proto := sz.proto
		proto.Seed = mix(p.seed, uint64(0x100+i)) | 1
		return proto
	}
	proto := protoOf(0)
	t0 := time.Now()
	inst, err := startInstance(ctx, sz, proto, p.seed, tasks)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", p.workload, err)
	}
	first := time.Since(t0).Seconds()
	defer inst.stop()

	bytesBefore := obs.Default().Snapshot().CounterTotal("core_cache_bytes")
	obs.Default().Reset()
	busyBefore := inst.reg.Snapshot().CounterTotal("exec_busy_ns") // Server.Warm ran on the same pool metrics
	goBefore, start := readGoStats(), time.Now()
	samples, win := closedLoop(ctx, inst, tasks, sz, time.Duration(p.seconds*float64(time.Second)))
	wall := time.Since(start)
	goAfter := readGoStats()

	var sojourn []float64
	var clientCost float64
	for _, s := range samples {
		o.attempted++
		if !s.ok {
			o.failed++
			o.notes["first_failure"] = s.why
			continue
		}
		sojourn = append(sojourn, ms(float64(s.end().Sub(s.t0))))
		clientCost += s.view.CostCents
	}
	o.emitWindows(win)
	o.e2e.set("sojourn_p50_ms", median(sojourn))
	tail := tailPercentile(sz.sampleFloor)
	o.e2e.set("sojourn_tail_ms", percentile(sojourn, tail))
	o.emitGo(goBefore, goAfter, len(samples))
	o.e2e.set("heap_mb", heapMB()) // inst is still live: Server.jobs and the retained part streams count

	// Ledger checks.
	tot := inst.srv.Totals()
	snap := inst.reg.Snapshot()
	o.checkf(tot.Submitted == tot.Completed+tot.Failed+tot.Canceled,
		"ledger: submitted %d != completed %d + failed %d + canceled %d", tot.Submitted, tot.Completed, tot.Failed, tot.Canceled)
	o.checkf(math.Abs(clientCost-tot.CostCents) <= 1e-9,
		"cost: clients summed %.12f cents, server totals %.12f", clientCost, tot.CostCents)
	ps, pc := snap.CounterTotal("serve_parts_submitted"), snap.CounterTotal("serve_parts_completed")
	o.checkf(ps == pc, "parts: %d submitted, %d completed", ps, pc)
	reassigned := snap.CounterTotal("fleet_lease_reassigned")
	o.checkf(reassigned == 0, "fleet: %d leases reassigned on a healthy fleet", reassigned)
	if sz.ladder {
		o.checkRenditions(ctx, rec, samples, proto)
	}

	o.notes["sojourn_samples"] = fmt.Sprintf("%d jobs, tail = p%g", len(sojourn), tail)
	o.ops["jobs"], o.ops["parts"], o.ops["windows"] = len(samples), int(ps), len(win.perS)

	if p.traced {
		o.emitServeLayers(rec, inst, samples, snap, tot, wall, sz)
		o.emitCoreLayers(obs.Default().Snapshot(), bytesBefore)
		if !sz.fleet {
			o.emitExec(snap, busyBefore, wall, executors) // the loopback pool records into the instance's registry
		}
		if err := o.probeCatalog(ctx, rec, tasks, proto); err != nil {
			return nil, err
		}
	}
	inst.stop()
	return o, o.repeatSetup(first, sz.setups, func(i int) (float64, error) {
		t0 := time.Now()
		spare, err := startInstance(ctx, sz, protoOf(i), p.seed, tasks)
		if err != nil {
			return 0, fmt.Errorf("%s set-up %d: %w", p.workload, i, err)
		}
		d := time.Since(t0).Seconds()
		spare.stop()
		return d, nil
	})
}

// closedLoop is the load generator: clients x outstanding slots share one
// cursor over the cycled task list. When the measured interval has passed,
// the cycle in progress is finished and the slots stop, so every run
// consists of whole population cycles. Throughput windows close every
// sz.window completions, in completion order.
func closedLoop(ctx context.Context, inst *instance, tasks []sched.Task, sz serveSizing, d time.Duration) ([]jobSample, *windows) {
	var next atomic.Int64
	var limit atomic.Int64
	limit.Store(math.MaxInt64)
	pop := int64(len(tasks))
	timer := time.AfterFunc(d, func() {
		cycles := (next.Load() + pop - 1) / pop
		limit.Store(max(cycles, 1) * pop)
	})
	defer timer.Stop()

	var mu sync.Mutex
	var samples []jobSample
	win := startWindows()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		// One connection per client: its slots take turns on it.
		hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		for s := 0; s < outstanding; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := next.Add(1) - 1
					if i >= limit.Load() {
						return
					}
					smp := oneJob(ctx, hc, inst, jobRequest(tasks[i%pop], sz.ladder), sz.ladder && i < renditionSamples)
					mu.Lock()
					samples = append(samples, smp)
					if len(samples)%sz.window == 0 {
						win.mark(sz.window)
					}
					mu.Unlock()
				}
			}()
		}
		defer hc.CloseIdleConnections()
	}
	wg.Wait()
	return samples, win
}

// renditionSamples is how many ladder parents keep their rendition bytes
// for the byte-equality check after the timed region.
const renditionSamples = 3

func jobRequest(t sched.Task, ladder bool) serve.JobRequest {
	req := serve.JobRequest{Video: t.Video, CRF: t.CRF, Refs: t.Refs, Preset: string(t.Preset)}
	if ladder {
		req.Segments, req.Ladder = 2, ladderRungs
	}
	return req
}

// oneJob is a client's view of one job: POST, wait for the result (via
// Server.WaitJob, so no poll interval pollutes sojourn), and for a ladder
// fetch every rung's rendition.
func oneJob(ctx context.Context, hc *http.Client, inst *instance, req serve.JobRequest, keep bool) jobSample {
	s := jobSample{req: req, t0: time.Now()}
	fail := func(format string, args ...any) jobSample {
		s.why = fmt.Sprintf(format, args...)
		if s.t2.IsZero() {
			s.t2 = time.Now()
		}
		return s
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fail("marshal: %v", err)
	}
	resp, err := hc.Post(inst.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("POST /jobs: %v", err)
	}
	var admitted serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&admitted)
	resp.Body.Close()
	s.t1 = time.Now()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return fail("POST /jobs: status %d, decode %v", resp.StatusCode, err)
	}
	view, err := inst.srv.WaitJob(ctx, admitted.ID)
	s.t2 = time.Now()
	s.view = view
	if err != nil || view.State != serve.StateDone {
		return fail("job %s ended %q: %v %s", admitted.ID, view.State, err, view.Error)
	}
	for _, rung := range req.Ladder {
		resp, err := hc.Get(inst.ts.URL + "/jobs/" + view.ID + "/rendition?rung=" + rung.Name)
		if err != nil {
			return fail("GET rendition %s: %v", rung.Name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || len(raw) == 0 {
			return fail("GET rendition %s of %s: status %d, %d bytes, %v", rung.Name, view.ID, resp.StatusCode, len(raw), err)
		}
		if keep {
			if s.renditions == nil {
				s.renditions = make(map[string][]byte)
			}
			s.renditions[rung.Name] = raw
		}
		s.t3 = time.Now()
	}
	s.ok = true
	return s
}

// checkRenditions compares, for the sampled ladder parents, each served
// rendition with the serial reference: per-segment core.EncodeOnly streams
// joined by codec.StitchStreams.
func (o *outcome) checkRenditions(ctx context.Context, rec *recorder, samples []jobSample, proto core.Workload) {
	checked := 0
	for _, s := range samples {
		if !s.ok || s.renditions == nil {
			continue
		}
		w := proto
		w.Video = s.req.Video
		segs, err := core.SegmentsFor(w, s.req.Segments)
		if err != nil {
			o.checkf(false, "rendition check: %v", err)
			return
		}
		for _, rung := range s.req.Ladder {
			opts, err := sched.Task{Video: s.req.Video, CRF: rung.CRF, Refs: s.req.Refs, Preset: codec.Preset(s.req.Preset)}.Options()
			if err != nil {
				o.checkf(false, "rendition check: %v", err)
				return
			}
			streams := make([][]byte, len(segs))
			for i, sg := range segs {
				res, err := core.EncodeOnly(ctx, core.Job{Workload: w, Options: opts, Segment: sg})
				if err != nil {
					o.checkf(false, "rendition check: encode %s %s %s: %v", s.view.ID, rung.Name, sg, err)
					return
				}
				streams[i] = res.Stream
			}
			var want []byte
			rec.timed("check", "codec.StitchStreams", 0, func() { want, err = codec.StitchStreams(streams) })
			o.checkf(err == nil && bytes.Equal(want, s.renditions[rung.Name]),
				"rendition %s of %s (%s) differs from the stitched serial reference (stitch err %v)", rung.Name, s.view.ID, s.req.Video, err)
		}
		checked++
	}
	o.checkf(checked > 0, "rendition check: no ladder parent was sampled")
	o.notes["renditions_checked"] = fmt.Sprintf("%d parents x %d rungs", checked, len(ladderRungs))
}

// emitServeLayers records one span tree per job, runs the sum check on
// them and reports the serving stack's per-layer metrics.
func (o *outcome) emitServeLayers(rec *recorder, inst *instance, samples []jobSample,
	snap obs.Snapshot, tot serve.Totals, wall time.Duration, sz serveSizing) {
	var admit, wait, service, notify, rendition, sojourn, skews []float64
	var serviceNs, simSeconds float64
	done := 0
	for _, s := range samples {
		if !s.ok {
			continue
		}
		done++
		v := s.view
		root := rec.add(v.ID, "job", 0, s.t0, s.end())
		rec.add(v.ID, "serve.admit", root, s.t0, s.t1)
		rec.add(v.ID, "queue.wait", root, v.Submitted, v.Started)
		rec.add(v.ID, "serve.service", root, v.Started, v.Finished)
		rec.add(v.ID, "serve.notify", root, v.Finished, s.t2)
		if !s.t3.IsZero() {
			rec.add(v.ID, "serve.rendition", root, s.t2, s.t3)
			rendition = append(rendition, ms(float64(s.t3.Sub(s.t2))))
		}
		admit = append(admit, ms(float64(s.t1.Sub(s.t0))))
		wait = append(wait, ms(float64(v.Started.Sub(v.Submitted))))
		service = append(service, ms(float64(v.Finished.Sub(v.Started))))
		notify = append(notify, ms(float64(s.t2.Sub(v.Finished))))
		sojourn = append(sojourn, ms(float64(s.end().Sub(s.t0))))
		serviceNs += float64(v.Finished.Sub(v.Started))
		simSeconds += v.SimSeconds
		if len(v.Parts) > 1 {
			var parts []float64
			for _, id := range v.Parts {
				if pv, ok := inst.srv.Job(id); ok {
					parts = append(parts, float64(pv.Finished.Sub(pv.Started)))
				}
			}
			var sum, slowest float64
			for _, d := range parts {
				sum += d
				slowest = max(slowest, d)
			}
			if sum > 0 {
				skews = append(skews, slowest*float64(len(parts))/sum)
			}
		}
	}
	n := float64(max(done, 1))

	// The sum check: admit + queue wait + service + notify (+ rendition)
	// must tile the client's sojourn. The share of a job's interval that no
	// child span covers is the residual; its median must stay within 2%.
	residual := sumResidual(rec.all(), "job")
	o.setLayer("serve.sum_residual_pct", residual)
	o.checkf(residual <= 2, "sum check: median %.2f%% of sojourn is not covered by admit+wait+service+notify+rendition", residual)

	o.setLayer("serve.admit_ms_p50", median(admit))
	o.setLayer("queue.wait_ms_p50", median(wait))
	o.setLayer("queue.wait_ms_p95", percentile(wait, 95))
	o.setLayer("serve.service_ms_p50", median(service))
	o.setLayer("serve.notify_ms_p50", median(notify))
	o.setLayer("serve.rendition_ms_p50", median(rendition))
	o.setLayer("serve.sojourn_p95_ms", percentile(sojourn, 95))
	if len(sojourn) >= 1000 {
		o.setLayer("serve.sojourn_p99_ms", percentile(sojourn, 99))
	}
	o.setLayer("serve.part_skew", median(skews))
	o.setLayer("queue.rejected", float64(tot.Rejected))
	o.setLayer("sim.s_per_op", tot.SimSeconds/float64(max(tot.Completed, 1)))
	o.setLayer("sim.cost_ucents_per_op", tot.CostCents*1e6/n)

	o.setLayer("serve.dispatch_us_p50", histP50ms(snap, "serve_dispatch_ns")*1e3)
	placed := float64(snap.CounterTotal("serve_placements"))
	if h, ok := snap.HistogramByName("serve_dispatch_ns"); ok && h.Count > 0 {
		o.setLayer("serve.batch_size_mean", placed/float64(h.Count))
	}
	if placed > 0 {
		o.setLayer("serve.placement_smart_share", float64(snap.Counters[obs.Key("serve_placements", "mode", "smart")])/placed)
	}
	o.setLayer("serve.fanout_ms_p50", histP50ms(snap, "serve_fanout_ns"))
	o.setLayer("serve.stitch_ms_p50", histP50ms(snap, "serve_stitch_ns"))
	units := float64(done)
	if ps := snap.CounterTotal("serve_parts_submitted"); ps > 0 {
		units = float64(ps)
	}
	o.setLayer("serve.requeue_ratio", float64(snap.CounterTotal("serve_requeues"))/max(units, 1))
	o.setLayer("worker.lease_reassigned", float64(snap.CounterTotal("fleet_lease_reassigned")))
	if sz.fleet {
		busy := float64(snap.CounterTotal("worker_busy_ns"))
		o.setLayer("worker.busy_share", busy/(float64(wall)*executors))
		// What a job's service time holds beyond the worker's own busy
		// time: poll wake-up, JSON both ways, the result POST and settle.
		o.setLayer("wire.overhead_ms_per_job", ms(serviceNs-busy)/n)
	}
}

// probeCatalog is the traced tail of a serve workload: one never-seen
// probe title walked through the cache pipeline, a representative job split
// into codec and simulator, and the serving stack's pure-function probes.
func (o *outcome) probeCatalog(ctx context.Context, rec *recorder, tasks []sched.Task, proto core.Workload) error {
	t := tasks[0]
	opts, err := t.Options()
	if err != nil {
		return err
	}
	probe := proto
	probe.Video, probe.Seed = t.Video, proto.Seed+2
	ob, err := onboardTraced(ctx, rec, "probe", 0, probe, opts, uarch.TableIV())
	if err != nil {
		return err
	}
	o.emitOnboarding([]onboarding{ob})
	w := proto
	w.Video = t.Video
	job := core.Job{Workload: w, Options: opts, Config: uarch.Baseline()}
	if err := o.probePoint(ctx, rec, job, 5); err != nil {
		return err
	}
	if err := o.probeStitch(ctx, rec, job); err != nil {
		return err
	}
	// Stage shares over a slice of the population, not one job: presets
	// from ultrafast to slow split their time very differently.
	err = o.emitStageShares(func() error {
		for _, t := range tasks[:min(8, len(tasks))] {
			opts, err := t.Options()
			if err != nil {
				return err
			}
			sw := proto
			sw.Video = t.Video
			if _, err := core.Run(ctx, core.Job{Workload: sw, Options: opts, Config: uarch.Baseline(), StageMetrics: true}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res, err := core.Run(ctx, job)
	if err != nil {
		return err
	}
	return o.probeServeLayers(ctx, rec, res.Report, tasks, proto)
}
