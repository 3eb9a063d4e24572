package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/uarch"
)

// sweepSizing is the shape of a sweep workload. The full sizes follow the
// issue (frames 8, scale 8, five Table IV configs); tiny is for unit tests.
type sweepSizing struct {
	frames, scale int
	configs       []uarch.Config
	crfs, refs    []int
	setups        int      // set-ups per run; setup_s is their median
	videos        []string // sweep_cold: one title per video per round
}

func warmSizing(tiny bool) sweepSizing {
	if tiny {
		return sweepSizing{frames: 4, scale: 16, configs: uarch.TableIV()[:2], crfs: []int{33, 43}, refs: []int{1}, setups: 1}
	}
	return sweepSizing{frames: 8, scale: 8, configs: uarch.TableIV(), crfs: []int{18, 23, 33, 43}, refs: []int{1, 2, 4, 8}, setups: 3}
}

func coldSizing(tiny bool) sweepSizing {
	if tiny {
		return sweepSizing{frames: 4, scale: 16, configs: uarch.TableIV()[:2], crfs: []int{43}, refs: []int{1}, setups: 1, videos: []string{"desktop"}}
	}
	// Three videos, not four: low, middle and high entropy (and 720p/480p),
	// an odd count so the median title time falls inside the middle class
	// instead of on the boundary between two.
	return sweepSizing{frames: 8, scale: 8, configs: uarch.TableIV(), crfs: []int{23, 43}, refs: []int{1, 4}, setups: 3,
		videos: []string{"desktop", "cricket", "holi"}}
}

// warmTitleSeed is the content of sweep_warm's titles. It is a constant:
// the grid's cost depends on content by +-10%, which across run seeds would
// drown the regressions the workload exists to catch. The run seed orders
// the grid and the configs instead.
const warmTitleSeed = 0x5eed0001

// sweepCost prices a point the way the service would bill it: simulated
// seconds at the config's default on-demand rate, in microcents.
func sweepCost(cfg uarch.Config, seconds float64) float64 {
	return backend.ServerSpec{Config: cfg}.FillDefaults().CostCents(seconds) * 1e6
}

// sweepTally accumulates what a workload's sweep calls returned.
type sweepTally struct {
	points, failed int
	simSeconds     float64
	costUcents     float64
	insts          float64
	entries        []digestEntry
}

// call runs one SweepCRFRefs call under a span, folds its points into the
// tally and returns how long the caller waited.
func (t *sweepTally) call(ctx context.Context, rec *recorder, traceID string, parent int, title string,
	w core.Workload, base codec.Options, cfg uarch.Config, crfs, refs []int) time.Duration {
	var pts core.Points
	d := rec.timed(traceID, "core.SweepCRFRefs", parent, func() {
		pts = core.SweepCRFRefs(ctx, w, base, cfg, crfs, refs)
	})
	for _, pt := range pts {
		t.points++
		if pt.Err != nil || pt.Report == nil {
			t.failed++
			continue
		}
		t.simSeconds += pt.Report.Seconds
		t.costUcents += sweepCost(cfg, pt.Report.Seconds)
		t.insts += pt.Report.Insts
		t.entries = append(t.entries, digestEntry{key: pointKey(title, cfg, pt), rep: pt.Report})
	}
	return d
}

// runSweepWarm is the researcher's inner loop. Set-up fills every cache
// layer for the title (one cheap point per config does it: the analysis
// artifact and both snapshot layers are crf/refs-invariant), then whole
// rounds of the 4x4 grid on each of the five configs run until the clock
// is up. Nothing in the timed region may miss a cache.
func runSweepWarm(ctx context.Context, p params, rec *recorder) (*outcome, error) {
	o := newOutcome(p.traced)
	sz := warmSizing(p.tiny)
	base := codec.Defaults()
	title := func(i int) core.Workload {
		return core.Workload{Video: "cricket", Frames: sz.frames, Scale: sz.scale, Seed: warmTitleSeed + uint64(i)}
	}

	setup := func(i int) (float64, error) {
		t0 := time.Now()
		for _, cfg := range sz.configs {
			pts := core.SweepCRFRefs(ctx, title(i), base, cfg, sz.crfs[len(sz.crfs)-1:], sz.refs[:1])
			if err := pts.FirstErr(); err != nil {
				return 0, fmt.Errorf("sweep_warm set-up: %w", err)
			}
		}
		return time.Since(t0).Seconds(), nil
	}
	first, err := setup(0)
	if err != nil {
		return nil, err
	}
	w := title(0)

	configs := shuffled(mix(p.seed, 1), sz.configs)
	crfs := shuffled(mix(p.seed, 2), sz.crfs)
	refs := shuffled(mix(p.seed, 3), sz.refs)

	bytesBefore := obs.Default().Snapshot().CounterTotal("core_cache_bytes")
	obs.Default().Reset()
	goBefore, start := readGoStats(), time.Now()
	win := startWindows()
	var tally sweepTally
	var calls []float64
	var digest string
	rounds := 0
	for deadline := start.Add(time.Duration(p.seconds * float64(time.Second))); rounds == 0 || time.Now().Before(deadline); rounds++ {
		traceID := fmt.Sprintf("round-%d", rounds)
		root := rec.begin(traceID, "round", 0)
		from := len(tally.entries)
		for _, cfg := range configs {
			n := tally.points
			d := tally.call(ctx, rec, traceID, root, "cricket", w, base, cfg, crfs, refs)
			calls = append(calls, ms(float64(d)))
			win.mark(tally.points - n) // one window per call: the five configs cost within a few percent of each other
		}
		rec.end(root)
		// Same title, same grid: every round must reproduce round 0 bit for bit.
		dg := reportDigest(tally.entries[from:])
		if rounds == 0 {
			digest = dg
		}
		o.checkf(dg == digest, "round %d report digest %s differs from round 0's %s", rounds, dg, digest)
	}
	wall := time.Since(start)
	goAfter := readGoStats()
	snap := obs.Default().Snapshot()

	o.attempted, o.failed = tally.points, tally.failed
	o.emitWindows(win)
	o.e2e.set("sojourn_p50_ms", median(calls))
	tail := tailPercentile(warmCallFloor)
	o.e2e.set("sojourn_tail_ms", percentile(calls, tail))
	o.emitGo(goBefore, goAfter, tally.points)
	o.e2e.set("heap_mb", heapMB())

	for _, c := range cacheLayers {
		misses := snap.Counters[obs.Key("core_cache_misses", "cache", c)]
		o.checkf(misses == 0, "sweep_warm missed the %s cache %d times in the timed region", c, misses)
	}
	o.notes["report_digest"] = digest
	o.notes["rounds"] = fmt.Sprint(rounds)
	o.notes["sojourn_samples"] = fmt.Sprintf("%d sweep calls, tail = p%g", len(calls), tail)
	o.ops["points"], o.ops["sweep_calls"], o.ops["rounds"] = tally.points, len(calls), rounds

	if p.traced {
		done := float64(max(tally.points-tally.failed, 1))
		o.setLayer("sim.s_per_op", tally.simSeconds/done)
		o.setLayer("sim.cost_ucents_per_op", tally.costUcents/done)
		o.setLayer("uarch.sim_minst_per_s", tally.insts/1e6/wall.Seconds())
		o.emitCoreLayers(snap, bytesBefore)
		o.emitExec(snap, 0, wall, runtime.GOMAXPROCS(0))
		probe := core.Workload{Video: "cricket", Frames: sz.frames, Scale: sz.scale, Seed: warmTitleSeed + 0x200}
		ob, err := onboardTraced(ctx, rec, "probe", 0, probe, base, sz.configs)
		if err != nil {
			return nil, err
		}
		o.emitOnboarding([]onboarding{ob})
		if err := o.probeSweepPoint(ctx, rec, w, base, configs[0], crfs, refs); err != nil {
			return nil, err
		}
	}
	return o, o.repeatSetup(first, sz.setups, setup)
}

// warmCallFloor and coldTitleFloor are the fewest request samples a full
// run is designed to collect; the tail percentile follows from them.
const (
	warmCallFloor  = 10
	coldTitleFloor = 9
)

// coldHeapTitles is the title count sweep_cold's heap_mb is stated at.
const coldHeapTitles = 12

// coldPerConfigLayers are the cache layers keyed by uarch config: a new
// title builds them once per config, every other layer once.
var coldPerConfigLayers = map[string]bool{"snapshot": true, "ana_snapshot": true}

// runSweepCold is catalog on-boarding: every title is new to the process,
// so each cache layer builds once per title (the snapshot layers once per
// config) and nothing is ever evicted. A round is one title per video;
// content seeds derive from the run seed.
func runSweepCold(ctx context.Context, p params, rec *recorder) (*outcome, error) {
	o := newOutcome(p.traced)
	sz := coldSizing(p.tiny)
	base := codec.Defaults()
	configs := shuffled(mix(p.seed, 1), sz.configs)
	crfs := shuffled(mix(p.seed, 2), sz.crfs)
	refs := shuffled(mix(p.seed, 3), sz.refs)

	onboard := func(tally *sweepTally, traceID string, w core.Workload, layered bool) (time.Duration, *onboarding, error) {
		start := time.Now()
		root := rec.begin(traceID, "title", 0)
		var ob *onboarding
		if layered {
			b, err := onboardTraced(ctx, rec, traceID, root, w, base, configs)
			if err != nil {
				return 0, nil, err
			}
			ob = &b
		}
		for _, cfg := range configs {
			tally.call(ctx, rec, traceID, root, traceID, w, base, cfg, crfs, refs)
		}
		rec.end(root)
		return time.Since(start), ob, nil
	}

	// Set-up brings the process to steady state — heap grown, tables and
	// pools initialised — by on-boarding reference titles of constant
	// content through the same path; each is one set-up sample.
	setup := func(i int) (float64, error) {
		var scratch sweepTally
		w := core.Workload{Video: sz.videos[0], Frames: sz.frames, Scale: sz.scale, Seed: warmTitleSeed + 0x100 + uint64(i)}
		d, _, err := onboard(&scratch, fmt.Sprintf("setup-%d", i), w, false)
		if err != nil {
			return 0, err
		}
		if scratch.failed > 0 {
			return 0, fmt.Errorf("sweep_cold set-up: %d of %d points failed", scratch.failed, scratch.points)
		}
		return d.Seconds(), nil
	}
	first, err := setup(0)
	if err != nil {
		return nil, err
	}

	heapStart := heapMB()
	bytesBefore := obs.Default().Snapshot().CounterTotal("core_cache_bytes")
	obs.Default().Reset()
	goBefore, start := readGoStats(), time.Now()
	win := startWindows()
	var tally sweepTally
	var titleMs []float64
	var onboards []onboarding
	var firstTitle core.Workload
	var digest string
	titles, rounds := 0, 0
	for deadline := start.Add(time.Duration(p.seconds * float64(time.Second))); rounds == 0 || time.Now().Before(deadline); rounds++ {
		n, e := tally.points, len(tally.entries)
		for vi, v := range sz.videos {
			w := core.Workload{Video: v, Frames: sz.frames, Scale: sz.scale, Seed: mix(p.seed, uint64(0x1000+rounds*len(sz.videos)+vi)) | 1}
			if titles == 0 {
				firstTitle = w
			}
			d, ob, err := onboard(&tally, fmt.Sprintf("%s-%d", v, rounds), w, p.traced)
			if err != nil {
				return nil, err
			}
			if ob != nil {
				onboards = append(onboards, *ob)
			}
			titleMs = append(titleMs, ms(float64(d)))
			titles++
		}
		win.mark(tally.points - n) // one window per round: every round holds one title of each video
		if rounds == 0 {
			digest = reportDigest(tally.entries[e:])
		}
	}
	wall := time.Since(start)
	goAfter := readGoStats()
	snap := obs.Default().Snapshot()

	o.attempted, o.failed = tally.points, tally.failed
	o.emitWindows(win)
	o.e2e.set("sojourn_p50_ms", median(titleMs))
	tail := tailPercentile(coldTitleFloor)
	o.e2e.set("sojourn_tail_ms", percentile(titleMs, tail))
	o.emitGo(goBefore, goAfter, tally.points)
	// Nothing is evicted, so the heap grows with every title and a faster
	// commit, fitting more titles into the interval, would read as a heap
	// regression. Report the heap after set-up plus the growth per title
	// times a fixed title count instead.
	o.e2e.set("heap_mb", heapStart+(heapMB()-heapStart)*coldHeapTitles/float64(titles))

	// Exact counts: each title misses each layer once (per config for the
	// snapshot layers) — no more (a layer rebuilt) and no less (a title
	// that was not new).
	for _, c := range cacheLayers {
		want := int64(titles)
		if coldPerConfigLayers[c] {
			want *= int64(len(configs))
		}
		got := snap.Counters[obs.Key("core_cache_misses", "cache", c)]
		o.checkf(got == want, "sweep_cold %s cache: %d misses over %d titles, want %d", c, got, titles, want)
	}
	// The cold path and the warm path must agree: re-sweep the first title
	// on one config now that everything is cached and compare reports.
	var again sweepTally
	again.call(ctx, nil, "", 0, firstTitle.Video+"-0", firstTitle, base, configs[0], crfs, refs)
	cold := tally.entries[:min(len(crfs)*len(refs), len(tally.entries))]
	o.checkf(reportDigest(cold) == reportDigest(again.entries), "sweep_cold: warm re-sweep of %s on %s does not reproduce the cold reports", firstTitle.Video, configs[0].Name)

	o.notes["report_digest"] = digest
	o.notes["rounds"] = fmt.Sprint(rounds)
	o.notes["sojourn_samples"] = fmt.Sprintf("%d titles, tail = p%g", len(titleMs), tail)
	o.ops["points"], o.ops["titles"], o.ops["rounds"] = tally.points, titles, rounds

	if p.traced {
		done := float64(max(tally.points-tally.failed, 1))
		o.setLayer("sim.s_per_op", tally.simSeconds/done)
		o.setLayer("sim.cost_ucents_per_op", tally.costUcents/done)
		o.setLayer("uarch.sim_minst_per_s", tally.insts/1e6/wall.Seconds())
		o.emitCoreLayers(snap, bytesBefore)
		o.emitExec(snap, 0, wall, runtime.GOMAXPROCS(0))
		o.emitOnboarding(onboards)
		if err := o.probeSweepPoint(ctx, rec, firstTitle, base, configs[0], crfs, refs); err != nil {
			return nil, err
		}
	}
	return o, o.repeatSetup(first, sz.setups, setup)
}

// pointOptions is the encode a SweepCRFRefs point runs.
func pointOptions(base codec.Options, crf, refs int) codec.Options {
	o := base
	o.RC, o.CRF, o.Refs = codec.RCCRF, crf, refs
	return o
}

// probeSweepPoint is the traced tail of a sweep workload, on a title whose
// caches are warm: one point split into codec and simulator, the stitch
// probe, and one more sweep call with SweepOpts.StageMetrics on for the
// stage shares.
func (o *outcome) probeSweepPoint(ctx context.Context, rec *recorder, w core.Workload, base codec.Options, cfg uarch.Config, crfs, refs []int) error {
	job := core.Job{Workload: w, Options: pointOptions(base, 23, refs[0]), Config: cfg}
	if err := o.probePoint(ctx, rec, job, 3); err != nil {
		return err
	}
	if err := o.probeStitch(ctx, rec, job); err != nil {
		return err
	}
	return o.emitStageShares(func() error {
		return core.SweepCRFRefsWith(ctx, w, base, cfg, crfs, refs, core.SweepOpts{StageMetrics: true}).FirstErr()
	})
}
