package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/vbench"
)

// The probes are the per-layer half of a traced run: direct, timed calls
// from the benchmark into one layer's exported functions, each under a
// span. They run outside the timed region (or, for sweep_cold, as the
// explicit on-boarding of each title), so what they cost shows up as
// trace overhead and never in an end-to-end number.

// decoderOptionsFor mirrors core's unexported decoderOptions: the decode
// options an encode's options imply.
func decoderOptionsFor(o codec.Options) codec.DecoderOptions {
	return codec.DecoderOptions{TraceSampleLog2: o.TraceSampleLog2, Tune: o.Tune}
}

// onboarding is the layer-by-layer cost of bringing one never-seen title
// into core's caches, keyed by the per-layer metric each cost is reported as.
type onboarding map[string]float64

// onboardTraced walks a title through the cache pipeline one exported call
// at a time: synthesis, mezzanine encode, decode + record, parse, one
// replay per config, a snapshot clone and the shared analysis. After it
// returns, the mezzanine, decoded and parsed layers are filled; the
// snapshot and analysis layers are core-internal and fill on the title's
// first sweep.
func onboardTraced(ctx context.Context, rec *recorder, traceID string, parent int, w core.Workload, opts codec.Options, configs []uarch.Config) (onboarding, error) {
	ob := onboarding{}
	info, err := vbench.ByName(w.Video)
	if err != nil {
		return ob, err
	}
	root := rec.begin(traceID, "onboard", parent)
	defer rec.end(root)

	synth := rec.timed(traceID, "vbench.synth", root, func() {
		src := vbench.NewSource(info, vbench.SourceOptions{Scale: w.Scale, Seed: w.Seed})
		for i := 0; i < w.Frames; i++ {
			src.Frame(i)
		}
	})
	ob["vbench.synth_ms_per_frame"] = ms(float64(synth)) / float64(max(w.Frames, 1))

	mezz := rec.timed(traceID, "core.Mezzanine", root, func() { _, err = core.Mezzanine(ctx, w) })
	if err != nil {
		return ob, err
	}
	ob["codec.mezz_encode_ms_per_title"] = ms(float64(mezz - synth)) // core.Mezzanine minus the synthesis inside it

	dopt := decoderOptionsFor(opts)
	var frames []*frame.Frame
	var events []byte
	dec := rec.timed(traceID, "core.DecodedMezzanine", root, func() { frames, events, err = core.DecodedMezzanine(ctx, w, dopt) })
	if err != nil {
		return ob, err
	}
	ob["codec.decode_record_ms_per_title"] = ms(float64(dec)) // the mezzanine is cached by now

	var parsed *trace.EventBuf
	parse := rec.timed(traceID, "core.ParsedDecodeTrace", root, func() { parsed, err = core.ParsedDecodeTrace(ctx, w, dopt) })
	if err != nil {
		return ob, err
	}
	if n := parsed.Len(); n > 0 {
		ob["trace.parse_mevents_per_s"] = float64(n) / 1e6 / parse.Seconds()
		ob["trace.bytes_per_event"] = float64(len(events)) / float64(n)
	}

	var rates []float64
	var last *uarch.Machine
	for _, cfg := range configs {
		m := uarch.NewMachine(cfg, trace.NewImage(nil))
		d := rec.timed(traceID, "uarch.ReplayEvents", root, func() { m.ReplayEvents(parsed) })
		rates = append(rates, float64(parsed.Len())/1e6/d.Seconds())
		last = m
	}
	ob["uarch.replay_mevents_per_s"] = median(rates)
	if last != nil {
		var clones []float64
		for i := 0; i < 5; i++ {
			d := rec.timed(traceID, "uarch.Clone", root, func() { last = last.Clone() })
			clones = append(clones, float64(d)/1e3)
		}
		ob["uarch.clone_us"] = median(clones)
	}

	ana := rec.timed(traceID, "codec.Analyze", root, func() { _, err = codec.Analyze(frames, info.FPS, opts) })
	if err != nil {
		return ob, fmt.Errorf("analyze %s: %w", w.Video, err)
	}
	ob["codec.analyze_ms_per_title"] = ms(float64(ana))
	return ob, nil
}

// emitOnboarding reports the medians over a traced run's on-boarded titles.
func (o *outcome) emitOnboarding(titles []onboarding) {
	cols := make(map[string][]float64)
	for _, ob := range titles {
		for name, v := range ob {
			cols[name] = append(cols[name], v)
		}
	}
	for name, xs := range cols {
		o.setLayer(name, median(xs))
	}
}

// probePoint splits one warm point into codec and simulator: the same job
// through core.EncodeOnly (nil sink) and through core.Run (live machine),
// reps times each, medians compared.
func (o *outcome) probePoint(ctx context.Context, rec *recorder, job core.Job, reps int) error {
	var enc, run []float64
	for i := 0; i < reps; i++ {
		var err error
		d := rec.timed("probe", "core.EncodeOnly", 0, func() { _, err = core.EncodeOnly(ctx, job) })
		if err != nil {
			return fmt.Errorf("probe encode: %w", err)
		}
		enc = append(enc, ms(float64(d)))
		d = rec.timed("probe", "core.Run", 0, func() { _, err = core.Run(ctx, job) })
		if err != nil {
			return fmt.Errorf("probe run: %w", err)
		}
		run = append(run, ms(float64(d)))
	}
	o.setLayer("codec.encode_ms_per_point", median(enc))
	if r := median(run); r > 0 {
		o.setLayer("uarch.live_sim_share", 1-median(enc)/r)
	}
	return nil
}

// probeStitch times codec.StitchStreams on the two halves of job's clip.
func (o *outcome) probeStitch(ctx context.Context, rec *recorder, job core.Job) error {
	segs, err := core.SegmentsFor(job.Workload, 2)
	if err != nil {
		return err
	}
	streams := make([][]byte, len(segs))
	for i, sg := range segs {
		part := job
		part.Segment = sg
		res, err := core.EncodeOnly(ctx, part)
		if err != nil {
			return fmt.Errorf("probe stitch encode: %w", err)
		}
		streams[i] = res.Stream
	}
	var us []float64
	for i := 0; i < 9; i++ {
		d := rec.timed("probe", "codec.StitchStreams", 0, func() { _, err = codec.StitchStreams(streams) })
		if err != nil {
			return fmt.Errorf("probe stitch: %w", err)
		}
		us = append(us, float64(d)/1e3)
	}
	o.setLayer("codec.stitch_us_per_rendition", median(us))
	return nil
}

// emitStageShares runs staged — encodes with the per-stage observer on,
// which costs real time per macroblock and therefore never runs inside a
// timed region — and reports each stage's share of the encode_stage_*_ns
// time it added.
func (o *outcome) emitStageShares(staged func() error) error {
	sums := func() []float64 {
		snap := obs.Default().Snapshot()
		out := make([]float64, len(stageNames))
		for i, s := range stageNames {
			h, _ := snap.HistogramByName("encode_stage_" + s + "_ns")
			out[i] = float64(h.Sum)
		}
		return out
	}
	before := sums()
	if err := staged(); err != nil {
		return err
	}
	after := sums()
	var total float64
	for i := range after {
		after[i] -= before[i]
		total += after[i]
	}
	if total == 0 {
		return nil
	}
	for i, s := range stageNames {
		o.setLayer("codec.stage_"+s+"_share", after[i]/total)
	}
	return nil
}

// emitCoreLayers reports core's cache and sweep-engine counters for the
// measured interval. snap must come from a registry reset at the start of
// that interval; bytesBefore is the cache footprint set-up had already built.
// A hit ratio is the share of a layer's lookups that did not build; a layer
// nobody consulted — shielded by a hit in the layer above — reads 1.
func (o *outcome) emitCoreLayers(snap obs.Snapshot, bytesBefore int64) {
	for _, c := range cacheLayers {
		hits := float64(snap.Counters[obs.Key("core_cache_hits", "cache", c)])
		misses := float64(snap.Counters[obs.Key("core_cache_misses", "cache", c)])
		ratio := 1.0
		if hits+misses > 0 {
			ratio = hits / (hits + misses)
		}
		o.setLayer("core.cache_hit_ratio."+c, ratio)
	}
	o.setLayer("core.cache_mb", float64(bytesBefore+snap.CounterTotal("core_cache_bytes"))/1e6)
	if h, ok := snap.HistogramByName("core_sweep_warmup_ns"); ok && h.Count > 0 {
		o.setLayer("core.warmup_ms_per_sweep", ms(float64(h.Sum))/float64(h.Count))
	}
	o.setLayer("core.point_ms_p50", histP50ms(snap, "core_sweep_point_ns"))
}

// emitExec reports the shared executor pool from whichever registry the
// workload's pool records into. Idle executors on a sweep are warm-up
// serialization; on the loopback service they are dispatch gaps.
func (o *outcome) emitExec(snap obs.Snapshot, busyBefore int64, wall time.Duration, workers int) {
	o.setLayer("exec.queue_wait_ms_p50", histP50ms(snap, "exec_queue_wait_ns"))
	if wall > 0 && workers > 0 {
		o.setLayer("exec.utilization_pct", 100*float64(snap.CounterTotal("exec_busy_ns")-busyBefore)/(float64(wall)*float64(workers)))
	}
}

// probeServeLayers times the serving stack's pure functions on fixed-size
// inputs: a queue submit + dequeue, both placement solvers on 8 jobs x 6
// slots, and the wire structs through encoding/json.
func (o *outcome) probeServeLayers(ctx context.Context, rec *recorder, rep *perf.Report, tasks []sched.Task, proto core.Workload) error {
	const loops = 2000
	q := queue.New[int](queue.Options{MaxDepth: 4, Name: "probe", Metrics: obs.NewRegistry()})
	var err error
	d := rec.timed("probe", "queue.roundtrip", 0, func() {
		for i := 0; i < loops && err == nil; i++ {
			if _, err = q.Submit(ctx, i, queue.SubmitOptions{}); err == nil {
				_, err = q.Dequeue(ctx)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("probe queue: %w", err)
	}
	o.setLayer("queue.roundtrip_ns", float64(d)/loops)

	fleet, err := backend.ParseFleet(ladderFleet, 1)
	if err != nil {
		return err
	}
	w, h, frames, err := core.ProxyDims(core.Workload{Video: tasks[0].Video, Frames: proto.Frames, Scale: proto.Scale})
	if err != nil {
		return err
	}
	jobs := make([]sched.HeteroJob, 8)
	reports := make([]*perf.Report, len(jobs))
	for i := range jobs {
		opts, err := tasks[i%len(tasks)].Options()
		if err != nil {
			return err
		}
		jobs[i] = sched.HeteroJob{Report: rep, Opts: opts, Frames: frames, Width: w, Height: h}
		reports[i] = rep
	}
	d = rec.timed("probe", "sched.AssignHetero", 0, func() {
		for i := 0; i < loops; i++ {
			sched.AssignHetero(jobs, fleet, backend.DefaultAccel(), sched.ObjectiveCost, nil)
		}
	})
	o.setLayer("sched.assign_hetero_us", float64(d)/1e3/loops)
	configs := uarch.Extended()
	d = rec.timed("probe", "sched.AssignDynamicBiased", 0, func() {
		for i := 0; i < loops; i++ {
			sched.AssignDynamicBiased(reports, configs, nil)
		}
	})
	o.setLayer("sched.assign_dynamic_us", float64(d)/1e3/loops)

	// Wire structs as the fleet transport fills them for a plain job.
	var aBytes, rBytes int
	d = rec.timed("probe", "wire.codec", 0, func() {
		for i := 0; i < loops; i++ {
			t := tasks[i%len(tasks)]
			a := serve.Assignment{
				LeaseID: "lease-123456", JobID: "job-123456", Video: t.Video, CRF: t.CRF, Refs: t.Refs,
				Preset: string(t.Preset), Frames: proto.Frames, Scale: proto.Scale, Seed: proto.Seed, LeaseTTLMs: 10000,
			}
			r := serve.ResultReport{WorkerID: "w-baseline", LeaseID: a.LeaseID, JobID: a.JobID, Seconds: rep.Seconds, Topdown: &rep.Topdown}
			// Plain structs of strings and numbers: neither direction can fail.
			ab, _ := json.Marshal(a)
			rb, _ := json.Marshal(r)
			var a2 serve.Assignment
			var r2 serve.ResultReport
			_ = json.Unmarshal(ab, &a2)
			_ = json.Unmarshal(rb, &r2)
			aBytes += len(ab)
			rBytes += len(rb)
		}
	})
	o.setLayer("wire.codec_us", float64(d)/1e3/loops)
	o.setLayer("wire.assignment_bytes", float64(aBytes)/loops)
	o.setLayer("wire.result_bytes", float64(rBytes)/loops)
	return nil
}
