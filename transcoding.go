// Package transcoding is the public API of this reproduction of "CPU
// Microarchitectural Performance Characterization of Cloud Video
// Transcoding" (IISWC 2020). It bundles three layers behind one import:
//
//   - a from-scratch H.264-class video codec with the full x264 tuning
//     surface the paper sweeps (crf, refs, the ten presets, six
//     rate-control modes, dia/hex/umh/esa/tesa motion estimation, trellis
//     quantization, B frames, deblocking);
//   - a deterministic synthetic workload generator reproducing the vbench
//     catalog (Table I) by entropy, resolution and frame rate;
//   - a Sniper-style microarchitecture simulator (caches, iTLB, Pentium-M
//     and TAGE branch predictors, interval pipeline model) with VTune-style
//     Top-down profiling, the AutoFDO and Graphite optimization models, and
//     the characterization-driven smart scheduler.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package transcoding

import (
	"context"
	"io"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/opt/autofdo"
	"repro/internal/opt/graphite"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/vbench"
)

// Core types re-exported from the implementation packages.
type (
	// Frame is a YUV 4:2:0 picture.
	Frame = frame.Frame
	// Options is the encoder configuration (crf, refs, preset options...).
	Options = codec.Options
	// Preset names one of the ten x264 presets.
	Preset = codec.Preset
	// Stats summarizes an encode (per-frame bits, PSNR, types).
	Stats = codec.Stats
	// Tuning holds Graphite-style loop-structure switches.
	Tuning = codec.Tuning
	// Report is a VTune/perf-style profile: Top-down slots and MPKI.
	Report = perf.Report
	// Config is a microarchitecture configuration (a Table IV row).
	Config = uarch.Config
	// VideoInfo is one vbench catalog entry (a Table I row).
	VideoInfo = vbench.VideoInfo
	// Workload selects synthetic content for an experiment.
	Workload = core.Workload
	// Job is one transcoding run to simulate.
	Job = core.Job
	// Point is one sweep sample.
	Point = core.Point
	// Points is a sweep result with error-inspection helpers (FirstErr,
	// Failed).
	Points = core.Points
	// SweepOpts adjusts sweep execution (stage metrics, progress reporting).
	SweepOpts = core.SweepOpts
	// Plan is a declarative sweep for the generic Sweep engine: a point
	// count plus an indexed point builder.
	Plan = core.Plan
	// MachineResult carries the raw counter state of a finished simulation.
	MachineResult = uarch.Result
	// DecoderOptions configure decode-side instrumentation and tuning.
	DecoderOptions = codec.DecoderOptions
	// Task is one schedulable transcoding job (a Table III row).
	Task = sched.Task
	// GraphiteFlags mirror the paper's GCC flag set.
	GraphiteFlags = graphite.Flags
)

// Presets in speed order, fastest first.
var Presets = codec.Presets

// Rate-control modes.
const (
	RCCRF  = codec.RCCRF
	RCCQP  = codec.RCCQP
	RCABR  = codec.RCABR
	RCABR2 = codec.RCABR2
	RCCBR  = codec.RCCBR
	RCVBV  = codec.RCVBV
)

// Videos returns the vbench catalog (Table I).
func Videos() []VideoInfo { return vbench.Catalog }

// VideoByName resolves a catalog short name (including "bbb").
func VideoByName(name string) (VideoInfo, error) { return vbench.ByName(name) }

// DefaultOptions returns medium-preset options with CRF 23, the paper's
// profiling defaults.
func DefaultOptions() Options { return codec.Defaults() }

// ApplyPreset overwrites the preset-controlled fields of o.
func ApplyPreset(o *Options, p Preset) error { return codec.ApplyPreset(o, p) }

// Synthesize generates `frames` frames of the named catalog video, reduced
// by the given scale factor (1 = full resolution, 0 = full resolution).
func Synthesize(video string, frames, scale int) ([]*Frame, error) {
	info, err := vbench.ByName(video)
	if err != nil {
		return nil, err
	}
	src := vbench.NewSource(info, vbench.SourceOptions{Scale: scale})
	out := make([]*Frame, frames)
	for i := range out {
		out[i] = src.Frame(i)
	}
	return out, nil
}

// Encode compresses frames with the given options and returns the
// bitstream and statistics.
func Encode(frames []*Frame, fps int, opt Options) ([]byte, *Stats, error) {
	if len(frames) == 0 {
		return nil, nil, codec.ErrNoFrames
	}
	enc, err := codec.NewEncoder(frames[0].Width, frames[0].Height, fps, opt, nil)
	if err != nil {
		return nil, nil, err
	}
	return enc.EncodeAll(frames)
}

// StreamInfo describes a parsed bitstream.
type StreamInfo = codec.Info

// Decode decompresses a bitstream into display-order frames.
func Decode(stream []byte) ([]*Frame, *StreamInfo, error) {
	return codec.NewDecoder(codec.DecoderOptions{}, nil).Decode(stream)
}

// Transcode decodes a bitstream and re-encodes it with new options — the
// paper's workload, end to end.
func Transcode(stream []byte, opt Options) ([]byte, *Stats, error) {
	frames, info, err := Decode(stream)
	if err != nil {
		return nil, nil, err
	}
	return Encode(frames, info.FPS, opt)
}

// PSNR returns the global peak signal-to-noise ratio between two frames.
func PSNR(a, b *Frame) float64 { return frame.PSNR(a, b) }

// SSIM returns the luma structural-similarity index between two frames.
func SSIM(a, b *Frame) float64 { return frame.SSIM(a, b) }

// WriteY4M writes frames as a YUV4MPEG2 stream for external toolchains
// (ffmpeg, mpv, VMAF).
func WriteY4M(w io.Writer, frames []*Frame, fps int) error {
	return frame.WriteY4M(w, frames, fps)
}

// ReadY4M parses a YUV4MPEG2 stream (4:2:0, dimensions multiple of 16).
func ReadY4M(r io.Reader) ([]*Frame, int, error) { return frame.ReadY4M(r) }

// --- simulation / characterization -------------------------------------------

// BaselineConfig returns the Table IV baseline (Gainestown-like) machine.
func BaselineConfig() Config { return uarch.Baseline() }

// Configs returns all five Table IV configurations.
func Configs() []Config { return uarch.TableIV() }

// ConfigByName resolves a Table IV configuration name.
func ConfigByName(name string) (Config, bool) { return uarch.ByName(name) }

// Profile simulates one transcoding job and returns its profile and codec
// statistics. Canceling ctx aborts the simulation between its decode and
// encode stages.
func Profile(ctx context.Context, job Job) (*Report, *Stats, error) {
	res, err := core.Run(ctx, job)
	if err != nil {
		return nil, nil, err
	}
	return res.Report, res.Stats, nil
}

// Sweep runs an arbitrary declarative sweep Plan on the shared execution
// engine — the primitive under SweepCRFRefs, SweepPresets and SweepVideos,
// exposed for custom grids.
func Sweep(ctx context.Context, p Plan) Points {
	return core.Sweep(ctx, p)
}

// SweepCRFRefs profiles every (crf, refs) combination on one video
// (Figures 3-5). Canceling ctx returns promptly: finished points keep
// their results, unstarted ones carry ctx's error.
func SweepCRFRefs(ctx context.Context, w Workload, base Options, cfg Config, crfs, refs []int) Points {
	return core.SweepCRFRefs(ctx, w, base, cfg, crfs, refs)
}

// SweepCRFRefsWith is SweepCRFRefs with explicit execution options
// (per-stage metrics, a progress callback).
func SweepCRFRefsWith(ctx context.Context, w Workload, base Options, cfg Config, crfs, refs []int, opts SweepOpts) Points {
	return core.SweepCRFRefsWith(ctx, w, base, cfg, crfs, refs, opts)
}

// DecodedMezzanine returns the decoded frames and recorded decode event
// trace of a workload's mezzanine (the decode is built and cached on first
// use). The frames are the caller's own copy, materialized on every call;
// the event trace is shared cache state and must be treated as read-only. A
// canceled ctx detaches the caller without poisoning the cache: the build
// completes in the background for the next caller.
func DecodedMezzanine(ctx context.Context, w Workload, opt DecoderOptions) ([]*Frame, []byte, error) {
	return core.DecodedMezzanine(ctx, w, opt)
}

// ReplayTrace re-drives a recorded event buffer into a fresh machine of the
// given configuration and returns its raw counters — the decode half of a
// transcode at replay speed.
func ReplayTrace(events []byte, cfg Config) (*MachineResult, error) {
	m := uarch.NewMachine(cfg, trace.NewImage(nil))
	if err := trace.Replay(events, m); err != nil {
		return nil, err
	}
	return m.Result(), nil
}

// EventBuf is a parsed trace: a recorded buffer validated once, with its
// event count. It views the recorded bytes rather than copying them, and
// replays into any number of machines without re-checking them.
type EventBuf = trace.EventBuf

// ParseTrace validates a recorded event buffer into its parsed form.
func ParseTrace(events []byte) (*EventBuf, error) {
	return trace.Parse(events)
}

// ParsedDecodeTrace returns the cached parsed form of a workload's
// recorded decode trace (built on first use). The returned buffer is
// shared cache state and must be treated as read-only.
func ParsedDecodeTrace(ctx context.Context, w Workload, opt DecoderOptions) (*EventBuf, error) {
	return core.ParsedDecodeTrace(ctx, w, opt)
}

// SweepPresets profiles the presets at fixed crf/refs (Figure 6).
func SweepPresets(ctx context.Context, w Workload, cfg Config, presets []Preset, crf, refs int) Points {
	return core.SweepPresets(ctx, w, cfg, presets, crf, refs)
}

// SweepVideos profiles one setting across videos (Figure 7).
func SweepVideos(ctx context.Context, videos []string, frames, scale int, base Options, cfg Config) Points {
	return core.SweepVideos(ctx, videos, frames, scale, base, cfg)
}

// --- compiler optimization studies ---------------------------------------------

// TrainAutoFDO runs a training transcode of the workload's mezzanine — the
// stream Profile transcodes — and returns the FDO-optimized code image for
// use in Job.Image.
func TrainAutoFDO(w Workload, opt Options) (*trace.Image, error) {
	stream, err := core.Mezzanine(context.TODO(), w)
	if err != nil {
		return nil, err
	}
	return autofdo.Train(stream, opt)
}

// GraphiteTuning returns the codec loop tuning produced by the paper's
// Graphite flag set.
func GraphiteTuning(f GraphiteFlags) Tuning { return f.Tuning() }

// AllGraphiteFlags is the paper's -floop-interchange
// -ftree-loop-distribution -floop-block combination.
func AllGraphiteFlags() GraphiteFlags { return graphite.All() }

// --- scheduling ------------------------------------------------------------------

// SchedulerTasks returns the Table III tasks.
func SchedulerTasks() []Task { return sched.TableIII() }

// MeasureScheduling simulates every task on every configuration.
func MeasureScheduling(ctx context.Context, tasks []Task, configs []Config, proto Workload) (*sched.Matrix, error) {
	return sched.Measure(ctx, tasks, configs, proto)
}

// SchedulerOutcome is the Figure 9 comparison result.
type SchedulerOutcome = sched.Outcome

// EvaluateSchedulers runs random/smart/best over a measured matrix.
func EvaluateSchedulers(m *sched.Matrix) (*SchedulerOutcome, error) { return m.Evaluate() }

// SchedulerSpeedup returns the percentage speedup of x over base.
func SchedulerSpeedup(base, x []float64) float64 { return sched.Speedup(base, x) }

// --- fleet-scale scheduling (extension of the paper's case study) ---------------

// GenerateTasks deterministically samples n transcoding tasks across the
// catalog and parameter space.
func GenerateTasks(n int, seed uint64) []Task { return sched.GenerateTasks(n, seed) }
