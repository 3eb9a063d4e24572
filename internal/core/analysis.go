package core

import (
	"context"
	"fmt"

	"repro/internal/codec"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/vbench"
)

// The shared-analysis caches are the fourth and fifth singleflight layers of
// the sweep pipeline (after mezzanine, decoded frames and post-decode machine
// snapshots): a crf x refs sweep shares one codec.Analysis artifact — the
// lookahead cost curves and AQ variance map that do not depend on crf or refs
// — and one machine snapshot that has already consumed both the decode trace
// and the artifact's recorded lookahead events. Each point then starts its
// encode from a memcpy-speed thaw instead of re-running the lookahead.
// Fidelity is pinned by TestAnalysisRunEquivalence and the codec package's
// TestAnalysisEncodeEquivalence: reports, stats and the bitstream are
// bit-for-bit identical with and without the reuse.

// analysisKey identifies one shared analysis artifact. The decoder options
// select which decoded-frame entry the artifact's recorded addresses refer
// to; the params fold in the option subset the lookahead work depends on.
type analysisKey struct {
	w    Workload
	dopt codec.DecoderOptions
	p    codec.AnalysisParams
}

// sharedAnalysis returns (building and caching on first use) the
// crf/refs-invariant analysis artifact for a workload's decoded mezzanine,
// scoped to a segment of it (zero segment: the whole clip). Every rung of
// an ABR ladder encoding the same segment shares one artifact — params fold
// in the segment's base and length, so distinct segments get distinct
// entries. The build analyzes its own frames materialized from the cached
// pictures; they carry the decoder-assigned virtual bases, so the recorded
// addresses match what any job encoding the same frames emits.
func (e *Engine) sharedAnalysis(ctx context.Context, w Workload, dopt codec.DecoderOptions, opt codec.Options, seg codec.Segment) (*codec.Analysis, error) {
	w, err := w.normalized()
	if err != nil {
		return nil, err
	}
	dec, err := e.decoded(ctx, w, dopt)
	if err != nil {
		return nil, err
	}
	pictures, err := segmentOf(dec.pictures, seg)
	if err != nil {
		return nil, err
	}
	info, err := vbench.ByName(w.Video)
	if err != nil {
		return nil, err
	}
	first := pictures[0]
	p := codec.AnalysisParamsFor(opt, first.Width, first.Height, first.PTS, len(pictures))
	return e.ana.get(ctx, analysisKey{w: w, dopt: dopt, p: p}, func() (*codec.Analysis, error) {
		a, err := codec.Analyze(materialize(pictures), info.FPS, opt)
		if err != nil {
			return nil, fmt.Errorf("core: analysis of %s: %w", w.Video, err)
		}
		return a, nil
	})
}

// anaSnapKey identifies one analysis-machine snapshot: a machine of one
// configuration and one code image that has consumed one workload's
// decode trace plus the shared artifact's lookahead events.
type anaSnapKey struct {
	w    Workload
	dopt codec.DecoderOptions
	cfg  uarch.Config
	img  *trace.Image
	p    codec.AnalysisParams
}

// parsedAnalysisTrace returns (building and caching on first use) the
// parsed event form of an artifact's recorded lookahead trace, keyed like
// the artifact itself (no uarch config): every configuration's analysis
// snapshot fans out from one parsed view of the artifact's events.
func (e *Engine) parsedAnalysisTrace(ctx context.Context, w Workload, dopt codec.DecoderOptions, a *codec.Analysis) (*trace.EventBuf, error) {
	key := analysisKey{w: w, dopt: dopt, p: a.Params}
	return e.anaParsed.get(ctx, key, func() (*trace.EventBuf, error) {
		b, err := trace.Parse(a.Events())
		if err != nil {
			return nil, fmt.Errorf("core: parse of %s analysis trace: %w", w.Video, err)
		}
		return b, nil
	})
}

// analysisMachine returns the cached post-decode, post-lookahead machine
// snapshot, building it on first use by thawing the decode snapshot,
// replaying the shared parsed view of the artifact's recorded events
// into that machine and freezing it again, sharing cache levels with the
// title's other landed configurations as decodedMachine does.
func (e *Engine) analysisMachine(ctx context.Context, w Workload, dopt codec.DecoderOptions, cfg uarch.Config, img *trace.Image, a *codec.Analysis) (*uarch.Snapshot, error) {
	w, err := w.normalized()
	if err != nil {
		return nil, err
	}
	key := anaSnapKey{w: w, dopt: dopt, cfg: cfg, img: img, p: a.Params}
	return e.anaSnap.get(ctx, key, func() (*uarch.Snapshot, error) {
		snap, err := e.decodedMachine(context.Background(), w, dopt, cfg, img)
		if err != nil {
			return nil, err
		}
		m := snap.Machine()
		parsed, err := e.parsedAnalysisTrace(context.Background(), w, dopt, a)
		if err != nil {
			return nil, err
		}
		m.ReplayEvents(parsed)
		siblings := e.anaSnap.landed(func(k anaSnapKey) bool { return k.w == w && k.dopt == dopt && k.p == a.Params })
		return m.Snapshot(siblings...), nil
	})
}
