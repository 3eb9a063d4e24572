package codec

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/trace"
)

// The shared per-video analysis pass factors the encoder work that depends
// only on the video and a small option subset — lookahead cost curves and
// the per-MB variance map behind adaptive quantization — out of EncodeAll,
// so a crf x refs sweep computes it once instead of once per point. The
// artifact carries the recorded lookahead trace events and the tracer's
// post-lookahead sampling state: a consumer replays the events into its
// machine before encoding and restores the sampling counter, making the
// reused encode's event stream byte-identical to a live one (asserted by
// TestAnalysisEncodeEquivalence and core's sweep determinism test).

// AnalysisParams is the option subset the analysis work depends on. Two
// option sets with equal params produce identical artifacts, which is what
// lets a sweep share one across every (crf, refs) point.
type AnalysisParams struct {
	W, H, Frames int
	// Base is the first analyzed frame's PTS: zero for a whole clip,
	// non-zero for a mid-clip segment. Keying on it keeps same-length
	// segments at different offsets from sharing one artifact.
	Base int
	// SampleLog2 fixes the macroblock sampling cadence and therefore which
	// lookahead events were recorded and where the counter ends.
	SampleLog2 int
	// NeedBwd selects the extra backward lookahead pass (b-adapt 2 with B
	// frames enabled).
	NeedBwd bool
	// Distribute mirrors Tuning.DistributeLookahead, which gates the scalar
	// epilogue charged per lookahead block.
	Distribute bool
	// Variance selects the per-MB variance map (any AQ mode).
	Variance bool
}

// AnalysisParamsFor derives the analysis parameters an encode with opt over
// an n-frame w x h clip (or clip segment starting at PTS base) implies.
func AnalysisParamsFor(opt Options, w, h, base, n int) AnalysisParams {
	return AnalysisParams{
		W: w, H: h, Frames: n, Base: base,
		SampleLog2: opt.TraceSampleLog2,
		NeedBwd:    opt.BAdapt >= 2 && opt.BFrames > 0,
		Distribute: opt.Tune.DistributeLookahead,
		Variance:   opt.AQMode > 0,
	}
}

// Analysis is the memoized crf/refs-invariant analysis of one clip. It is
// immutable after Analyze returns and safe to share across concurrent
// encoders.
type Analysis struct {
	Params AnalysisParams

	look     lookaheadCosts
	events   []byte // recorded lookahead trace
	ctr      uint64 // tracer state after the lookahead...
	on       bool   // ...so consumers resume sampling mid-phase
	mbw, mbh int
	variance []float64 // per-MB AQ activity, nil unless Params.Variance
}

// Events returns the recorded lookahead event stream. A consumer that
// encodes with this artifact must first feed these events to its trace sink
// (e.g. via trace.Replay) — they are the instrumentation the skipped
// lookahead would have emitted.
func (a *Analysis) Events() []byte { return a.events }

// SizeBytes reports the artifact's memory footprint for cache accounting.
func (a *Analysis) SizeBytes() int64 {
	return int64(len(a.events)) + int64(8*len(a.variance)) +
		int64(8*(len(a.look.intra)+len(a.look.fwd)+len(a.look.bwd)))
}

// varianceAt returns the cached AQ activity of macroblock (mx, my) of the
// frame with the given PTS; ok is false when the artifact has no entry (no
// variance map, or a PTS outside the analyzed clip).
func (a *Analysis) varianceAt(pts, mx, my int) (float64, bool) {
	i := pts - a.Params.Base
	if a.variance == nil || i < 0 || i >= a.Params.Frames {
		return 0, false
	}
	return a.variance[(i*a.mbh+my)*a.mbw+mx], true
}

// Analyze runs the shared per-video analysis over a clip: the lookahead
// cost pass (recorded through a trace.Recorder) and, when AQ is active, the
// per-MB variance map. Frames must carry sequential PTS (starting anywhere
// — a mid-clip segment keeps its absolute positions); frames without an
// assigned virtual base are given the same bases EncodeAll would assign, so
// recorded addresses match a later encode of the same frames.
func Analyze(frames []*frame.Frame, fps int, opt Options) (*Analysis, error) {
	if len(frames) == 0 {
		return nil, ErrNoFrames
	}
	if opt.RC == RCABR2 {
		// The two-pass probe interleaves a full first-pass encode before the
		// lookahead; its tracer state is not reproducible from this artifact.
		return nil, fmt.Errorf("codec: analysis artifact unsupported for two-pass ABR")
	}
	rec := trace.NewRecorder()
	e, err := NewEncoder(frames[0].Width, frames[0].Height, fps, opt, rec)
	if err != nil {
		return nil, err
	}
	base := frames[0].PTS
	for i, f := range frames {
		if f.Width != e.w || f.Height != e.h {
			return nil, fmt.Errorf("codec: analysis frame %d is %dx%d, clip is %dx%d",
				i, f.Width, f.Height, e.w, e.h)
		}
		if f.PTS != base+i {
			return nil, fmt.Errorf("codec: analysis frame %d has PTS %d, want sequential from %d", i, f.PTS, base)
		}
		if f.Y.Base == 0 {
			e.allocVA(f)
		}
	}

	lc := e.runLookahead(frames)
	a := &Analysis{
		Params: AnalysisParamsFor(opt, e.w, e.h, base, len(frames)),
		look:   *lc,
		ctr:    e.tr.ctr,
		on:     e.tr.on,
		mbw:    e.w / 16,
		mbh:    e.h / 16,
	}
	// The artifact outlives the recorder: keep the events, not the
	// capacity append grew them to.
	a.events = append(make([]byte, 0, len(rec.Bytes())), rec.Bytes()...)
	if a.Params.Variance {
		a.variance = make([]float64, len(frames)*a.mbw*a.mbh)
		for i, f := range frames {
			for my := 0; my < a.mbh; my++ {
				for mx := 0; mx < a.mbw; mx++ {
					a.variance[(i*a.mbh+my)*a.mbw+mx] = f.Y.BlockVariance(mx*16, my*16, 16, 16)
				}
			}
		}
	}
	return a, nil
}

// SetAnalysis attaches a shared analysis artifact. EncodeAll will skip its
// own lookahead and variance computation and resume the tracer from the
// artifact's recorded state; the caller is responsible for having fed
// a.Events() to the encoder's trace sink first, and the artifact's params
// must match the encode (checked in EncodeAll, where the clip length is
// known).
func (e *Encoder) SetAnalysis(a *Analysis) error {
	if e.opt.RC == RCABR2 {
		return fmt.Errorf("codec: analysis artifact unsupported for two-pass ABR")
	}
	if e.tr.ctr != 0 {
		return fmt.Errorf("codec: analysis reuse requires an unused encoder")
	}
	e.analysis = a
	return nil
}

// analysisCosts validates the attached artifact against this encode and
// returns its lookahead costs with the tracer advanced past the recorded
// events' sampling window.
func (e *Encoder) analysisCosts(frames []*frame.Frame) (*lookaheadCosts, error) {
	a := e.analysis
	want := AnalysisParamsFor(e.opt, e.w, e.h, frames[0].PTS, len(frames))
	if a.Params != want {
		return nil, fmt.Errorf("codec: analysis params %+v do not match encode %+v", a.Params, want)
	}
	if e.tr.ctr != 0 {
		return nil, fmt.Errorf("codec: analysis reuse requires a fresh tracer")
	}
	e.tr.ctr, e.tr.on = a.ctr, a.on
	return &a.look, nil
}

// analysisVariance looks up the cached AQ activity for a macroblock; ok is
// false when no artifact (or no variance map) is attached.
func (e *Encoder) analysisVariance(pts, mx, my int) (float64, bool) {
	if e.analysis == nil {
		return 0, false
	}
	return e.analysis.varianceAt(pts, mx, my)
}
