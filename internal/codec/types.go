// Package codec implements an H.264-class video encoder and decoder: the
// transcoding workload whose microarchitectural behaviour this module
// characterizes. It provides the same tuning surface the paper sweeps —
// crf, refs, and the ten x264 presets with their me/subme/trellis/bframes/
// partitions sub-options — together with six rate-control modes, I/P/B
// frame-type decision with scenecut detection, up to 16 reference frames,
// sub-pel motion compensation, trellis quantization, CAVLC-style residual
// coding over exponential-Golomb primitives, and an in-loop deblocking
// filter. The encoder is instrumented: its hot loops emit a trace.Sink
// event stream with real code and data addresses so that internal/uarch can
// simulate caches, branch predictors and pipeline-slot accounting under it.
package codec

import (
	"fmt"

	"repro/internal/trace"
)

// FrameType classifies a coded picture.
type FrameType uint8

const (
	FrameI FrameType = iota // intra-only
	FrameP                  // predicted from past references
	FrameB                  // bidirectionally predicted
)

// String returns "I", "P" or "B".
func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	default:
		return "B"
	}
}

// MEMethod selects the integer-pel motion-estimation search pattern, in
// increasing order of effort, mirroring x264's --me option.
type MEMethod uint8

const (
	MEDia  MEMethod = iota // small diamond
	MEHex                  // hexagon
	MEUMH                  // uneven multi-hexagon
	MEESA                  // exhaustive within range
	METesa                 // exhaustive with Hadamard (transformed) metric
)

// String returns the x264 option spelling.
func (m MEMethod) String() string {
	return [...]string{"dia", "hex", "umh", "esa", "tesa"}[m]
}

// Partitions selects which macroblock subdivisions the analyser may use,
// mirroring x264's --partitions.
type Partitions struct {
	P8x8 bool // allow 16x8 / 8x16 / 8x8 inter partitions
	P4x4 bool // allow splitting 8x8 inter partitions to 4x4
	I8x8 bool // allow 8x8 intra prediction
	I4x4 bool // allow 4x4 intra prediction
}

// String renders in x264 style ("none", "all", or a +/- list).
func (p Partitions) String() string {
	switch {
	case !p.P8x8 && !p.P4x4 && !p.I8x8 && !p.I4x4:
		return "none"
	case p.P8x8 && p.P4x4 && p.I8x8 && p.I4x4:
		return "all"
	case p.P8x8 && !p.P4x4 && p.I8x8 && p.I4x4:
		return "-p4x4"
	case !p.P8x8 && !p.P4x4 && p.I8x8 && p.I4x4:
		return "+i8x8,+i4x4"
	default:
		return fmt.Sprintf("{p8x8:%v p4x4:%v i8x8:%v i4x4:%v}", p.P8x8, p.P4x4, p.I8x8, p.I4x4)
	}
}

// RateControlMode selects the rate-control algorithm (§II-B1 of the paper).
type RateControlMode uint8

const (
	RCCRF  RateControlMode = iota // constant rate factor: quality target (x264 default)
	RCCQP                         // constant quantizer
	RCABR                         // single-pass average bitrate
	RCABR2                        // two-pass average bitrate
	RCCBR                         // constant bitrate with macroblock-level control
	RCVBV                         // constrained encoding: CRF capped by a VBV buffer
)

// String returns the conventional mode name.
func (m RateControlMode) String() string {
	return [...]string{"crf", "cqp", "abr", "2pass-abr", "cbr", "vbv"}[m]
}

// Tuning holds the loop-level code-generation choices a polyhedral
// optimizer (Graphite) makes for the hot frame loops. The flags change the
// real iteration order and pass structure of the encoder/decoder, and hence
// the data-address stream seen by the cache simulator — they never change
// coded output.
type Tuning struct {
	// FuseDeblock runs the deblocking filter per macroblock row, lagged one
	// row, instead of as a separate whole-frame pass. Models loop fusion /
	// blocking (-floop-block): reconstructed pixels are filtered while still
	// cache-resident.
	FuseDeblock bool
	// InterchangeResidual iterates a macroblock's 4x4 residual blocks in
	// row-major order instead of the column-major order of the naive
	// loop nest. Models -floop-interchange: consecutive blocks share cache
	// lines.
	InterchangeResidual bool
	// DistributeLookahead splits the lookahead's fused cost/variance loop
	// nest into separate loops, letting the vectorizer handle each cleanly
	// instead of running a scalar epilogue per block. Models
	// -ftree-loop-distribution's enabling effect.
	DistributeLookahead bool
}

// Options configures an encode. The zero value is not valid; use Defaults()
// or ApplyPreset to populate it.
type Options struct {
	// Rate control.
	RC          RateControlMode
	CRF         int // 0..51, used by RCCRF and RCVBV
	QP          int // used by RCCQP
	BitrateKbps int // target for ABR/2-pass/CBR
	VBVMaxKbps  int // VBV cap (RCVBV)
	VBVBufKbits int // VBV buffer size (RCVBV)

	// Structure.
	Refs      int // reference frames, 1..16
	BFrames   int // max consecutive B frames
	BAdapt    int // 0 fixed, 1 fast heuristic, 2 exhaustive lookahead
	KeyintMax int // maximum GOP length
	Scenecut  int // scenecut sensitivity (0 disables), x264 default 40

	// Analysis.
	ME         MEMethod
	MERange    int // integer search range
	Subme      int // 0..11 sub-pel refinement / RD effort
	Trellis    int // 0 off, 1 final-encode, 2 all mode decisions
	AQMode     int // 0 off, 1 variance-based adaptive quantization
	Partitions Partitions
	DeblockA   int // deblock alpha offset
	DeblockB   int // deblock beta offset
	Deblock    bool

	// Code generation (set by the Graphite model, not by presets).
	Tune Tuning

	// DCT8x8 codes luma residuals with an 8x8 transform where the
	// prediction structure allows it (everything except 4x4 intra), the
	// x264 --8x8dct feature. Off by default; all paper experiments run
	// with the 4x4 transform.
	DCT8x8 bool

	// TraceSampleLog2 makes the instrumentation emit events for 1 of every
	// 2^n macroblocks (0 traces everything). Sampling keeps simulation
	// tractable on large sweeps; counters scale back up by the same factor.
	TraceSampleLog2 int
}

// Defaults returns the medium-preset options with CRF 23, the x264
// defaults used throughout the paper's profiling.
func Defaults() Options {
	o := Options{RC: RCCRF, CRF: 23, QP: 26, KeyintMax: 250}
	ApplyPreset(&o, PresetMedium)
	return o
}

// Validate reports whether the options are internally consistent.
func (o *Options) Validate() error {
	if o.CRF < 0 || o.CRF > 51 {
		return fmt.Errorf("codec: crf %d out of range [0,51]", o.CRF)
	}
	if o.QP < 0 || o.QP > 51 {
		return fmt.Errorf("codec: qp %d out of range [0,51]", o.QP)
	}
	if o.Refs < 1 || o.Refs > 16 {
		return fmt.Errorf("codec: refs %d out of range [1,16]", o.Refs)
	}
	if o.Subme < 0 || o.Subme > 11 {
		return fmt.Errorf("codec: subme %d out of range [0,11]", o.Subme)
	}
	if o.Trellis < 0 || o.Trellis > 2 {
		return fmt.Errorf("codec: trellis %d out of range [0,2]", o.Trellis)
	}
	if o.BFrames < 0 || o.BFrames > 16 {
		return fmt.Errorf("codec: bframes %d out of range [0,16]", o.BFrames)
	}
	if o.MERange < 4 || o.MERange > 64 {
		return fmt.Errorf("codec: merange %d out of range [4,64]", o.MERange)
	}
	switch o.RC {
	case RCABR, RCABR2, RCCBR:
		if o.BitrateKbps <= 0 {
			return fmt.Errorf("codec: %v requires a positive target bitrate", o.RC)
		}
	case RCVBV:
		if o.VBVMaxKbps <= 0 || o.VBVBufKbits <= 0 {
			return fmt.Errorf("codec: vbv requires positive max bitrate and buffer size")
		}
	}
	return nil
}

// MV is a motion vector in quarter-pel units.
type MV struct{ X, Y int32 }

// FrameStats summarizes one coded frame.
type FrameStats struct {
	PTS     int
	Type    FrameType
	QP      int
	Bits    int64
	PSNR    float64
	IntraMB int
	InterMB int
	SkipMB  int
}

// Stats summarizes an encode.
type Stats struct {
	Frames      []FrameStats
	Width       int
	Height      int
	FPS         int
	TotalBits   int64
	AveragePSNR float64 // mean per-frame global PSNR
}

// BitrateKbps returns the stream bitrate implied by the frame count and fps.
func (s *Stats) BitrateKbps() float64 {
	if len(s.Frames) == 0 || s.FPS == 0 {
		return 0
	}
	seconds := float64(len(s.Frames)) / float64(s.FPS)
	return float64(s.TotalBits) / 1000 / seconds
}

// CountTypes returns the number of I, P and B frames.
func (s *Stats) CountTypes() (i, p, b int) {
	for _, f := range s.Frames {
		switch f.Type {
		case FrameI:
			i++
		case FrameP:
			p++
		default:
			b++
		}
	}
	return
}

// sink-site identifiers used by the instrumentation. Grouped here so encoder
// and decoder agree and tests can reference them.
const (
	siteMECmp      trace.BranchID = 1  // candidate-vs-best cost comparison
	siteMEEarly    trace.BranchID = 2  // early-termination check
	siteSkipCheck  trace.BranchID = 3  // P-skip eligibility
	siteCoefNZ     trace.BranchID = 4  // coefficient significance test
	siteModeCmp    trace.BranchID = 5  // intra/inter mode decision compare
	siteRefCmp     trace.BranchID = 6  // best-ref compare
	siteSearchLoop trace.BranchID = 7  // integer search iteration loop
	siteZigzagLoop trace.BranchID = 8  // coefficient scan loop
	siteRowLoop    trace.BranchID = 9  // MB row loop
	siteDeblockBS  trace.BranchID = 10 // deblock boundary-strength test
	siteLookCmp    trace.BranchID = 11 // lookahead cost compare
	siteDecCoef    trace.BranchID = 12 // decoder coefficient loop branch
	siteSubpelLoop trace.BranchID = 13 // subpel refinement loop
)
