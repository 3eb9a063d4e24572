// Package trace defines the abstract execution-event stream emitted by the
// instrumented codec and consumed by the microarchitecture simulator.
//
// The codec does real work on real pixels; alongside that work, its hot
// loops report what a compiled binary would have done — how many ALU
// micro-ops ran in which function, which cache lines of which buffers were
// loaded and stored, and which data-dependent branches went which way. The
// simulator in internal/uarch implements Sink and models caches, TLBs,
// branch predictors and pipeline-slot accounting on top of this stream.
package trace

// FuncID identifies one hot function of the "binary". The set is closed and
// enumerated here so the code image (see Image) can assign every function a
// layout, a size, and a hot-loop footprint.
type FuncID uint8

// Hot functions of the transcoder binary, grouped by pipeline stage. The
// names mirror the corresponding x264/FFmpeg routines.
const (
	FnNone FuncID = iota

	// Encoder analysis.
	FnSAD       // pixel_sad_16x16 and friends
	FnSATD      // pixel_satd (Hadamard)
	FnVariance  // block variance for AQ
	FnMEDia     // diamond integer search driver
	FnMEHex     // hexagon integer search driver
	FnMEUMH     // uneven multi-hexagon search driver
	FnMEESA     // exhaustive search driver
	FnSubpel    // sub-pel refinement
	FnInterp    // half/quarter-pel interpolation filter
	FnIntraPred // intra prediction (all modes)
	FnAnalyse   // macroblock mode decision
	FnLookahead // frame-type decision / scenecut

	// Encoder reconstruction path.
	FnFDCT    // forward 4x4/8x8 integer transform
	FnQuant   // quantization
	FnTrellis // trellis RD quantization
	FnIQuant  // dequantization
	FnIDCT    // inverse transform
	FnMC      // motion compensation copy
	FnDeblock // in-loop deblocking filter

	// Bitstream.
	FnCAVLC     // residual coefficient coding
	FnBitWriter // bit-level output
	FnRC        // rate control

	// Decoder (the first half of a transcode).
	FnDecParse // bitstream parsing
	FnDecMC    // decoder motion compensation
	FnDecIDCT  // decoder inverse transform
	FnDecPred  // decoder intra prediction

	// Harness.
	FnDriver // top-level per-MB driver loop

	NumFuncs
)

var funcNames = [NumFuncs]string{
	FnNone:      "none",
	FnSAD:       "pixel_sad",
	FnSATD:      "pixel_satd",
	FnVariance:  "var_aq",
	FnMEDia:     "me_dia",
	FnMEHex:     "me_hex",
	FnMEUMH:     "me_umh",
	FnMEESA:     "me_esa",
	FnSubpel:    "me_subpel",
	FnInterp:    "mc_interp",
	FnIntraPred: "intra_pred",
	FnAnalyse:   "mb_analyse",
	FnLookahead: "lookahead",
	FnFDCT:      "dct_fwd",
	FnQuant:     "quant",
	FnTrellis:   "trellis",
	FnIQuant:    "dequant",
	FnIDCT:      "dct_inv",
	FnMC:        "mc_copy",
	FnDeblock:   "deblock",
	FnCAVLC:     "cavlc",
	FnBitWriter: "bitwriter",
	FnRC:        "ratecontrol",
	FnDecParse:  "dec_parse",
	FnDecMC:     "dec_mc",
	FnDecIDCT:   "dec_idct",
	FnDecPred:   "dec_pred",
	FnDriver:    "encode_driver",
}

// String returns the symbol-style name of the function.
func (f FuncID) String() string {
	if int(f) < len(funcNames) {
		return funcNames[f]
	}
	return "invalid"
}

// BranchID identifies a static conditional-branch site. Sites are small
// integers unique within a function; the simulator combines them with the
// function's address to index predictor tables.
type BranchID uint16

// Sink receives the execution-event stream. Implementations must be cheap:
// the codec calls these methods at block granularity inside its hot loops.
//
// All Sink methods use the convention that `fn` is the function whose code
// is executing; the simulator charges instruction fetch to that function's
// code-image region.
type Sink interface {
	// Ops reports n ALU/branchless micro-ops executed in fn.
	Ops(fn FuncID, n int)
	// Load reports a read of `bytes` bytes starting at virtual address addr.
	Load(fn FuncID, addr uint64, bytes int)
	// Store reports a write of `bytes` bytes starting at addr.
	Store(fn FuncID, addr uint64, bytes int)
	// Load2D reports a read of a w x h pixel block whose rows are `stride`
	// bytes apart, starting at addr. Equivalent to h Load calls — row j is
	// Load(fn, addr+j*stride, w) — but far cheaper to emit from block
	// kernels. An implementation may walk the rows in one pass; it must end
	// in the state the h calls would leave (for uarch.Machine,
	// TestBlockWalkMatchesRowLoads holds it to that).
	Load2D(fn FuncID, addr uint64, w, h, stride int)
	// Store2D is the store counterpart of Load2D: equivalent to h Store calls.
	Store2D(fn FuncID, addr uint64, w, h, stride int)
	// Branch reports one execution of the data-dependent conditional branch
	// `site` in fn with the given outcome.
	Branch(fn FuncID, site BranchID, taken bool)
	// Loop reports a counted loop at `site` in fn that ran `iters`
	// iterations (its backward branch was taken iters-1 times, then fell
	// through). The simulator models the exit prediction from trip-count
	// regularity.
	Loop(fn FuncID, site BranchID, iters int)
	// Call reports a call (fetch redirect) into fn.
	Call(fn FuncID)
}

// Nop is a Sink that discards every event. Useful when the codec runs
// without a simulator attached.
type Nop struct{}

func (Nop) Ops(FuncID, int)                       {}
func (Nop) Load(FuncID, uint64, int)              {}
func (Nop) Store(FuncID, uint64, int)             {}
func (Nop) Load2D(FuncID, uint64, int, int, int)  {}
func (Nop) Store2D(FuncID, uint64, int, int, int) {}
func (Nop) Branch(FuncID, BranchID, bool)         {}
func (Nop) Loop(FuncID, BranchID, int)            {}
func (Nop) Call(FuncID)                           {}

var _ Sink = Nop{}
