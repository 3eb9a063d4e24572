package codec

import (
	"repro/internal/frame"
	"repro/internal/trace"
)

// lookaheadCosts holds the per-frame complexity estimates the frame-type
// decision runs on: a cheap intra cost and a motion-compensated cost
// against the previous (and, for b-adapt 2, the next) frame, measured on a
// sparse grid of 8x8 blocks.
type lookaheadCosts struct {
	intra []int // per frame
	fwd   []int // vs previous frame (frame 0: == intra)
	bwd   []int // vs next frame (only populated for b-adapt 2)
}

// lookaheadGrid is the sampling stride in 8x8 blocks (evaluate one of every
// lookaheadGrid^2 blocks).
const lookaheadGrid = 2

// runLookahead estimates complexities for all frames.
func (e *Encoder) runLookahead(frames []*frame.Frame) *lookaheadCosts {
	n := len(frames)
	lc := &lookaheadCosts{
		intra: make([]int, n),
		fwd:   make([]int, n),
		bwd:   make([]int, n),
	}
	needBwd := e.opt.BAdapt >= 2 && e.opt.BFrames > 0
	for i, f := range frames {
		e.tr.call(trace.FnLookahead)
		lc.intra[i] = e.lookaheadIntra(f)
		if i > 0 {
			lc.fwd[i] = e.lookaheadInter(f, frames[i-1])
		} else {
			lc.fwd[i] = lc.intra[i]
		}
		if needBwd {
			if i+1 < n {
				lc.bwd[i] = e.lookaheadInter(f, frames[i+1])
			} else {
				lc.bwd[i] = lc.intra[i]
			}
		}
	}
	return lc
}

// lookaheadEpilogue charges the scalar epilogue the fused lookahead loop
// pays per block when -ftree-loop-distribution has not split it: the
// combined cost/variance loop nest defeats the vectorizer, so part of each
// block runs scalar.
func (e *Encoder) lookaheadEpilogue() {
	if !e.opt.Tune.DistributeLookahead {
		e.tr.ops(trace.FnLookahead, 26)
	}
}

// lookaheadIntra estimates the intra coding cost of a frame: SATD of sparse
// 8x8 blocks against their DC prediction.
func (e *Encoder) lookaheadIntra(f *frame.Frame) int {
	var pred block
	total := 0
	step := 8 * lookaheadGrid
	for y := 0; y+8 <= f.Height; y += step {
		for x := 0; x+8 <= f.Width; x += step {
			e.tr.nextMB()
			// DC prediction from the block's own mean: a cheap stand-in for
			// the best intra mode, adequate for relative comparisons.
			mean := uint8(0)
			var sum int
			for j := 0; j < 8; j++ {
				for _, v := range f.Y.RowFrom(x, y+j, 8) {
					sum += int(v)
				}
			}
			mean = uint8(sum / 64)
			pred.w, pred.h = 8, 8
			for i := range pred.pix[:64] {
				pred.pix[i] = mean
			}
			total += e.tr.satdBlock(trace.FnLookahead, &f.Y, x, y, &pred) + 400
			e.lookaheadEpilogue()
		}
	}
	return total
}

// lookaheadInter estimates the motion-compensated cost of cur given ref: a
// small diamond search per sparse 8x8 block.
func (e *Encoder) lookaheadInter(cur, ref *frame.Frame) int {
	total := 0
	step := 8 * lookaheadGrid
	for y := 0; y+8 <= cur.Height; y += step {
		for x := 0; x+8 <= cur.Width; x += step {
			e.tr.nextMB()
			best := e.tr.sad(trace.FnLookahead, &cur.Y, x, y, &ref.Y, x, y, 8, 8)
			cx, cy := 0, 0
			for it := 0; it < 8; it++ {
				improved := false
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx := clampMVRange(cx+d[0], x, 8, cur.Width)
					ny := clampMVRange(cy+d[1], y, 8, cur.Height)
					s := e.tr.sad(trace.FnLookahead, &cur.Y, x, y, &ref.Y, x+nx, y+ny, 8, 8)
					better := s < best
					e.tr.branch(trace.FnLookahead, siteLookCmp, better)
					if better {
						best, cx, cy = s, nx, ny
						improved = true
					}
				}
				if !improved {
					break
				}
			}
			total += best
			e.lookaheadEpilogue()
		}
	}
	return total
}

// decideTypes assigns a frame type to every display frame using scenecut
// detection, the keyframe interval, and the configured B-frame policy.
func (e *Encoder) decideTypes(frames []*frame.Frame, lc *lookaheadCosts) []FrameType {
	n := len(frames)
	types := make([]FrameType, n)
	types[0] = FrameI
	sinceI := 0

	// Pass 1: place I frames (scenecut + keyint).
	for i := 1; i < n; i++ {
		sinceI++
		cut := false
		if e.opt.Scenecut > 0 {
			// A hard cut makes motion compensation no better than intra.
			thresh := 0.40 + 0.45*float64(100-e.opt.Scenecut)/100
			cut = float64(lc.fwd[i]) > thresh*float64(lc.intra[i])
		}
		if sinceI >= e.opt.KeyintMax || cut {
			types[i] = FrameI
			sinceI = 0
		} else {
			types[i] = FrameP
		}
	}

	// Pass 2: upgrade runs between anchors to B frames.
	if e.opt.BFrames > 0 {
		run := 0
		for i := 1; i < n-1; i++ {
			if types[i] != FrameP {
				run = 0
				continue
			}
			if types[i+1] == FrameI {
				// The frame before an I stays P so every B has two anchors.
				run = 0
				continue
			}
			eligible := false
			switch e.opt.BAdapt {
			case 0:
				eligible = true
			case 1:
				eligible = float64(lc.fwd[i]) < 0.5*float64(lc.intra[i])
			default: // 2: consider both temporal directions
				c := lc.fwd[i]
				if lc.bwd[i] < c {
					c = lc.bwd[i]
				}
				eligible = float64(c) < 0.55*float64(lc.intra[i])
			}
			if eligible && run < e.opt.BFrames {
				types[i] = FrameB
				run++
			} else {
				run = 0
			}
		}
	}
	return types
}
