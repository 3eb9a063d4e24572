package codec

import (
	"repro/internal/frame"
	"repro/internal/trace"
)

// meFunc maps a search method to the trace function charged for its driver
// loop.
func meFunc(m MEMethod) trace.FuncID {
	switch m {
	case MEDia:
		return trace.FnMEDia
	case MEHex:
		return trace.FnMEHex
	case MEUMH:
		return trace.FnMEUMH
	default:
		return trace.FnMEESA
	}
}

// visitR bounds the candidate-deduplication window around the predictor;
// searches rarely drift further than the maximum range plus refinement.
const visitR = 72

// meQuery describes one integer-pel motion search.
type meQuery struct {
	src     *frame.Plane // source picture
	ref     *frame.Plane // reference picture (reconstructed)
	sx, sy  int          // block position in the source
	w, h    int          // block dimensions
	mvp     MV           // predictor, quarter-pel
	rangePx int          // integer search range
	method  MEMethod
	useSATD bool // metric for integer search (tesa)
	lambda  int
	earlyPx int // per-pixel early-termination threshold (0 disables)
}

// meResult carries the winning integer-pel vector and its cost.
type meResult struct {
	mv   MV  // quarter-pel (integer-aligned after integer search)
	cost int // metric + lambda*mvd bits
	sad  int // raw metric at the winner
}

// motionSearch runs the configured integer-pel search and returns the best
// vector. All candidate evaluation flows through the tracer so the cache
// and branch-prediction consequences of the search pattern are measurable.
func (e *Encoder) motionSearch(q *meQuery) meResult {
	fn := meFunc(q.method)
	e.tr.call(fn)

	best := meResult{cost: 1 << 30}
	// Candidate evaluation shared by all patterns. Positions are integer
	// pel. Returns true when the candidate improved on the best. A
	// generation-stamped window array deduplicates revisited positions
	// without per-search allocation.
	e.visitGen++
	cpx, cpy := int(q.mvp.X>>2), int(q.mvp.Y>>2)
	ord := 0
	eval := func(mx, my int) bool {
		mx = clampMVRange(mx, q.sx, q.w, q.src.W)
		my = clampMVRange(my, q.sy, q.h, q.src.H)
		if dx, dy := mx-cpx, my-cpy; dx >= -visitR && dx <= visitR && dy >= -visitR && dy <= visitR {
			idx := (dy+visitR)*(2*visitR+1) + dx + visitR
			if e.visited[idx] == e.visitGen {
				return false
			}
			e.visited[idx] = e.visitGen
		}
		var metric int
		if q.useSATD {
			metric = e.tr.satd(trace.FnSATD, q.src, q.sx, q.sy, q.ref, q.sx+mx, q.sy+my, q.w, q.h)
		} else {
			limit := best.cost
			if limit > 1<<24 {
				limit = 1 << 24
			}
			metric = e.tr.sadThresh(trace.FnSAD, q.src, q.sx, q.sy, q.ref, q.sx+mx, q.sy+my, q.w, q.h, limit)
		}
		mv := MV{int32(mx * 4), int32(my * 4)}
		cost := metric + q.lambda*mvBits(MV{mv.X - q.mvp.X, mv.Y - q.mvp.Y})
		better := cost < best.cost
		// Distinct sites per unrolled pattern position: early candidates
		// improve often, ring tails rarely.
		e.tr.branch(fn, siteMECmp+trace.BranchID(ord&15)*16, better)
		ord++
		if better {
			best = meResult{mv: mv, cost: cost, sad: metric}
		}
		return better
	}

	// All searches start from the predictor and the zero vector.
	px, py := int(q.mvp.X>>2), int(q.mvp.Y>>2)
	eval(px, py)
	eval(0, 0)
	earlyLimit := q.earlyPx * q.w * q.h / 256

	switch q.method {
	case MEDia:
		e.diamondSearch(q, fn, eval, &best, earlyLimit)
	case MEHex:
		e.hexSearch(q, fn, eval, &best, earlyLimit)
	case MEUMH:
		e.umhSearch(q, fn, eval, &best, earlyLimit)
	case MEESA, METesa:
		e.esaSearch(q, fn, eval, &best, earlyLimit)
	}
	return best
}

// diamondSearch iterates a small (radius 1) diamond until no improvement.
func (e *Encoder) diamondSearch(q *meQuery, fn trace.FuncID, eval func(int, int) bool, best *meResult, earlyLimit int) {
	iters := 0
	for iters < q.rangePx {
		iters++
		cx, cy := int(best.mv.X>>2), int(best.mv.Y>>2)
		improved := false
		improved = eval(cx+1, cy) || improved
		improved = eval(cx-1, cy) || improved
		improved = eval(cx, cy+1) || improved
		improved = eval(cx, cy-1) || improved
		if !improved {
			break
		}
		if earlyLimit > 0 {
			done := best.sad < earlyLimit
			e.tr.branch(fn, siteMEEarly, done)
			if done {
				break
			}
		}
	}
	e.tr.loop(fn, siteSearchLoop, iters)
}

var hexPoints = [6][2]int{{2, 0}, {1, 2}, {-1, 2}, {-2, 0}, {-1, -2}, {1, -2}}

// hexSearch iterates a six-point hexagon, then refines with a diamond.
func (e *Encoder) hexSearch(q *meQuery, fn trace.FuncID, eval func(int, int) bool, best *meResult, earlyLimit int) {
	iters := 0
	for iters < q.rangePx/2+1 {
		iters++
		cx, cy := int(best.mv.X>>2), int(best.mv.Y>>2)
		improved := false
		for _, p := range hexPoints {
			improved = eval(cx+p[0], cy+p[1]) || improved
		}
		if !improved {
			break
		}
		if earlyLimit > 0 {
			done := best.sad < earlyLimit
			e.tr.branch(fn, siteMEEarly, done)
			if done {
				break
			}
		}
	}
	e.tr.loop(fn, siteSearchLoop, iters)
	// Square refinement.
	cx, cy := int(best.mv.X>>2), int(best.mv.Y>>2)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx != 0 || dy != 0 {
				eval(cx+dx, cy+dy)
			}
		}
	}
}

// umhSearch implements the uneven multi-hexagon pattern: an unsymmetrical
// cross, a 5x5 grid, expanding 16-point multi-hexagons, then hexagon
// refinement. Far more candidates than hex, better vectors on hard content.
func (e *Encoder) umhSearch(q *meQuery, fn trace.FuncID, eval func(int, int) bool, best *meResult, earlyLimit int) {
	cx, cy := int(best.mv.X>>2), int(best.mv.Y>>2)
	// Unsymmetrical cross: horizontal reach = range, vertical = range/2.
	steps := 0
	for d := 2; d <= q.rangePx; d += 2 {
		eval(cx+d, cy)
		eval(cx-d, cy)
		if d <= q.rangePx/2 {
			eval(cx, cy+d)
			eval(cx, cy-d)
		}
		steps++
	}
	e.tr.loop(fn, siteSearchLoop, steps)
	if earlyLimit > 0 && best.sad < earlyLimit*2 {
		e.tr.branch(fn, siteMEEarly, true)
		e.hexSearch(q, fn, eval, best, earlyLimit)
		return
	}
	e.tr.branch(fn, siteMEEarly, false)
	// 5x5 full grid around the current best.
	cx, cy = int(best.mv.X>>2), int(best.mv.Y>>2)
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			eval(cx+dx, cy+dy)
		}
	}
	// Expanding multi-hexagons (16 points per ring).
	rings := 0
	for r := 4; r <= q.rangePx; r *= 2 {
		rings++
		for i := 0; i < 16; i++ {
			dx := umhRing[i][0] * r / 4
			dy := umhRing[i][1] * r / 4
			eval(cx+dx, cy+dy)
		}
	}
	e.tr.loop(fn, siteSearchLoop, rings)
	e.hexSearch(q, fn, eval, best, earlyLimit)
}

// umhRing approximates a 16-point hexagon of radius 4.
var umhRing = [16][2]int{
	{4, 0}, {4, 1}, {3, 2}, {2, 3}, {0, 4}, {-2, 3}, {-3, 2}, {-4, 1},
	{-4, 0}, {-4, -1}, {-3, -2}, {-2, -3}, {0, -4}, {2, -3}, {3, -2}, {4, -1},
}

// esaSearch evaluates every integer position within the search window.
// Thanks to threshold-aborted SAD its cost still shrinks as the best cost
// drops, the way real exhaustive searches behave; the early-termination
// threshold the other patterns honour cuts whole remaining rows once a
// good-enough match has been found.
func (e *Encoder) esaSearch(q *meQuery, fn trace.FuncID, eval func(int, int) bool, best *meResult, earlyLimit int) {
	px, py := int(q.mvp.X>>2), int(q.mvp.Y>>2)
	r := q.rangePx
	rows := 0
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			eval(px+dx, py+dy)
		}
		rows++
		if earlyLimit > 0 {
			done := best.sad < earlyLimit
			e.tr.branch(fn, siteMEEarly, done)
			if done {
				break
			}
		}
	}
	e.tr.loop(fn, siteSearchLoop, rows)
}

// subpelIters returns (half, quarter) refinement iteration counts for a
// subme level, following x264's escalation.
func subpelIters(subme int) (half, quarter int) {
	halfTab := [12]int{0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4}
	quarTab := [12]int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6}
	return halfTab[subme], quarTab[subme]
}

// subpelCost measures the candidate vector mv of q with SATD or SAD against
// src, q's source block: one fused kernel interpolates and measures, and
// the events are those of interpLuma followed by satdBlock (or the staged
// SAD) on the prediction it no longer stages. TestFusedSubpelMatchesStaged
// pins value and events against that pair on scalar oracles.
func (t *tracer) subpelCost(src *frame.PlanarBlock, q *meQuery, mv MV, satd bool) int {
	ix, iy := q.sx+int(mv.X>>2), q.sy+int(mv.Y>>2)
	fx, fy := int(mv.X&3), int(mv.Y&3)
	m := src.SubpelCost(q.ref, ix, iy, fx, fy, satd)
	t.interpEvents(trace.FnInterp, q.ref, ix, iy, fx|fy != 0, q.w, q.h)
	if satd {
		t.satdBlockEvents(trace.FnSubpel, q.src, q.sx, q.sy, q.w, q.h)
	} else if t.on {
		t.sink.Call(trace.FnSubpel)
		t.sink.Ops(trace.FnSubpel, q.w*q.h/8+12)
		t.sink.Load2D(trace.FnSubpel, q.src.Addr(q.sx, q.sy), q.w, q.h, q.src.Stride)
	}
	return m
}

// subpelRefine polishes an integer-pel result at half- then quarter-pel
// resolution using the SATD metric (for subme >= 3, matching x264) or SAD.
func (e *Encoder) subpelRefine(q *meQuery, res meResult, subme int) meResult {
	half, quarter := subpelIters(subme)
	if half+quarter == 0 {
		return res
	}
	e.tr.call(trace.FnSubpel)
	useSATD := subme >= 3
	var src frame.PlanarBlock
	src.Load(q.src, q.sx, q.sy, q.w, q.h)
	cost := func(mv MV) int {
		return e.tr.subpelCost(&src, q, mv, useSATD) + q.lambda*mvBits(MV{mv.X - q.mvp.X, mv.Y - q.mvp.Y})
	}
	refine := func(step int32, iters int) {
		for it := 0; it < iters; it++ {
			improved := false
			c := res.mv
			for _, d := range [4]MV{{step, 0}, {-step, 0}, {0, step}, {0, -step}} {
				mv := MV{c.X + d.X, c.Y + d.Y}
				// Keep fractional reads within padding.
				ix := q.sx + int(mv.X>>2)
				iy := q.sy + int(mv.Y>>2)
				if ix < -(frame.Pad-4) || iy < -(frame.Pad-4) ||
					ix > q.src.W+(frame.Pad-4)-q.w || iy > q.src.H+(frame.Pad-4)-q.h {
					continue
				}
				cst := cost(mv)
				better := cst < res.cost
				e.tr.branch(trace.FnSubpel, siteMECmp, better)
				if better {
					res.cost = cst
					res.mv = mv
					improved = true
				}
			}
			e.tr.loop(trace.FnSubpel, siteSubpelLoop, 4)
			if !improved {
				break
			}
		}
	}
	// Seed the refinement cost with the current metric re-evaluated under
	// the sub-pel metric so comparisons are apples-to-apples.
	res.cost = cost(res.mv)
	refine(2, half)
	refine(1, quarter)
	return res
}
