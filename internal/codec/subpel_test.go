package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/trace"
)

// interpLumaScalar is the pixel-at-a-time bilinear interpolation (and its
// events) that interpLuma's packed body and the fused sub-pel cost replaced:
// the oracle for both.
func interpLumaScalar(t *tracer, fn trace.FuncID, ref *frame.Plane, sx, sy int, mv MV, dst *block, w, h int) {
	dst.w, dst.h = w, h
	ix := sx + int(mv.X>>2)
	iy := sy + int(mv.Y>>2)
	fx := int32(mv.X & 3)
	fy := int32(mv.Y & 3)
	if fx == 0 && fy == 0 {
		for j := 0; j < h; j++ {
			copy(dst.row(j), ref.RowFrom(ix, iy+j, w))
		}
		if t.on {
			t.sink.Call(fn)
			t.sink.Ops(fn, w*h/16+8)
			t.sink.Load2D(fn, ref.Addr(ix, iy), w, h, ref.Stride)
		}
		return
	}
	w00 := (4 - fx) * (4 - fy)
	w01 := fx * (4 - fy)
	w10 := (4 - fx) * fy
	w11 := fx * fy
	for j := 0; j < h; j++ {
		r0 := ref.RowFrom(ix, iy+j, w+1)
		r1 := ref.RowFrom(ix, iy+j+1, w+1)
		out := dst.row(j)
		for i := 0; i < w; i++ {
			v := w00*int32(r0[i]) + w01*int32(r0[i+1]) + w10*int32(r1[i]) + w11*int32(r1[i+1])
			out[i] = uint8((v + 8) >> 4)
		}
	}
	if t.on {
		t.sink.Call(fn)
		t.sink.Ops(fn, w*h/4+16)
		t.sink.Load2D(fn, ref.Addr(ix, iy), w+1, h+1, ref.Stride)
	}
}

// stagedSubpelCost is the stage-then-measure pair subpelCost replaced: the
// scalar interpolation into a block, the scalar metric on that block, and
// the events of interpLuma followed by satdBlock or the staged SAD.
func stagedSubpelCost(t *tracer, q *meQuery, mv MV, satd bool) int {
	var pred block
	interpLumaScalar(t, trace.FnInterp, q.ref, q.sx, q.sy, mv, &pred, q.w, q.h)
	m, ops := stagedScalarSAD(q.src, q.sx, q.sy, &pred), q.w*q.h/8+12
	if satd {
		m, ops = stagedScalarSATD(q.src, q.sx, q.sy, &pred), q.w*q.h/4+24
	}
	if t.on {
		t.sink.Call(trace.FnSubpel)
		t.sink.Ops(trace.FnSubpel, ops)
		t.sink.Load2D(trace.FnSubpel, q.src.Addr(q.sx, q.sy), q.w, q.h, q.src.Stride)
	}
	return m
}

// checkFusedSubpel compares subpelCost with stagedSubpelCost on one query
// and vector: the value, and the recorded events with the tracer on and off.
func checkFusedSubpel(q *meQuery, mv MV, satd bool) error {
	for _, on := range []bool{true, false} {
		recA, recB := trace.NewRecorder(), trace.NewRecorder()
		trA, trB := newTracer(recA, 0), newTracer(recB, 0)
		trA.on, trB.on = on, on
		var src frame.PlanarBlock
		src.Load(q.src, q.sx, q.sy, q.w, q.h)
		got, want := trA.subpelCost(&src, q, mv, satd), stagedSubpelCost(&trB, q, mv, satd)
		if got != want {
			return fmt.Errorf("cost %d, staged %d", got, want)
		}
		if !bytes.Equal(recA.Bytes(), recB.Bytes()) || (recA.Events() != 0) != on {
			return fmt.Errorf("tracer on=%v: %d events, staged %d, or their bytes differ", on, recA.Events(), recB.Events())
		}
	}
	return nil
}

// subpelSizes are the partition sizes the encoder refines at sub-pel level.
var subpelSizes = [][2]int{{16, 16}, {16, 8}, {8, 16}, {8, 8}, {4, 4}}

// TestFusedSubpelMatchesStaged: the fused kernel against the scalar oracle
// for every fractional offset, every partition size, both metrics, integer
// parts out to both ends of the padding the refinement allows, and content
// that reaches the lane bounds (0 against 255 maximizes every coefficient).
func TestFusedSubpelMatchesStaged(t *testing.T) {
	const W, H = 64, 48
	rng := rand.New(rand.NewSource(22))
	fill := func(f func(x, y int) uint8) frame.Plane {
		p := frame.NewPlane(W, H)
		for y := -frame.Pad; y < H+frame.Pad; y++ {
			for x := -frame.Pad; x < W+frame.Pad; x++ {
				p.Set(x, y, f(x, y))
			}
		}
		return p
	}
	flat := func(v uint8) func(int, int) uint8 { return func(int, int) uint8 { return v } }
	random := func(int, int) uint8 { return uint8(rng.Intn(256)) }
	extremes := func(int, int) uint8 { return uint8(rng.Intn(2) * 255) }
	contents := []struct {
		name     string
		src, ref frame.Plane
	}{
		{"flat", fill(flat(0)), fill(flat(255))},
		{"flat-inverse", fill(flat(255)), fill(flat(0))},
		{"ramp", fill(func(x, y int) uint8 { return uint8(3*x + 5*y) }), fill(func(x, y int) uint8 { return uint8(7*x - 2*y) })},
		{"random", fill(random), fill(random)},
		{"0-and-255", fill(extremes), fill(extremes)},
		{"checker", fill(func(x, y int) uint8 { return uint8((x + y) & 1 * 255) }), fill(func(x, y int) uint8 { return uint8((x + y + 1) & 1 * 255) })},
	}
	for ci := range contents {
		c := &contents[ci]
		for _, sz := range subpelSizes {
			w, h := sz[0], sz[1]
			q := meQuery{src: &c.src, ref: &c.ref, sx: 16, sy: 12, w: w, h: h}
			// Integer parts: around zero, negative, and the first and last
			// positions subpelRefine's padding check lets through.
			xs := []int{0, -3, 5, -(frame.Pad - 4) - q.sx, W + (frame.Pad - 4) - w - q.sx}
			ys := []int{0, -2, 7, -(frame.Pad - 4) - q.sy, H + (frame.Pad - 4) - h - q.sy}
			for k := range xs {
				for f := 0; f < 16; f++ {
					mv := MV{int32(xs[k]*4 + f&3), int32(ys[k]*4 + f>>2)}
					for _, satd := range []bool{true, false} {
						if err := checkFusedSubpel(&q, mv, satd); err != nil {
							t.Fatalf("%s %dx%d mv %v satd=%v: %v", c.name, w, h, mv, satd, err)
						}
					}
				}
			}
		}
	}
}

// FuzzFusedSubpel drives the same comparison from raw plane bytes and
// geometry: the bytes tile the source and reference planes, and position
// and vector are folded into the range subpelRefine evaluates.
func FuzzFusedSubpel(f *testing.F) {
	f.Add([]byte{0, 255, 0, 255, 255, 0}, uint8(0), uint8(20), uint8(9), int16(5), int16(-7), true)
	f.Add([]byte{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}, uint8(4), uint8(0), uint8(0), int16(-113), int16(-113), false)
	f.Add([]byte{}, uint8(2), uint8(63), uint8(47), int16(300), int16(300), true)
	f.Fuzz(func(t *testing.T, pix []byte, size, sx, sy uint8, mvx, mvy int16, satd bool) {
		const W, H = 32, 32
		src, ref := frame.NewPlane(W, H), frame.NewPlane(W, H)
		for i := range src.Pix {
			if len(pix) > 0 {
				src.Pix[i] = pix[i%len(pix)]
				ref.Pix[i] = pix[(i*7+3)%len(pix)]
			}
		}
		sz := subpelSizes[int(size)%len(subpelSizes)]
		q := meQuery{src: &src, ref: &ref, w: sz[0], h: sz[1]}
		q.sx, q.sy = int(sx)%(W-q.w+1), int(sy)%(H-q.h+1)
		// Fold the integer part into [-(Pad-4) - s, dim + (Pad-4) - size - s].
		fold := func(v int16, s, size, dim int) int32 {
			lo, n := -(frame.Pad-4)-s, dim+2*(frame.Pad-4)-size+1
			ip := lo + ((int(v)>>2-lo)%n+n)%n
			return int32(ip*4 + int(v)&3)
		}
		mv := MV{fold(mvx, q.sx, q.w, W), fold(mvy, q.sy, q.h, H)}
		if err := checkFusedSubpel(&q, mv, satd); err != nil {
			t.Fatalf("%dx%d at (%d,%d) mv %v satd=%v: %v", q.w, q.h, q.sx, q.sy, mv, satd, err)
		}
	})
}

// TestInterpLumaMatchesScalar pins interpLuma's packed body against the
// scalar loop — pixels and events — for every fractional offset and for
// widths on every path of the run loader: whole 8-pixel runs, the 4-pixel
// run chroma and 4x4 partitions use, and odd remainders.
func TestInterpLumaMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ref := randPlane(rng, 64, 48)
	for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16} {
		for _, h := range []int{1, 3, 4, 8, 16} {
			for f := 0; f < 16; f++ {
				mv := MV{int32(-9*4 + f&3), int32(6*4 + f>>2)}
				recA, recB := trace.NewRecorder(), trace.NewRecorder()
				trA, trB := newTracer(recA, 0), newTracer(recB, 0)
				trA.nextMB()
				trB.nextMB()
				var got, want block
				trA.interpLuma(trace.FnDecMC, &ref, 20, 10, mv, &got, w, h)
				interpLumaScalar(&trB, trace.FnDecMC, &ref, 20, 10, mv, &want, w, h)
				if got != want {
					t.Fatalf("%dx%d mv %v: pixels differ\n got  %v\n want %v", w, h, mv, got.pix[:w*h], want.pix[:w*h])
				}
				if !bytes.Equal(recA.Bytes(), recB.Bytes()) {
					t.Fatalf("%dx%d mv %v: events differ", w, h, mv)
				}
			}
		}
	}
}
