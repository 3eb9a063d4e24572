package codec

import (
	"repro/internal/codec/bits"
	"repro/internal/frame"
	"repro/internal/trace"
)

// mvBits returns the exp-Golomb bit cost of coding the motion-vector
// difference d (both components, quarter-pel units).
func mvBits(d MV) int {
	return bits.SEBits(d.X) + bits.SEBits(d.Y)
}

// medianMV returns the component-wise median of three vectors, the H.264
// motion-vector predictor.
func medianMV(a, b, c MV) MV {
	return MV{X: median3(a.X, b.X, c.X), Y: median3(a.Y, b.Y, c.Y)}
}

func median3(a, b, c int32) int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// mvField tracks, per macroblock, the representative coded motion vector
// (partition 0) used for neighbour prediction, together with availability.
type mvField struct {
	mbw, mbh int
	mv       []MV
	coded    []bool // true when the MB has an inter MV (not intra / out of picture)
}

func newMVField(mbw, mbh int) *mvField {
	return &mvField{mbw: mbw, mbh: mbh, mv: make([]MV, mbw*mbh), coded: make([]bool, mbw*mbh)}
}

func (f *mvField) reset() {
	for i := range f.mv {
		f.mv[i] = MV{}
		f.coded[i] = false
	}
}

func (f *mvField) set(mx, my int, mv MV, coded bool) {
	f.mv[my*f.mbw+mx] = mv
	f.coded[my*f.mbw+mx] = coded
}

func (f *mvField) get(mx, my int) (MV, bool) {
	if mx < 0 || my < 0 || mx >= f.mbw || my >= f.mbh {
		return MV{}, false
	}
	return f.mv[my*f.mbw+mx], f.coded[my*f.mbw+mx]
}

// predict returns the median MV predictor for macroblock (mx, my) from its
// left, top and top-right neighbours; unavailable neighbours contribute
// zero vectors, as in H.264 when the corresponding reference differs.
func (f *mvField) predict(mx, my int) MV {
	l, _ := f.get(mx-1, my)
	t, _ := f.get(mx, my-1)
	tr, ok := f.get(mx+1, my-1)
	if !ok {
		tr, _ = f.get(mx-1, my-1)
	}
	return medianMV(l, t, tr)
}

// clampMVRange limits an integer-pel displacement so that every read of a
// w-by-h block at source position (sx, sy) stays inside the padded plane.
func clampMVRange(m, s, size, dim int) int {
	lo := -(frame.Pad - 4) - s
	hi := dim + (frame.Pad - 4) - size - s
	return clampInt(m, lo, hi)
}

// interpLuma stages the motion-compensated prediction of a w x h luma block
// from ref at quarter-pel vector mv applied to source position (sx, sy).
// Fractional positions use bilinear interpolation. Reports loads under fn.
func (t *tracer) interpLuma(fn trace.FuncID, ref *frame.Plane, sx, sy int, mv MV, dst *block, w, h int) {
	dst.w, dst.h = w, h
	ix := sx + int(mv.X>>2)
	iy := sy + int(mv.Y>>2)
	fx, fy := int(mv.X&3), int(mv.Y&3)
	if fx|fy == 0 {
		for j := 0; j < h; j++ {
			copy(dst.row(j), ref.RowFrom(ix, iy+j, w))
		}
	} else {
		frame.InterpBilinear(dst.pix[:w*h], ref, ix, iy, fx, fy, w, h)
	}
	t.interpEvents(fn, ref, ix, iy, fx|fy != 0, w, h)
}

// interpEvents emits the trace events of one interpolation: a SIMD block
// copy at an integer position, else the bilinear filter over the
// (w+1) x (h+1) pixels it reads.
func (t *tracer) interpEvents(fn trace.FuncID, ref *frame.Plane, ix, iy int, frac bool, w, h int) {
	if !t.on {
		return
	}
	t.sink.Call(fn)
	if frac {
		t.sink.Ops(fn, w*h/4+16)
		t.sink.Load2D(fn, ref.Addr(ix, iy), w+1, h+1, ref.Stride)
	} else {
		t.sink.Ops(fn, w*h/16+8)
		t.sink.Load2D(fn, ref.Addr(ix, iy), w, h, ref.Stride)
	}
}

// interpChroma stages the chroma prediction for a luma-space vector mv; the
// chroma plane has half resolution, so the vector is in eighth-pel chroma
// units. w and h are chroma dimensions.
func (t *tracer) interpChroma(fn trace.FuncID, ref *frame.Plane, sx, sy int, mv MV, dst *block, w, h int) {
	// Luma quarter-pel => chroma eighth-pel; approximate to chroma
	// quarter-pel by halving and re-rounding, which keeps encoder and
	// decoder in exact agreement.
	cmv := MV{X: mv.X / 2, Y: mv.Y / 2}
	t.interpLuma(fn, ref, sx, sy, cmv, dst, w, h)
}

// avgBlocks stages the average of two predictions (bi-prediction).
func avgBlocks(a, b *block, dst *block) {
	dst.w, dst.h = a.w, a.h
	n := a.w * a.h
	for i := 0; i < n; i++ {
		dst.pix[i] = uint8((uint16(a.pix[i]) + uint16(b.pix[i]) + 1) >> 1)
	}
}
