package codec

import (
	"fmt"
	"testing"

	"repro/internal/frame"
	"repro/internal/trace"
)

// benchSink keeps the compiler from eliding benchmark kernel results.
var benchSink int

// BenchmarkDeblock measures the packed deblocking filter over a full frame
// of reconstructed content (every macroblock row, luma and chroma, with a
// mix of strong and normal edges).
func BenchmarkDeblock(b *testing.B) {
	frames := makeClip(b, "cricket", 1, 8)
	rec := frames[0]
	mbw, mbh := rec.Width/16, rec.Height/16
	st := newDeblockState(mbw, mbh)
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			kind := kindInter
			if (mx+my)%5 == 0 {
				kind = kindIntra
			}
			st.set(mx, my, 22+(mx+my)%8, kind)
		}
	}
	tr := newTracer(nil, 0)
	b.SetBytes(int64(rec.Width * rec.Height))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for my := 0; my < mbh; my++ {
			deblockMBRow(&tr, 0, rec, st, my, 0, 0)
		}
	}
}

// BenchmarkIntraPredict measures the fused predict+SATD intra analysis over
// a frame's macroblocks: every 16x16 mode plus the 4x4 sub-block search.
func BenchmarkIntraPredict(b *testing.B) {
	frames := makeClip(b, "cricket", 1, 8)
	src := frames[0]
	opt := Defaults()
	enc, err := NewEncoder(src.Width, src.Height, 30, opt, nil)
	if err != nil {
		b.Fatal(err)
	}
	enc.recon = enc.getRecon()
	enc.recon.Y.CopyFrom(&src.Y)
	enc.recon.Cb.CopyFrom(&src.Cb)
	enc.recon.Cr.CopyFrom(&src.Cr)
	mbw, mbh := src.Width/16, src.Height/16
	b.SetBytes(int64(src.Width * src.Height))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for my := 0; my < mbh; my++ {
			for mx := 0; mx < mbw; mx++ {
				c := enc.analyseIntra(&src.Y, &enc.recon.Y, mx*16, my*16, lambdaFor(26))
				benchSink += c.cost
			}
		}
	}
}

// BenchmarkSegmentedEncode measures the serial segmented encode-and-stitch
// at 1/2/4 segments over the same clip; parts=1 is the whole-clip baseline,
// so the deltas price what segment-parallel transcoding pays per split —
// the extra closed-GOP opens plus the bitstream/stats stitch.
func BenchmarkSegmentedEncode(b *testing.B) {
	frames := makeClip(b, "cricket", 8, 8)
	AssignBases(frames)
	opt := Defaults()
	for _, parts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stream, _, err := EncodeSegments(frames, 30, opt, nil, parts)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(stream)
			}
		})
	}
}

// subpelBenchQuery is one sub-pel cost evaluation on frame content: a source
// block, the same picture as reference, a quarter-pel vector.
func subpelBenchQuery(b *testing.B, w, h int) (*meQuery, MV) {
	src := makeClip(b, "cricket", 1, 8)[0]
	return &meQuery{src: &src.Y, ref: &src.Y, sx: 48, sy: 32, w: w, h: h}, MV{-5, 3}
}

// BenchmarkSubpelCost measures one candidate of subpelRefine's cost
// function — interpolate at a quarter-pel vector and measure against the
// source — per partition size and metric, tracer off. The source block is
// loaded once per refinement, outside the loop, as subpelRefine does.
func BenchmarkSubpelCost(b *testing.B) {
	for _, sz := range [][2]int{{16, 16}, {8, 8}, {4, 4}} {
		for _, satd := range []bool{true, false} {
			name := fmt.Sprintf("%dx%d/%s", sz[0], sz[1], map[bool]string{true: "satd", false: "sad"}[satd])
			b.Run(name, func(b *testing.B) {
				q, mv := subpelBenchQuery(b, sz[0], sz[1])
				tr := newTracer(nil, 0)
				var src frame.PlanarBlock
				src.Load(q.src, q.sx, q.sy, q.w, q.h)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink += tr.subpelCost(&src, q, mv, satd)
				}
			})
		}
	}
}

// BenchmarkInterpLuma measures staging one 16x16 quarter-pel prediction.
func BenchmarkInterpLuma(b *testing.B) {
	q, mv := subpelBenchQuery(b, 16, 16)
	tr := newTracer(nil, 0)
	var pred block
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.interpLuma(trace.FnInterp, q.ref, q.sx, q.sy, mv, &pred, q.w, q.h)
		benchSink += int(pred.pix[0])
	}
}
