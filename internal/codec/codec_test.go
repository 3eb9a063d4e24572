package codec

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/frame"
)

func TestOptionsValidate(t *testing.T) {
	good := Defaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []func(*Options){
		func(o *Options) { o.CRF = 52 },
		func(o *Options) { o.CRF = -1 },
		func(o *Options) { o.Refs = 0 },
		func(o *Options) { o.Refs = 17 },
		func(o *Options) { o.Subme = 12 },
		func(o *Options) { o.Trellis = 3 },
		func(o *Options) { o.BFrames = 17 },
		func(o *Options) { o.MERange = 2 },
		func(o *Options) { o.RC = RCABR; o.BitrateKbps = 0 },
		func(o *Options) { o.RC = RCVBV; o.VBVMaxKbps = 0 },
	}
	for i, mutate := range bad {
		o := Defaults()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPresetTableII(t *testing.T) {
	// Spot-check Table II values.
	checks := map[Preset]map[string]string{
		PresetUltrafast: {"me": "dia", "refs": "1", "subme": "0", "trellis": "0", "bframes": "0", "partitions": "none", "scenecut": "0", "aq-mode": "0"},
		PresetMedium:    {"me": "hex", "refs": "3", "subme": "7", "trellis": "1", "bframes": "3", "partitions": "-p4x4", "scenecut": "40", "b-adapt": "1"},
		PresetSlower:    {"me": "umh", "refs": "8", "subme": "9", "trellis": "2", "partitions": "all", "b-adapt": "2"},
		PresetPlacebo:   {"me": "tesa", "refs": "16", "subme": "11", "bframes": "16", "merange": "24"},
	}
	for p, want := range checks {
		info, err := PresetInfo(p)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range want {
			if info[k] != v {
				t.Errorf("%s.%s = %s, want %s", p, k, info[k], v)
			}
		}
	}
	if err := ApplyPreset(&Options{}, "bogus"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := PresetInfo("bogus"); err == nil {
		t.Fatal("unknown preset info accepted")
	}
}

func TestApplyPresetLeavesRateControlAlone(t *testing.T) {
	o := Options{RC: RCABR, CRF: 30, QP: 40, BitrateKbps: 1234, KeyintMax: 100}
	if err := ApplyPreset(&o, PresetSlow); err != nil {
		t.Fatal(err)
	}
	if o.RC != RCABR || o.CRF != 30 || o.QP != 40 || o.BitrateKbps != 1234 || o.KeyintMax != 100 {
		t.Fatalf("preset clobbered rate control: %+v", o)
	}
	if o.Refs != 5 || o.Subme != 8 {
		t.Fatalf("slow preset not applied: %+v", o)
	}
}

func TestMedianMVProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := MV{int32(ax), int32(ay)}
		b := MV{int32(bx), int32(by)}
		c := MV{int32(cx), int32(cy)}
		m := medianMV(a, b, c)
		// Median is permutation-invariant and bounded by min/max.
		if m != medianMV(c, a, b) || m != medianMV(b, c, a) {
			return false
		}
		inRange := func(v, p, q, r int32) bool {
			lo, hi := p, p
			for _, x := range []int32{q, r} {
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			return v >= lo && v <= hi
		}
		return inRange(m.X, a.X, b.X, c.X) && inRange(m.Y, a.Y, b.Y, c.Y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampMVRangeKeepsReadsInPadding(t *testing.T) {
	f := func(m int16, s uint8) bool {
		sx := int(s) % 320
		mm := clampMVRange(int(m), sx, 16, 320)
		// The clamped read [sx+mm, sx+mm+16) must stay within the padded area.
		return sx+mm >= -frame.Pad && sx+mm+16 <= 320+frame.Pad
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameTypeStrings(t *testing.T) {
	if FrameI.String() != "I" || FrameP.String() != "P" || FrameB.String() != "B" {
		t.Fatal("frame type strings")
	}
}

func TestChromaQPCapped(t *testing.T) {
	if chromaQP(20) != 20 {
		t.Fatal("low qp should pass through")
	}
	if chromaQP(45) >= 45 {
		t.Fatal("high luma qp must map to lower chroma qp")
	}
	// Monotone.
	for qp := 1; qp <= 51; qp++ {
		if chromaQP(qp) < chromaQP(qp-1) {
			t.Fatalf("chromaQP not monotone at %d", qp)
		}
	}
}

func TestEncoderRejectsBadInput(t *testing.T) {
	if _, err := NewEncoder(100, 96, 30, Defaults(), nil); err == nil {
		t.Fatal("non-multiple-of-16 width accepted")
	}
	if _, err := NewEncoder(96, 96, 0, Defaults(), nil); err == nil {
		t.Fatal("zero fps accepted")
	}
	enc, err := NewEncoder(96, 96, 30, Defaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := enc.EncodeAll(nil); err != ErrNoFrames {
		t.Fatalf("empty input: %v", err)
	}
	enc2, _ := NewEncoder(96, 96, 30, Defaults(), nil)
	wrong := frame.New(112, 96)
	if _, _, err := enc2.EncodeAll([]*frame.Frame{wrong}); err == nil {
		t.Fatal("mismatched frame size accepted")
	}
}

func TestDecoderOutputMatchesEncoderPSNR(t *testing.T) {
	// The decoder must reproduce the encoder's reconstruction exactly:
	// per-frame PSNR computed from the decoded frames equals the encoder's
	// reported PSNR bit-for-bit.
	frames := makeClip(t, "game2", 10, 6)
	for _, opt := range []Options{
		Defaults(),
		func() Options { o := Defaults(); o.CRF = 35; return o }(),
		func() Options {
			o := Options{RC: RCCRF, CRF: 23, QP: 26, KeyintMax: 250}
			if err := ApplyPreset(&o, PresetSlower); err != nil {
				t.Fatal(err)
			}
			return o
		}(),
	} {
		stream, stats := encodeClip(t, frames, opt)
		out, _, err := NewDecoder(DecoderOptions{}, nil).Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		for i, fs := range stats.Frames {
			_ = fs
			got := frame.PSNR(frames[i], out[i])
			var want float64
			for _, s := range stats.Frames {
				if s.PTS == i {
					want = s.PSNR
				}
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("frame %d: decoded PSNR %.6f != encoder PSNR %.6f (recon mismatch)", i, got, want)
			}
		}
	}
}

func TestFusedDeblockBitExact(t *testing.T) {
	// Graphite's loop fusion must not change a single pixel or bit.
	frames := makeClip(t, "house", 8, 8)
	opt := Defaults()
	sPlain, statsPlain := encodeClip(t, frames, opt)
	opt.Tune = Tuning{FuseDeblock: true, InterchangeResidual: true, DistributeLookahead: true}
	sFused, statsFused := encodeClip(t, frames, opt)
	if len(sPlain) != len(sFused) {
		t.Fatalf("tuned bitstream differs in size: %d vs %d", len(sPlain), len(sFused))
	}
	for i := range sPlain {
		if sPlain[i] != sFused[i] {
			t.Fatalf("tuned bitstream differs at byte %d", i)
		}
	}
	if statsPlain.AveragePSNR != statsFused.AveragePSNR {
		t.Fatal("tuned reconstruction differs")
	}
}

func TestCRFControlsQualityMonotonically(t *testing.T) {
	frames := makeClip(t, "cricket", 8, 8)
	var prevPSNR, prevBits float64 = math.Inf(1), math.Inf(1)
	for _, crf := range []int{12, 22, 32, 42} {
		opt := Defaults()
		opt.CRF = crf
		_, stats := encodeClip(t, frames, opt)
		if stats.AveragePSNR >= prevPSNR {
			t.Fatalf("crf %d PSNR %.2f not below previous %.2f", crf, stats.AveragePSNR, prevPSNR)
		}
		if float64(stats.TotalBits) >= prevBits {
			t.Fatalf("crf %d bits %d not below previous %.0f", crf, stats.TotalBits, prevBits)
		}
		prevPSNR, prevBits = stats.AveragePSNR, float64(stats.TotalBits)
	}
}

func TestRefsReduceFileSize(t *testing.T) {
	// More references improve compression (Fig. 2's "active" refs edge).
	frames := makeClip(t, "hall", 12, 8)
	opt := Defaults()
	opt.BFrames = 0 // anchors only, so refs engage fully
	opt.Refs = 1
	_, one := encodeClip(t, frames, opt)
	opt.Refs = 8
	_, eight := encodeClip(t, frames, opt)
	if eight.TotalBits > one.TotalBits {
		t.Fatalf("refs 8 produced more bits (%d) than refs 1 (%d)", eight.TotalBits, one.TotalBits)
	}
	// Quality is unchanged by refs (CRF holds it): within 0.5 dB.
	if math.Abs(eight.AveragePSNR-one.AveragePSNR) > 0.5 {
		t.Fatalf("refs changed quality: %.2f vs %.2f", one.AveragePSNR, eight.AveragePSNR)
	}
}

func TestSceneCutInsertsIFrame(t *testing.T) {
	// holi (entropy 7.0) cuts scenes every ~17 frames at 30 fps.
	frames := makeClip(t, "holi", 30, 4)
	opt := Defaults()
	_, stats := encodeClip(t, frames, opt)
	i, _, _ := stats.CountTypes()
	if i < 2 {
		t.Fatalf("high-entropy clip produced %d I frames; scenecut inactive", i)
	}
	// Disabling scenecut drops back to a single leading I frame.
	opt.Scenecut = 0
	_, stats2 := encodeClip(t, frames, opt)
	i2, _, _ := stats2.CountTypes()
	if i2 != 1 {
		t.Fatalf("scenecut disabled but %d I frames", i2)
	}
}

func TestKeyintForcesIFrames(t *testing.T) {
	frames := makeClip(t, "desktop", 20, 8)
	opt := Defaults()
	opt.Scenecut = 0
	opt.KeyintMax = 5
	_, stats := encodeClip(t, frames, opt)
	i, _, _ := stats.CountTypes()
	if i != 4 {
		t.Fatalf("keyint 5 over 20 frames should give 4 I frames, got %d", i)
	}
}

func TestBFramesBounded(t *testing.T) {
	frames := makeClip(t, "desktop", 20, 8) // static content: B-friendly
	opt := Defaults()
	opt.BFrames = 2
	opt.BAdapt = 0 // always use B when allowed
	_, stats := encodeClip(t, frames, opt)
	// No run of more than 2 consecutive B frames in display order.
	run := 0
	byPTS := make([]FrameType, len(frames))
	for _, fs := range stats.Frames {
		byPTS[fs.PTS] = fs.Type
	}
	for _, ft := range byPTS {
		if ft == FrameB {
			run++
			if run > 2 {
				t.Fatal("B run exceeds bframes limit")
			}
		} else {
			run = 0
		}
	}
	_, _, b := stats.CountTypes()
	if b == 0 {
		t.Fatal("b-adapt 0 with static content produced no B frames")
	}
}

func TestHighCRFSkipsDominate(t *testing.T) {
	frames := makeClip(t, "desktop", 10, 8)
	opt := Defaults()
	opt.CRF = 48
	_, stats := encodeClip(t, frames, opt)
	var inter, skip int
	for _, fs := range stats.Frames {
		inter += fs.InterMB
		skip += fs.SkipMB
	}
	if skip <= inter {
		t.Fatalf("static content at crf 48: %d skips vs %d inter; skip detection weak", skip, inter)
	}
}

func TestTraceSampleFactor(t *testing.T) {
	enc, err := NewEncoder(96, 96, 30, Defaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if enc.SampleFactor() != 1 {
		t.Fatal("default sample factor")
	}
	o := Defaults()
	o.TraceSampleLog2 = 3
	enc2, _ := NewEncoder(96, 96, 30, o, nil)
	if enc2.SampleFactor() != 8 {
		t.Fatalf("sample factor %f", enc2.SampleFactor())
	}
}

func TestDCT8x8RoundtripAndBenefit(t *testing.T) {
	frames := makeClip(t, "presentation", 8, 6) // smooth content favours 8x8
	opt := Defaults()
	stream4, stats4 := encodeClip(t, frames, opt)
	opt.DCT8x8 = true
	stream8, stats8 := encodeClip(t, frames, opt)

	// Bit-exact decode under the 8x8 transform.
	out, _, err := NewDecoder(DecoderOptions{}, nil).Decode(stream8)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range stats8.Frames {
		if got := frame.PSNR(frames[fs.PTS], out[fs.PTS]); math.Abs(got-fs.PSNR) > 1e-9 {
			t.Fatalf("8x8 decode diverged at frame %d: %.6f vs %.6f", fs.PTS, got, fs.PSNR)
		}
	}
	// Comparable quality (same quantizer scale)...
	if math.Abs(stats8.AveragePSNR-stats4.AveragePSNR) > 1.5 {
		t.Fatalf("8x8 transform changed quality too much: %.2f vs %.2f dB",
			stats8.AveragePSNR, stats4.AveragePSNR)
	}
	// ...and the stream stays in the same size class.
	if len(stream8) > len(stream4)*5/4 {
		t.Fatalf("8x8 stream much larger: %d vs %d", len(stream8), len(stream4))
	}
}

func TestDCT8x8WithIntra4x4Mix(t *testing.T) {
	// Textured content mixes intra-4x4 macroblocks (which must stay on the
	// 4x4 transform) with 8x8-coded inter blocks in one stream.
	frames := makeClip(t, "holi", 8, 6)
	opt := Defaults()
	opt.DCT8x8 = true
	stream, stats := encodeClip(t, frames, opt)
	out, _, err := NewDecoder(DecoderOptions{}, nil).Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range stats.Frames {
		if got := frame.PSNR(frames[fs.PTS], out[fs.PTS]); math.Abs(got-fs.PSNR) > 1e-9 {
			t.Fatalf("mixed-transform decode diverged at frame %d", fs.PTS)
		}
	}
}
