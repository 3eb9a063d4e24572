package codec

import (
	"reflect"
	"testing"

	"repro/internal/frame"
)

func TestSingleFrameEncode(t *testing.T) {
	frames := makeClip(t, "bike", 1, 8)
	stream, stats := encodeClip(t, frames, Defaults())
	if i, p, b := stats.CountTypes(); i != 1 || p != 0 || b != 0 {
		t.Fatalf("single frame types I/P/B = %d/%d/%d", i, p, b)
	}
	out, _, err := NewDecoder(DecoderOptions{}, nil).Decode(stream)
	if err != nil || len(out) != 1 {
		t.Fatalf("decode: %v, %d frames", err, len(out))
	}
}

func TestMinimumSizeVideo(t *testing.T) {
	// One macroblock: exercises every edge-of-picture path at once.
	f := frame.New(64, 64)
	for y := 0; y < 64; y++ {
		row := f.Y.Row(y)
		for x := range row {
			row[x] = uint8(x*y%200 + 20)
		}
	}
	f.ExtendEdges()
	enc, err := NewEncoder(64, 64, 30, Defaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := enc.EncodeAll([]*frame.Frame{f, f.Clone(), f.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := NewDecoder(DecoderOptions{}, nil).Decode(stream)
	if err != nil || len(out) != 3 {
		t.Fatalf("decode: %v", err)
	}
	// Identical input frames: P frames should be almost free.
	if frame.PSNR(f, out[2]) < 30 {
		t.Fatalf("static tiny clip PSNR %.2f", frame.PSNR(f, out[2]))
	}
}

func TestRefsLargerThanClip(t *testing.T) {
	// 16 references requested on a 4-frame clip: the encoder must clamp to
	// the DPB contents gracefully.
	frames := makeClip(t, "girl", 4, 8)
	opt := Defaults()
	opt.Refs = 16
	opt.BFrames = 0
	stream, _ := encodeClip(t, frames, opt)
	if _, _, err := NewDecoder(DecoderOptions{}, nil).Decode(stream); err != nil {
		t.Fatal(err)
	}
}

func TestAllIntraEncode(t *testing.T) {
	frames := makeClip(t, "funny", 5, 8)
	opt := Defaults()
	opt.KeyintMax = 1
	opt.Scenecut = 0
	_, stats := encodeClip(t, frames, opt)
	i, p, b := stats.CountTypes()
	if i != 5 || p != 0 || b != 0 {
		t.Fatalf("keyint 1 produced I/P/B = %d/%d/%d", i, p, b)
	}
}

func TestMaxBFramesPlaceboStyle(t *testing.T) {
	frames := makeClip(t, "desktop", 20, 8)
	opt := Defaults()
	opt.BFrames = 16
	opt.BAdapt = 0
	opt.Scenecut = 0
	stream, stats := encodeClip(t, frames, opt)
	if _, _, b := stats.CountTypes(); b == 0 {
		t.Fatal("bframes 16 produced no B frames on static content")
	}
	out, _, err := NewDecoder(DecoderOptions{}, nil).Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range out {
		if f.PTS != i {
			t.Fatal("display order broken with deep B pyramid")
		}
	}
}

func TestQPDeltaChainSurvivesAQ(t *testing.T) {
	// Adaptive quantization varies QP per macroblock; the delta chain must
	// reproduce it exactly through encode/decode (verified via recon
	// equality at the stats level).
	frames := makeClip(t, "landscape", 6, 6)
	opt := Defaults()
	opt.AQMode = 1
	stream, stats := encodeClip(t, frames, opt)
	out, _, err := NewDecoder(DecoderOptions{}, nil).Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range stats.Frames {
		got := frame.PSNR(frames[fs.PTS], out[fs.PTS])
		if got != fs.PSNR {
			t.Fatalf("frame %d: decoder (%.6f) diverged from encoder (%.6f) under AQ", fs.PTS, got, fs.PSNR)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	frames := makeClip(t, "house", 6, 8)
	_, stats := encodeClip(t, frames, Defaults())
	var sum int64
	mbTotal := (frames[0].Width / 16) * (frames[0].Height / 16)
	for _, fs := range stats.Frames {
		sum += fs.Bits
		if fs.IntraMB+fs.InterMB+fs.SkipMB != mbTotal {
			t.Fatalf("frame %d MB counts do not add up: %d+%d+%d != %d",
				fs.PTS, fs.IntraMB, fs.InterMB, fs.SkipMB, mbTotal)
		}
	}
	if sum != stats.TotalBits {
		t.Fatalf("per-frame bits %d != total %d", sum, stats.TotalBits)
	}
	if stats.FPS != 30 || stats.Width != frames[0].Width {
		t.Fatal("stats metadata wrong")
	}
}

// TestEncodeAllStatsNotAliased pins that the *Stats EncodeAll returns is the
// caller's own value: it does not point into the encoder (which would keep
// the encoder's recon frames and tracer alive for as long as a sweep point
// holds its stats) and a later EncodeAll on the same encoder leaves it alone.
func TestEncodeAllStatsNotAliased(t *testing.T) {
	frames := makeClip(t, "cricket", 4, 16)
	enc, err := NewEncoder(frames[0].Width, frames[0].Height, 30, Defaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := enc.EncodeAll(frames)
	if err != nil {
		t.Fatal(err)
	}
	want := *first
	want.Frames = append([]FrameStats(nil), first.Frames...)
	if _, _, err := enc.EncodeAll(frames[:2]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*first, want) {
		t.Fatalf("first call's stats changed under the second EncodeAll:\ngot  %+v\nwant %+v", *first, want)
	}
}
