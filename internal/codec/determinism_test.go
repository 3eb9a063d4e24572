package codec

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/frame"
	"repro/internal/trace"
)

// encodeTraced encodes the clip with a fresh encoder, recording the full
// instrumentation stream, and returns the bitstream, the recorded trace
// bytes and the stats.
func encodeTraced(tb testing.TB, frames []*frame.Frame, opt Options) ([]byte, []byte, *Stats) {
	tb.Helper()
	rec := trace.NewRecorder()
	enc, err := NewEncoder(frames[0].Width, frames[0].Height, 30, opt, rec)
	if err != nil {
		tb.Fatal(err)
	}
	stream, stats, err := enc.EncodeAll(frames)
	if err != nil {
		tb.Fatal(err)
	}
	return stream, rec.Bytes(), stats
}

// TestEncoderDeterministic: identical inputs and options must produce
// byte-identical bitstreams AND byte-identical trace-event streams — the
// property that makes every experiment in this repository reproducible,
// since the microarchitectural simulator consumes the trace. The option
// shapes are structurally distinct: fused vs unfused deblocking (different
// tracer tick interleavings), B frames with both adaptive policies
// (bidirectional lookahead, L1 MV fields), trellis-2 RD mode decision, the
// 8x8 transform, trace sampling, an I-frame-heavy stream and every
// bitrate-driven rate controller.
func TestEncoderDeterministic(t *testing.T) {
	fused := Defaults()
	fused.Tune.FuseDeblock = true

	slower := Options{RC: RCCRF, CRF: 28, QP: 26, KeyintMax: 250}
	ApplyPreset(&slower, PresetSlower)
	slower.Tune.FuseDeblock = true

	dct8 := Defaults()
	dct8.DCT8x8 = true

	sampled := Defaults()
	sampled.TraceSampleLog2 = 2
	sampled.Tune.FuseDeblock = true

	iheavy := Defaults()
	iheavy.KeyintMax = 2
	iheavy.BFrames = 0

	abrFast := Options{RC: RCABR, CRF: 23, QP: 26, BitrateKbps: 600, KeyintMax: 250}
	if err := ApplyPreset(&abrFast, PresetFast); err != nil {
		t.Fatal(err)
	}
	abrFast.RC = RCABR
	abrFast.BitrateKbps = 600

	abr2 := Defaults()
	abr2.RC = RCABR2
	abr2.BitrateKbps = 400

	cbr := Defaults()
	cbr.RC = RCCBR
	cbr.BitrateKbps = 400

	frames := makeClip(t, "game3", 8, 8)
	pinClipVAs(t, frames)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"medium", Defaults()},
		{"fused", fused},
		{"slower", slower},
		{"dct8x8", dct8},
		{"sampled", sampled},
		{"iheavy", iheavy},
		{"abr_fast", abrFast},
		{"abr2", abr2},
		{"cbr", cbr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			aStream, aTrace, aStats := encodeTraced(t, frames, tc.opt)
			bStream, bTrace, bStats := encodeTraced(t, frames, tc.opt)
			if !bytes.Equal(aStream, bStream) {
				t.Fatalf("bitstream differs (%d vs %d bytes)", len(aStream), len(bStream))
			}
			if !bytes.Equal(aTrace, bTrace) {
				t.Fatalf("trace differs (%d vs %d bytes)", len(aTrace), len(bTrace))
			}
			if fmt.Sprint(aStats.Frames) != fmt.Sprint(bStats.Frames) {
				t.Fatal("per-frame stats differ")
			}
		})
	}
}

// TestEncoderIndependentOfTraceSink: attaching instrumentation must never
// change coded output (the simulator observes, it does not perturb).
func TestEncoderIndependentOfTraceSink(t *testing.T) {
	frames := makeClip(t, "game3", 6, 8)
	opt := Defaults()

	plain, err := NewEncoder(frames[0].Width, frames[0].Height, 30, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, _, err := plain.EncodeAll(frames)
	if err != nil {
		t.Fatal(err)
	}

	traced, err := NewEncoder(frames[0].Width, frames[0].Height, 30, opt, &recordingSink{})
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := traced.EncodeAll(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("instrumentation changed the bitstream")
	}

	// Sampling must not change output either.
	opt.TraceSampleLog2 = 3
	sampled, err := NewEncoder(frames[0].Width, frames[0].Height, 30, opt, &recordingSink{})
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := sampled.EncodeAll(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sc) {
		t.Fatal("trace sampling changed the bitstream")
	}
}
