package frame

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSSIMIdenticalIsOne(t *testing.T) {
	f := New(64, 64)
	fillPattern(&f.Y, 3)
	if s := SSIM(f, f); math.Abs(s-1) > 1e-9 {
		t.Fatalf("self-SSIM %f", s)
	}
}

func TestSSIMOrdersDistortions(t *testing.T) {
	f := New(64, 64)
	fillPattern(&f.Y, 4)
	mild, harsh := f.Clone(), f.Clone()
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			mild.Y.Set(x, y, mild.Y.At(x, y)+uint8((x+y)%3))
			harsh.Y.Set(x, y, uint8((x*41+y*17)%255))
		}
	}
	sMild, sHarsh := SSIM(f, mild), SSIM(f, harsh)
	if !(sMild > sHarsh) {
		t.Fatalf("SSIM ordering: mild %f harsh %f", sMild, sHarsh)
	}
	if sMild < 0.8 {
		t.Fatalf("mild distortion SSIM %f too low", sMild)
	}
	if sHarsh > 0.6 {
		t.Fatalf("structure-destroying distortion SSIM %f too high", sHarsh)
	}
}

func TestSSIMBounded(t *testing.T) {
	a, b := New(64, 64), New(64, 64)
	fillPattern(&a.Y, 5)
	fillPattern(&b.Y, 99)
	s := SSIM(a, b)
	if s < -1 || s > 1 {
		t.Fatalf("SSIM %f out of range", s)
	}
}

func TestY4MRoundtrip(t *testing.T) {
	var frames []*Frame
	for i := 0; i < 3; i++ {
		f := New(64, 48)
		f.PTS = i
		fillPattern(&f.Y, i)
		fillPattern(&f.Cb, i+10)
		fillPattern(&f.Cr, i+20)
		frames = append(frames, f)
	}
	var buf bytes.Buffer
	if err := WriteY4M(&buf, frames, 25); err != nil {
		t.Fatal(err)
	}
	got, fps, err := ReadY4M(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fps != 25 || len(got) != 3 {
		t.Fatalf("fps %d frames %d", fps, len(got))
	}
	for i := range frames {
		if !math.IsInf(PSNR(frames[i], got[i]), 1) {
			t.Fatalf("frame %d not bit-exact after y4m roundtrip", i)
		}
		if got[i].PTS != i {
			t.Fatal("pts not sequential")
		}
	}
}

func TestY4MHeaderContents(t *testing.T) {
	f := New(64, 48)
	var buf bytes.Buffer
	if err := WriteY4M(&buf, []*Frame{f}, 30); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	for _, tok := range []string{"YUV4MPEG2", "W64", "H48", "F30:1", "C420"} {
		if !strings.Contains(header, tok) {
			t.Fatalf("header %q missing %q", header, tok)
		}
	}
}

func TestY4MRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"RIFF....",
		"YUV4MPEG2 W64 H48 F30:1 C444\nFRAME\n",
		"YUV4MPEG2 W63 H48 F30:1 C420\nFRAME\n",
		"YUV4MPEG2 W64 H48 F30:1 C420\n", // no frames
		"YUV4MPEG2 W64 H48 F30:1 C420\nFRAME\nshort",
	}
	for i, c := range cases {
		if _, _, err := ReadY4M(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWriteY4MValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteY4M(&buf, nil, 30); err == nil {
		t.Fatal("empty stream accepted")
	}
	if err := WriteY4M(&buf, []*Frame{New(64, 48), New(32, 32)}, 30); err == nil {
		t.Fatal("mixed dimensions accepted")
	}
}
