package frame

import (
	"reflect"
	"testing"
)

// randomFrame returns a w x h frame of pseudo-random pixels with the given
// bases and PTS, edge-extended as a decoder outputs it.
func randomFrame(w, h int, seed uint64, bases [3]uint64, pts int) *Frame {
	f := New(w, h)
	f.PTS = pts
	for i, pl := range f.planes() {
		pl.Base = bases[i]
		for y := 0; y < pl.H; y++ {
			for x := range pl.Row(y) {
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				pl.Row(y)[x] = uint8(seed >> 32)
			}
		}
	}
	f.ExtendEdges()
	return f
}

// requireRoundTrip checks that f's picture keeps only the visible pixels
// and rebuilds f exactly (padding, bases, PTS), as a frame of its own.
func requireRoundTrip(t testing.TB, f *Frame) {
	t.Helper()
	p := f.Picture()
	if got, want := p.ByteSize(), f.Width*f.Height*3/2; got != want || cap(p.Pix) != want {
		t.Fatalf("%dx%d picture holds %d B (cap %d), want %d", f.Width, f.Height, got, cap(p.Pix), want)
	}
	g := p.Frame()
	if !reflect.DeepEqual(f, g) {
		t.Fatalf("%dx%d PTS %d: Picture().Frame() differs from the frame", f.Width, f.Height, f.PTS)
	}
	g.Y.Pix[0]++
	if f.Y.Pix[0] == g.Y.Pix[0] || !reflect.DeepEqual(p.Frame(), f) {
		t.Fatal("a materialized frame shares storage with its source")
	}
}

func TestPictureRoundTrip(t *testing.T) {
	for _, dims := range [][2]int{{16, 16}, {160, 96}, {48, 80}} {
		f := randomFrame(dims[0], dims[1], uint64(dims[0]*dims[1]), [3]uint64{0x8_0000_0000, 0x8_0001_0000, 0x8_0002_0000}, 7)
		requireRoundTrip(t, f)
	}
	// SetBase's consecutive layout, the one a decoder assigns.
	f := randomFrame(32, 32, 1, [3]uint64{}, 0)
	f.SetBase(0x10_0000)
	requireRoundTrip(t, f)
}

// FuzzPictureRoundTrip: any multiple-of-16 frame up to 64x64 with any
// pixels, bases and PTS, once edge-extended, round-trips exactly.
func FuzzPictureRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(1), uint64(0), uint64(0), uint64(0), 0)
	f.Add(uint8(3), uint8(1), uint64(42), uint64(0x8_0000_0000), uint64(0x8_0000_4000), uint64(0x8_0000_6000), 15)
	f.Fuzz(func(t *testing.T, wmb, hmb uint8, seed, by, bcb, bcr uint64, pts int) {
		w, h := 16*(1+int(wmb%4)), 16*(1+int(hmb%4))
		requireRoundTrip(t, randomFrame(w, h, seed|1, [3]uint64{by, bcb, bcr}, pts))
	})
}

// sinkFrame keeps the benchmarked calls' results live.
var sinkFrame *Frame

// BenchmarkPictureFrame and BenchmarkFrameClone compare the two ways a job
// gets private padded frames at a bench title's size: materializing a
// cached picture against cloning a cached padded frame.
func BenchmarkPictureFrame(b *testing.B) {
	p := randomFrame(160, 96, 1, [3]uint64{}, 0).Picture()
	b.SetBytes(int64(p.ByteSize()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFrame = p.Frame()
	}
}

func BenchmarkFrameClone(b *testing.B) {
	f := randomFrame(160, 96, 1, [3]uint64{}, 0)
	b.SetBytes(int64(f.Width * f.Height * 3 / 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFrame = f.Clone()
	}
}
