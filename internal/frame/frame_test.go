package frame

import (
	"math"
	"testing"
	"testing/quick"
)

func fillPattern(p *Plane, seed int) {
	for y := 0; y < p.H; y++ {
		row := p.Row(y)
		for x := range row {
			row[x] = uint8((x*7 + y*13 + seed*31) % 251)
		}
	}
	p.ExtendEdges()
}

func TestNewPlaneGeometry(t *testing.T) {
	p := NewPlane(64, 48)
	if p.W != 64 || p.H != 48 {
		t.Fatalf("dims %dx%d", p.W, p.H)
	}
	if p.Stride != 64+2*Pad {
		t.Fatalf("stride %d", p.Stride)
	}
	if len(p.Pix) != p.Stride*(48+2*Pad) {
		t.Fatalf("storage %d", len(p.Pix))
	}
}

func TestPlaneAtSetRoundtrip(t *testing.T) {
	p := NewPlane(32, 32)
	p.Set(5, 7, 200)
	if got := p.At(5, 7); got != 200 {
		t.Fatalf("At(5,7) = %d", got)
	}
	// Padding coordinates are legal.
	p.Set(-1, -1, 33)
	if got := p.At(-1, -1); got != 33 {
		t.Fatalf("padding At = %d", got)
	}
}

// TestExtendEdgesReplicatesBorders pins every padding byte to its
// definition: the visible pixel nearest to it, coordinates clamped into
// the plane (so corners replicate the corner pixel).
func TestExtendEdgesReplicatesBorders(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {32, 16}, {80, 48}} {
		p := NewPlane(dims[0], dims[1])
		fillPattern(&p, dims[0])
		for y := -Pad; y < p.H+Pad; y++ {
			for x := -Pad; x < p.W+Pad; x++ {
				if got, want := p.At(x, y), p.At(max(0, min(x, p.W-1)), max(0, min(y, p.H-1))); got != want {
					t.Fatalf("%dx%d: padding at (%d,%d) = %d, want %d", p.W, p.H, x, y, got, want)
				}
			}
		}
	}
}

func TestRowFromSpansPadding(t *testing.T) {
	p := NewPlane(32, 16)
	fillPattern(&p, 1)
	row := p.RowFrom(-2, 3, 8)
	if len(row) != 8 {
		t.Fatalf("len %d", len(row))
	}
	if row[0] != p.At(-2, 3) || row[7] != p.At(5, 3) {
		t.Fatal("RowFrom window mismatch")
	}
}

func TestSADZeroOnIdenticalBlocks(t *testing.T) {
	p := NewPlane(48, 48)
	fillPattern(&p, 2)
	if sad := SAD(&p, 4, 4, &p, 4, 4, 16, 16); sad != 0 {
		t.Fatalf("self-SAD = %d", sad)
	}
	if ssd := SSD(&p, 8, 8, &p, 8, 8, 16, 16); ssd != 0 {
		t.Fatalf("self-SSD = %d", ssd)
	}
	if satd := SATD(&p, 0, 0, &p, 0, 0, 16, 16); satd != 0 {
		t.Fatalf("self-SATD = %d", satd)
	}
}

func TestSADSymmetric(t *testing.T) {
	a, b := NewPlane(48, 48), NewPlane(48, 48)
	fillPattern(&a, 3)
	fillPattern(&b, 4)
	f := func(ox, oy uint8) bool {
		x, y := int(ox)%16, int(oy)%16
		return SAD(&a, x, y, &b, y, x, 16, 16) == SAD(&b, y, x, &a, x, y, 16, 16)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSATDDetectsDifferenceSADMisses(t *testing.T) {
	// A block vs its negated-gradient counterpart with equal SAD can have
	// very different SATD; at minimum SATD must be positive whenever the
	// blocks differ.
	a, b := NewPlane(16, 16), NewPlane(16, 16)
	fillPattern(&a, 5)
	fillPattern(&b, 6)
	a.ExtendEdges()
	b.ExtendEdges()
	if SATD(&a, 0, 0, &b, 0, 0, 16, 16) <= 0 {
		t.Fatal("SATD of different blocks should be positive")
	}
}

func TestPSNRIdenticalIsInf(t *testing.T) {
	f := New(32, 32)
	fillPattern(&f.Y, 7)
	g := f.Clone()
	if !math.IsInf(PSNR(f, g), 1) {
		t.Fatal("identical frames must have infinite PSNR")
	}
}

func TestPSNRSymmetricAndOrdered(t *testing.T) {
	f, g, h := New(32, 32), New(32, 32), New(32, 32)
	fillPattern(&f.Y, 8)
	// g: small perturbation; h: large perturbation.
	g.Y.CopyFrom(&f.Y)
	h.Y.CopyFrom(&f.Y)
	for i := 0; i < 100; i++ {
		g.Y.Set(i%32, i/32, g.Y.At(i%32, i/32)+2)
		h.Y.Set(i%32, i/32, h.Y.At(i%32, i/32)+60)
	}
	if PSNR(f, g) != PSNR(g, f) {
		t.Fatal("PSNR not symmetric")
	}
	if PSNR(f, g) <= PSNR(f, h) {
		t.Fatalf("small perturbation (%f) should beat large (%f)", PSNR(f, g), PSNR(f, h))
	}
}

func TestBlockVariance(t *testing.T) {
	p := NewPlane(32, 32)
	p.Fill(100)
	if v := p.BlockVariance(0, 0, 16, 16); v != 0 {
		t.Fatalf("flat block variance %f", v)
	}
	fillPattern(&p, 9)
	if v := p.BlockVariance(0, 0, 16, 16); v <= 0 {
		t.Fatalf("textured block variance %f", v)
	}
}

func TestMeanFlat(t *testing.T) {
	p := NewPlane(32, 16)
	p.Fill(77)
	if m := p.Mean(); m != 77 {
		t.Fatalf("mean %f", m)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 16}, {16, 0}, {17, 16}, {16, 24}, {-16, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFrameSetBaseLayout(t *testing.T) {
	f := New(64, 32)
	f.SetBase(0x1000)
	if f.Y.Base != 0x1000 {
		t.Fatal("Y base")
	}
	if f.Cb.Base != 0x1000+uint64(len(f.Y.Pix)) {
		t.Fatal("Cb base not after Y")
	}
	if f.Cr.Base != f.Cb.Base+uint64(len(f.Cb.Pix)) {
		t.Fatal("Cr base not after Cb")
	}
	// Addr is consistent with the plane layout.
	if f.Y.Addr(0, 0) != 0x1000+uint64(Pad*f.Y.Stride+Pad) {
		t.Fatal("Addr(0,0) mismatch")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := New(32, 32)
	fillPattern(&f.Y, 10)
	g := f.Clone()
	g.Y.Set(0, 0, f.Y.At(0, 0)+1)
	if f.Y.At(0, 0) == g.Y.At(0, 0) {
		t.Fatal("clone shares storage")
	}
}

func TestSADThresholdPropertyVsSSD(t *testing.T) {
	// SSD >= SAD^2/n (Cauchy-Schwarz) for any block pair.
	a, b := NewPlane(32, 32), NewPlane(32, 32)
	fillPattern(&a, 11)
	fillPattern(&b, 12)
	f := func(ox, oy uint8) bool {
		x, y := int(ox)%16, int(oy)%16
		sad := int64(SAD(&a, x, y, &b, x, y, 16, 16))
		ssd := SSD(&a, x, y, &b, x, y, 16, 16)
		return ssd*256 >= sad*sad
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSAD16x16(b *testing.B) {
	p, q := NewPlane(64, 64), NewPlane(64, 64)
	fillPattern(&p, 1)
	fillPattern(&q, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SAD(&p, 8, 8, &q, 9, 7, 16, 16)
	}
}

func BenchmarkSATD16x16(b *testing.B) {
	p, q := NewPlane(64, 64), NewPlane(64, 64)
	fillPattern(&p, 1)
	fillPattern(&q, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SATD(&p, 8, 8, &q, 9, 7, 16, 16)
	}
}
