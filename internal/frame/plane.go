// Package frame provides the raw-video substrate used by the codec and the
// workload generator: padded YUV 4:2:0 frames, pixel planes, and the block
// metrics (SAD, SATD, SSD, PSNR) that drive encoding decisions.
//
// Planes carry edge padding so that motion search and sub-pel interpolation
// may read slightly outside the visible picture without bounds checks, the
// same trick production encoders use.
package frame

import "encoding/binary"

// Pad is the number of padding pixels kept on every side of a plane. Motion
// search ranges and interpolation taps must stay within this margin.
const Pad = 32

// Plane is a single rectangular component (luma or chroma) with edge padding.
// Pixel (0,0) of the visible area lives at Pix[Pad*Stride+Pad].
type Plane struct {
	W, H   int     // visible dimensions
	Stride int     // bytes per padded row (W + 2*Pad)
	Pix    []uint8 // padded storage, len == Stride*(H+2*Pad)
	Base   uint64  // virtual base address used for memory tracing
}

// NewPlane allocates a zeroed plane of the given visible size.
func NewPlane(w, h int) Plane {
	stride := w + 2*Pad
	return Plane{
		W:      w,
		H:      h,
		Stride: stride,
		Pix:    make([]uint8, stride*(h+2*Pad)),
	}
}

// index returns the storage index of visible pixel (x, y). Coordinates may
// range over [-Pad, W+Pad) x [-Pad, H+Pad).
func (p *Plane) index(x, y int) int {
	return (y+Pad)*p.Stride + (x + Pad)
}

// At returns the pixel at visible coordinate (x, y); the coordinate may
// extend into the padding margin.
func (p *Plane) At(x, y int) uint8 { return p.Pix[p.index(x, y)] }

// Set writes the pixel at visible coordinate (x, y).
func (p *Plane) Set(x, y int, v uint8) { p.Pix[p.index(x, y)] = v }

// Row returns the visible pixels of row y as a slice of length W.
func (p *Plane) Row(y int) []uint8 {
	i := p.index(0, y)
	return p.Pix[i : i+p.W]
}

// RowFrom returns a slice starting at visible coordinate (x, y) extending n
// pixels; it may begin in the left padding and extend into the right padding.
func (p *Plane) RowFrom(x, y, n int) []uint8 {
	i := p.index(x, y)
	return p.Pix[i : i+n]
}

// Addr returns the virtual address of visible pixel (x, y) for tracing.
func (p *Plane) Addr(x, y int) uint64 {
	return p.Base + uint64(p.index(x, y))
}

// ExtendEdges replicates the border pixels of the visible area into the
// padding margin. Call after the visible area has been (re)written.
func (p *Plane) ExtendEdges() {
	for y := 0; y < p.H; y++ {
		p.extendSides(y)
	}
	p.extendTopBottom()
}

// extendSides fills the left and right margins of visible row y, eight
// copies of the border pixel per store.
func (p *Plane) extendSides(y int) {
	row := p.Pix[(y+Pad)*p.Stride : (y+Pad+1)*p.Stride]
	l := uint64(row[Pad]) * 0x0101010101010101
	r := uint64(row[Pad+p.W-1]) * 0x0101010101010101
	left, right := row[:Pad], row[Pad+p.W:Pad+p.W+Pad]
	for x := 0; x < Pad; x += 8 {
		binary.LittleEndian.PutUint64(left[x:], l)
		binary.LittleEndian.PutUint64(right[x:], r)
	}
}

// extendTopBottom replicates the first and last padded rows, side margins
// included, into the top and bottom margins, doubling the rows each copy
// moves.
func (p *Plane) extendTopBottom() {
	s := p.Stride
	for n := 1; n <= Pad; n *= 2 {
		m := min(n, Pad+1-n) // rows to add: n are done, Pad+1 in all
		top := p.Pix[(Pad+1-n-m)*s : (Pad+1-n+m)*s]
		copy(top[:m*s], top[m*s:])
		bottom := p.Pix[(Pad+p.H-1)*s:]
		copy(bottom[n*s:(n+m)*s], bottom[:m*s])
	}
}

// CopyFrom copies the visible area (and padding) of src, which must have the
// same dimensions.
func (p *Plane) CopyFrom(src *Plane) {
	copy(p.Pix, src.Pix)
}

// BlockVariance returns the population variance of the w x h block whose
// top-left visible coordinate is (x, y). It is the activity measure used by
// adaptive quantization.
func (p *Plane) BlockVariance(x, y, w, h int) float64 {
	var sum, sq int64
	for j := 0; j < h; j++ {
		row := p.RowFrom(x, y+j, w)
		for _, v := range row {
			iv := int64(v)
			sum += iv
			sq += iv * iv
		}
	}
	n := int64(w * h)
	mean := float64(sum) / float64(n)
	return float64(sq)/float64(n) - mean*mean
}
