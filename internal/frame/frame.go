package frame

import "fmt"

// Frame is a YUV 4:2:0 picture. Chroma planes are half the luma resolution
// in each dimension. Dimensions must be multiples of 16 (one macroblock).
type Frame struct {
	Width, Height int
	Y, Cb, Cr     Plane
	PTS           int // presentation index within the stream
}

// New allocates a zeroed frame. Width and height must be positive multiples
// of 16; New panics otherwise, since a misaligned frame is a programming
// error everywhere in this module.
func New(w, h int) *Frame {
	if w <= 0 || h <= 0 || w%16 != 0 || h%16 != 0 {
		panic(fmt.Sprintf("frame: dimensions %dx%d not positive multiples of 16", w, h))
	}
	return &Frame{
		Width:  w,
		Height: h,
		Y:      NewPlane(w, h),
		Cb:     NewPlane(w/2, h/2),
		Cr:     NewPlane(w/2, h/2),
	}
}

// Clone returns a deep copy of f.
func (f *Frame) Clone() *Frame {
	g := New(f.Width, f.Height)
	g.PTS = f.PTS
	g.Y.CopyFrom(&f.Y)
	g.Cb.CopyFrom(&f.Cb)
	g.Cr.CopyFrom(&f.Cr)
	g.Y.Base, g.Cb.Base, g.Cr.Base = f.Y.Base, f.Cb.Base, f.Cr.Base
	return g
}

// ExtendEdges pads all three planes; call once the pixel data is final.
func (f *Frame) ExtendEdges() {
	f.Y.ExtendEdges()
	f.Cb.ExtendEdges()
	f.Cr.ExtendEdges()
}

// SetBase assigns virtual base addresses to the three planes for memory
// tracing. Planes are laid out consecutively starting at base.
func (f *Frame) SetBase(base uint64) {
	f.Y.Base = base
	f.Cb.Base = base + uint64(len(f.Y.Pix))
	f.Cr.Base = f.Cb.Base + uint64(len(f.Cb.Pix))
}

// ByteSize returns the padded storage footprint of the frame in bytes.
func (f *Frame) ByteSize() int {
	return len(f.Y.Pix) + len(f.Cb.Pix) + len(f.Cr.Pix)
}
