package frame

// Picture is the visible content of a Frame: everything needed to rebuild
// the frame exactly once its padding is derived again from the visible
// pixels. A Frame spends most of its bytes on that padding (two thirds at
// 160x96), so a picture is what a long-lived store of decoded frames keeps.
type Picture struct {
	Width, Height int
	PTS           int
	Bases         [3]uint64 // Y, Cb, Cr virtual base addresses
	Pix           []uint8   // visible Y rows, then Cb rows, then Cr rows, back to back
}

// planes returns the frame's three planes in Picture.Pix order.
func (f *Frame) planes() [3]*Plane { return [3]*Plane{&f.Y, &f.Cb, &f.Cr} }

// Picture returns the visible content of f. Frame rebuilds f exactly when
// f's padding is edge-extended (ExtendEdges), as every decoded frame's is.
func (f *Frame) Picture() *Picture {
	p := &Picture{
		Width:  f.Width,
		Height: f.Height,
		PTS:    f.PTS,
		Bases:  [3]uint64{f.Y.Base, f.Cb.Base, f.Cr.Base},
		Pix:    make([]uint8, 0, f.Width*f.Height*3/2),
	}
	for _, pl := range f.planes() {
		for y := 0; y < pl.H; y++ {
			p.Pix = append(p.Pix, pl.Row(y)...)
		}
	}
	return p
}

// Frame materializes a private padded frame from p: the visible rows copied
// in, the padding edge-extended, the bases and PTS restored.
func (p *Picture) Frame() *Frame {
	f := New(p.Width, p.Height)
	f.PTS = p.PTS
	pix := p.Pix
	for i, pl := range f.planes() {
		pl.Base = p.Bases[i]
		// One pass over the rows, each edge-extended as it lands.
		for y := 0; y < pl.H; y++ {
			pix = pix[copy(pl.Row(y), pix):]
			pl.extendSides(y)
		}
		pl.extendTopBottom()
	}
	return f
}

// ByteSize returns the picture's pixel storage in bytes.
func (p *Picture) ByteSize() int { return len(p.Pix) }
