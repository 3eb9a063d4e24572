package frame

import "encoding/binary"

// Quarter-pel kernels: bilinear interpolation eight pixels per step, and
// the sub-pel cost function fused with it so that a candidate vector's
// prediction is measured without ever being staged as bytes.
//
// The weights factor exactly,
//
//	w00*a + w01*b + w10*c + w11*d = (4-fy)*((4-fx)*a + fx*b) + fy*((4-fx)*c + fx*d),
//
// so each row is lerped horizontally once (lane values <= 4*255) and blended
// into the two output rows it borders (<= 16*255 + 8, then >> 4: a byte).
// Pixels ride in 16-bit lanes split by parity, as in swar.go.

// hlerp8 returns wx0*p[i] + wx1*p[i+1] for the eight pixels in lo, as even
// and odd lanes; lo1 is the same row loaded one pixel to the right.
func hlerp8(lo, lo1, wx0, wx1 uint64) (even, odd uint64) {
	e, o := lo&lanesLo, (lo>>8)&lanesLo
	return e*wx0 + o*wx1, o*wx0 + ((lo1>>8)&lanesLo)*wx1
}

// vlerp blends two hlerp8 rows: (wy0*a + wy1*b + 8) >> 4 per lane.
func vlerp(a, b, wy0, wy1 uint64) uint64 {
	return ((a*wy0 + b*wy1 + 8*ones16) >> 4) & 0x0FFF0FFF0FFF0FFF
}

// loadRun loads the n <= 8 pixels at r and the same run one pixel to the
// right, reading exactly n+1 bytes.
func loadRun(r []uint8, n int) (lo, lo1 uint64) {
	switch n {
	case 8:
		return loadLE64(r), loadLE64(r[1:])
	case 4:
		return uint64(loadLE32(r)), uint64(loadLE32(r[1:]))
	}
	for k := n; k >= 0; k-- {
		lo = lo<<8 | uint64(r[k])
	}
	return lo, lo >> 8
}

// InterpBilinear writes the w x h prediction at quarter-pel offset (fx, fy)
// from integer position (ix, iy) of ref into dst (row stride w). It reads
// (w+1) x (h+1) reference pixels. The codec's scalar bilinear loop is its
// oracle (TestInterpLumaMatchesScalar).
func InterpBilinear(dst []uint8, ref *Plane, ix, iy, fx, fy, w, h int) {
	wx1, wy1 := uint64(fx), uint64(fy)
	wx0, wy0 := 4-wx1, 4-wy1
	for i := 0; i < w; i += 8 {
		n := min(8, w-i)
		r := ref.Pix[ref.index(ix+i, iy):]
		lo, lo1 := loadRun(r, n)
		pe, po := hlerp8(lo, lo1, wx0, wx1)
		for j := 0; j < h; j++ {
			r = r[ref.Stride:]
			lo, lo1 = loadRun(r, n)
			ne, no := hlerp8(lo, lo1, wx0, wx1)
			v := vlerp(pe, ne, wy0, wy1) | vlerp(po, no, wy0, wy1)<<8
			switch out := dst[j*w+i:]; n {
			case 8:
				binary.LittleEndian.PutUint64(out, v)
			case 4:
				binary.LittleEndian.PutUint32(out, uint32(v))
			default:
				for k := 0; k < n; k++ {
					out[k] = uint8(v >> (8 * k))
				}
			}
			pe, po = ne, no
		}
	}
}

// PlanarBlock is a source block regrouped for SubpelCost. A planar row is
// four words: word c holds the pixels whose column is c mod 4, one 4x4
// block per lane, so every Hadamard butterfly of four blocks at once is a
// plain word add or subtract — no shuffles, no masks. A row takes its lanes
// from two 8-pixel runs: the halves of a 16-wide row, or for an 8-wide
// block rows r and r+4; a 4-wide block fills one lane and leaves the others
// zero on both sides of the difference. Four planar rows make a group.
//
// Lanes carry a bias instead of a sign. Source words hold s + 256, so
// s + 256 - p is positive and no borrow crosses a lane; a butterfly of two
// values biased by B yields a+b and a + 2B - b, both biased by 2B, and after
// the four stages B is 4096, above the 4080 a coefficient can reach (a
// value is below 255*2^k after k stages, its bias 256*2^k). Sixteen absolute
// coefficients sum to at most 65280 per lane.
//
// Sizes are the ones the encoder emits: 16x16, 16x8, 8x16, 8x8, 4x4.
type PlanarBlock struct {
	w, h  int
	words [64]uint64
}

// planarGeom returns where the second 8-pixel run of a planar row starts
// relative to the first (negative: none) and how many block rows a group
// covers.
func planarGeom(w, stride int) (up, rows int) {
	switch w {
	case 16:
		return 8, 4
	case 8:
		return 4 * stride, 8
	}
	return -1, 4
}

// loadPair loads the two runs of a planar row.
func loadPair(pix []uint8, i, up int) (lo, hi uint64) {
	if up < 0 {
		return uint64(loadLE32(pix[i:])), 0
	}
	return loadLE64(pix[i:]), loadLE64(pix[i+up:])
}

// planarWords regroups the even and odd lanes of two runs by column mod 4.
func planarWords(eLo, oLo, eHi, oHi uint64) (c0, c1, c2, c3 uint64) {
	return eLo&halfLanes | (eHi&halfLanes)<<16, oLo&halfLanes | (oHi&halfLanes)<<16,
		(eLo>>16)&halfLanes | eHi&^halfLanes, (oLo>>16)&halfLanes | oHi&^halfLanes
}

// Load regroups the w x h block of p at (x, y).
func (b *PlanarBlock) Load(p *Plane, x, y, w, h int) {
	b.w, b.h = w, h
	up, rows := planarGeom(w, p.Stride)
	out := b.words[:0]
	for g := 0; g < h; g += rows {
		for r := 0; r < 4; r++ {
			lo, hi := loadPair(p.Pix, p.index(x, y+g+r), up)
			c0, c1, c2, c3 := planarWords(lo&lanesLo, (lo>>8)&lanesLo, hi&lanesLo, (hi>>8)&lanesLo)
			out = append(out, c0+laneBias, c1+laneBias, c2+laneBias, c3+laneBias)
		}
	}
}

// lerpRow returns the planar row at pix[i] lerped horizontally.
func lerpRow(pix []uint8, i, up int, wx0, wx1 uint64) (c0, c1, c2, c3 uint64) {
	lo, hi := loadPair(pix, i, up)
	lo1, hi1 := loadPair(pix, i+1, up)
	eLo, oLo := hlerp8(lo, lo1, wx0, wx1)
	eHi, oHi := hlerp8(hi, hi1, wx0, wx1)
	return planarWords(eLo, oLo, eHi, oHi)
}

// absBiased returns |v| per lane for lanes holding v + 1<<bit, |v| < 1<<bit.
func absBiased(x uint64, bit uint) uint64 {
	neg := (^x >> bit) & ones16
	low := uint64(1)<<bit - 1
	return (x^neg*low)&(low*ones16) + neg
}

// hadamardAbs transforms the four 4x4 blocks of a group of differences
// biased by 256 and returns their absolute coefficients summed per lane.
func hadamardAbs(d *[16]uint64) (sum uint64) {
	const b1, b2, b3, b4 = 0x200 * ones16, 0x400 * ones16, 0x800 * ones16, 0x1000 * ones16
	for r := 0; r < 16; r += 4 {
		s0, d0 := d[r]+d[r+1], d[r]+b1-d[r+1]
		s1, d1 := d[r+2]+d[r+3], d[r+2]+b1-d[r+3]
		d[r], d[r+1], d[r+2], d[r+3] = s0+s1, d0+d1, s0+b2-s1, d0+b2-d1
	}
	for c := 0; c < 4; c++ {
		s0, d0 := d[c]+d[c+4], d[c]+b3-d[c+4]
		s1, d1 := d[c+8]+d[c+12], d[c+8]+b3-d[c+12]
		sum += absBiased(s0+s1, 12) + absBiased(d0+d1, 12) + absBiased(s0+b4-s1, 12) + absBiased(d0+b4-d1, 12)
	}
	return sum
}

// SubpelCost returns the SATD (or SAD) between the block and the bilinear
// prediction at quarter-pel offset (fx, fy) from (ix, iy) of ref, of which
// it reads (w+1) x (h+1) pixels. Equal to InterpBilinear followed by the
// staged metric; the codec's TestFusedSubpelMatchesStaged pins it against
// the scalar bilinear loop and stagedScalarSATD / stagedScalarSAD.
func (b *PlanarBlock) SubpelCost(ref *Plane, ix, iy, fx, fy int, satd bool) int {
	wx1, wy1 := uint64(fx), uint64(fy)
	wx0, wy0 := 4-wx1, 4-wy1
	up, rows := planarGeom(b.w, ref.Stride)
	src := b.words[:]
	total := 0
	for g := 0; g < b.h; g += rows {
		i := ref.index(ix, iy+g)
		p0, p1, p2, p3 := lerpRow(ref.Pix, i, up, wx0, wx1)
		var d [16]uint64
		for r := 0; r < 16; r += 4 {
			i += ref.Stride
			n0, n1, n2, n3 := lerpRow(ref.Pix, i, up, wx0, wx1)
			d[r] = src[r] - vlerp(p0, n0, wy0, wy1)
			d[r+1] = src[r+1] - vlerp(p1, n1, wy0, wy1)
			d[r+2] = src[r+2] - vlerp(p2, n2, wy0, wy1)
			d[r+3] = src[r+3] - vlerp(p3, n3, wy0, wy1)
			p0, p1, p2, p3 = n0, n1, n2, n3
		}
		src = src[16:]
		var sum uint64
		if satd {
			sum = hadamardAbs(&d)
		} else {
			for _, v := range d {
				sum += absBiased(v, 8)
			}
		}
		sum = sum&halfLanes + (sum>>16)&halfLanes
		total += int(uint32(sum) + uint32(sum>>32))
	}
	if satd {
		total /= 2 // as SATD: normalized to SAD's scale
	}
	return total
}
