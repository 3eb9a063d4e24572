package frame

import "math"

// SAD returns the sum of absolute differences between the w x h block at
// (ax, ay) in a and the block at (bx, by) in b. Coordinates may reach into
// plane padding. Rows run through the SWAR kernel (see swar.go); sadScalar
// is the reference the equivalence and fuzz tests pin it against.
func SAD(a *Plane, ax, ay int, b *Plane, bx, by, w, h int) int {
	sad := 0
	for j := 0; j < h; j++ {
		sad += SADRow(a.RowFrom(ax, ay+j, w), b.RowFrom(bx, by+j, w))
	}
	return sad
}

// sadScalar is the byte-at-a-time reference implementation of SAD.
func sadScalar(a *Plane, ax, ay int, b *Plane, bx, by, w, h int) int {
	sad := 0
	for j := 0; j < h; j++ {
		ra := a.RowFrom(ax, ay+j, w)
		rb := b.RowFrom(bx, by+j, w)
		for i, va := range ra {
			d := int(va) - int(rb[i])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// SSD returns the sum of squared differences between two equally sized
// blocks; it is the distortion measure used for RD decisions and PSNR.
func SSD(a *Plane, ax, ay int, b *Plane, bx, by, w, h int) int64 {
	var ssd int64
	for j := 0; j < h; j++ {
		ra := a.RowFrom(ax, ay+j, w)
		rb := b.RowFrom(bx, by+j, w)
		for i, va := range ra {
			d := int64(va) - int64(rb[i])
			ssd += d * d
		}
	}
	return ssd
}

// hadamard4x4 performs the 4x4 Hadamard transform of d in place and returns
// the sum of absolute transformed coefficients.
func hadamard4x4(d *[16]int32) int32 {
	// Rows.
	for i := 0; i < 16; i += 4 {
		s0 := d[i] + d[i+1]
		s1 := d[i] - d[i+1]
		s2 := d[i+2] + d[i+3]
		s3 := d[i+2] - d[i+3]
		d[i] = s0 + s2
		d[i+1] = s1 + s3
		d[i+2] = s0 - s2
		d[i+3] = s1 - s3
	}
	// Columns and accumulation.
	var sum int32
	for i := 0; i < 4; i++ {
		s0 := d[i] + d[i+4]
		s1 := d[i] - d[i+4]
		s2 := d[i+8] + d[i+12]
		s3 := d[i+8] - d[i+12]
		for _, v := range [4]int32{s0 + s2, s1 + s3, s0 - s2, s1 - s3} {
			if v < 0 {
				v = -v
			}
			sum += v
		}
	}
	return sum
}

// SATD returns the sum of absolute Hadamard-transformed differences between
// two w x h blocks, computed over 4x4 sub-blocks. w and h must be multiples
// of 4. SATD approximates the post-transform coding cost far better than SAD
// and is what x264 uses at subme >= 3. Each 4x4 tile runs through the packed
// SWAR Hadamard (see swar.go); satdScalar is the pinned reference.
func SATD(a *Plane, ax, ay int, b *Plane, bx, by, w, h int) int {
	total := 0
	for j := 0; j < h; j += 4 {
		for i := 0; i < w; i += 4 {
			total += Hadamard4x4Packed(
				PackDiff4(a.RowFrom(ax+i, ay+j, 4), b.RowFrom(bx+i, by+j, 4)),
				PackDiff4(a.RowFrom(ax+i, ay+j+1, 4), b.RowFrom(bx+i, by+j+1, 4)),
				PackDiff4(a.RowFrom(ax+i, ay+j+2, 4), b.RowFrom(bx+i, by+j+2, 4)),
				PackDiff4(a.RowFrom(ax+i, ay+j+3, 4), b.RowFrom(bx+i, by+j+3, 4)),
			)
		}
	}
	// Normalize by 2 to keep SATD on a scale comparable with SAD.
	return total / 2
}

// satdScalar is the coefficient-at-a-time reference implementation of SATD.
func satdScalar(a *Plane, ax, ay int, b *Plane, bx, by, w, h int) int {
	var total int32
	var d [16]int32
	for j := 0; j < h; j += 4 {
		for i := 0; i < w; i += 4 {
			for y := 0; y < 4; y++ {
				ra := a.RowFrom(ax+i, ay+j+y, 4)
				rb := b.RowFrom(bx+i, by+j+y, 4)
				for x := 0; x < 4; x++ {
					d[y*4+x] = int32(ra[x]) - int32(rb[x])
				}
			}
			total += hadamard4x4(&d)
		}
	}
	return int(total / 2)
}

// PSNR returns the global PSNR of two frames combined across Y, Cb and Cr
// with the conventional 4:1:1 weighting (luma dominates, as in x264's
// reported global PSNR).
func PSNR(a, b *Frame) float64 {
	ssd := SSD(&a.Y, 0, 0, &b.Y, 0, 0, a.Y.W, a.Y.H) +
		SSD(&a.Cb, 0, 0, &b.Cb, 0, 0, a.Cb.W, a.Cb.H) +
		SSD(&a.Cr, 0, 0, &b.Cr, 0, 0, a.Cr.W, a.Cr.H)
	if ssd == 0 {
		return math.Inf(1)
	}
	n := a.Y.W*a.Y.H + a.Cb.W*a.Cb.H + a.Cr.W*a.Cr.H
	mse := float64(ssd) / float64(n)
	return 10 * math.Log10(255*255/mse)
}
