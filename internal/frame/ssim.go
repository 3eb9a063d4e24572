package frame

// SSIM constants for 8-bit depth (the standard k1=0.01, k2=0.03 with
// L=255).
const (
	ssimC1 = (0.01 * 255) * (0.01 * 255)
	ssimC2 = (0.03 * 255) * (0.03 * 255)
)

// ssimWindow computes the SSIM index of one 8x8 window.
func ssimWindow(a, b *Plane, x, y int) float64 {
	var sa, sb, saa, sbb, sab float64
	for j := 0; j < 8; j++ {
		ra := a.RowFrom(x, y+j, 8)
		rb := b.RowFrom(x, y+j, 8)
		for i := 0; i < 8; i++ {
			va, vb := float64(ra[i]), float64(rb[i])
			sa += va
			sb += vb
			saa += va * va
			sbb += vb * vb
			sab += va * vb
		}
	}
	const n = 64
	ma, mb := sa/n, sb/n
	va := saa/n - ma*ma
	vb := sbb/n - mb*mb
	cov := sab/n - ma*mb
	return ((2*ma*mb + ssimC1) * (2*cov + ssimC2)) /
		((ma*ma + mb*mb + ssimC1) * (va + vb + ssimC2))
}

// PlaneSSIM returns the mean structural-similarity index between two
// planes of identical dimensions, computed over a dense grid of 8x8
// windows (stride 4). The result lies in (-1, 1]; identical planes yield 1.
func PlaneSSIM(a, b *Plane) float64 {
	var sum float64
	var n int
	for y := 0; y+8 <= a.H; y += 4 {
		for x := 0; x+8 <= a.W; x += 4 {
			sum += ssimWindow(a, b, x, y)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// SSIM returns the luma structural-similarity index of two frames, the
// perceptual quality metric commonly reported alongside PSNR in codec
// comparisons.
func SSIM(a, b *Frame) float64 {
	return PlaneSSIM(&a.Y, &b.Y)
}
