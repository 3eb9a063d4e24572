package frame

// SWAR (SIMD-within-a-register) pixel kernels: eight pixels ride in one
// uint64, split into four 16-bit lanes per parity so that byte differences
// can accumulate without cross-lane carries. These are the software
// equivalent of the SSE2/AVX2 psadbw/phadd kernels that dominate x264's ME
// profile in the paper; the scalar bodies they replace are kept (sadScalar,
// satdScalar, hadamard4x4) as the reference implementations the equivalence
// and fuzz tests compare against.
//
// Lane layout is fixed little-endian (loadLE64) so results are identical on
// every platform: lane k of a packed word holds byte k of the source row.

import "encoding/binary"

const (
	lanesLo  = 0x00FF00FF00FF00FF // byte value in the low half of each 16-bit lane
	laneBias = 0x0100010001000100 // borrow-guard bit above each 16-bit lane's byte
	ones16   = 0x0001000100010001 // 1 in each 16-bit lane
	signs16  = 0x8000800080008000 // sign bit of each 16-bit lane
)

func loadLE64(p []uint8) uint64 { return binary.LittleEndian.Uint64(p) }
func loadLE32(p []uint8) uint32 { return binary.LittleEndian.Uint32(p) }

// spread4 distributes the four bytes of x into the four 16-bit lanes of a
// uint64 (byte 0 in lane 0, ... byte 3 in lane 3).
func spread4(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & lanesLo
	return v
}

// absDiffLanes returns |a-b| per 16-bit lane for lane values in [0, 255].
// The bias trick computes both a-b and b-a with a borrow guard in bit 8 of
// each lane, then selects the non-negative one: the guard bit survives
// exactly when the subtraction did not borrow.
func absDiffLanes(a, b uint64) uint64 {
	p := (a | laneBias) - b
	q := (b | laneBias) - a
	m := ((p >> 8) & ones16) * 0xFF // 0xFF in lanes where a >= b
	m |= m << 8                     // widen the select mask to the full lane
	return ((p & m) | (q &^ m)) & lanesLo
}

// sadChunk returns the per-lane sums |x_k - y_k| + |x_{k+4} - y_{k+4}| of
// two 8-byte groups: even bytes land in the low half of each lane, odd bytes
// in the high half, so one call folds 8 pixels into 4 lanes of at most 510.
func sadChunk(x, y uint64) uint64 {
	even := absDiffLanes(x&lanesLo, y&lanesLo)
	odd := absDiffLanes((x>>8)&lanesLo, (y>>8)&lanesLo)
	return even + odd
}

// sumLanes16 adds the four 16-bit lanes of v; the total must stay below
// 2^16 for the multiply-shift horizontal sum to be exact.
func sumLanes16(v uint64) int { return int((v * ones16) >> 48) }

// sadFlush bounds lane accumulation: each sadChunk adds at most 510 to each
// of the four lanes, and sumLanes16 is exact only while the grand total
// stays below 2^16, so 32 chunks (4 x 510 x 32 = 65280) is the last safe
// count before the horizontal sum could wrap.
const sadFlush = 32

// SADRow returns the sum of absolute differences of two equal-length pixel
// rows, eight pixels per step with a four-pixel and scalar tail. It is the
// row primitive under SAD and the codec's thresholded/staged SAD kernels.
func SADRow(ra, rb []uint8) int {
	n := len(ra)
	s := 0
	i := 0
	var acc uint64
	chunks := 0
	for ; i+8 <= n; i += 8 {
		acc += sadChunk(loadLE64(ra[i:]), loadLE64(rb[i:]))
		if chunks++; chunks == sadFlush {
			s += sumLanes16(acc)
			acc, chunks = 0, 0
		}
	}
	if i+4 <= n {
		acc += absDiffLanes(spread4(loadLE32(ra[i:])), spread4(loadLE32(rb[i:])))
		i += 4
	}
	s += sumLanes16(acc)
	for ; i < n; i++ {
		d := int(ra[i]) - int(rb[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// laneAdd and laneSub perform independent 16-bit two's-complement additions
// and subtractions in the four lanes of a uint64 (Hacker's Delight §2-18:
// the sign bits are carried out of the partial operation and patched back
// with xor so no carry or borrow crosses a lane boundary).
func laneAdd(x, y uint64) uint64 {
	return ((x &^ signs16) + (y &^ signs16)) ^ ((x ^ y) & signs16)
}

func laneSub(x, y uint64) uint64 {
	return ((x | signs16) - (y &^ signs16)) ^ ((x ^ ^y) & signs16)
}

// absLanes16 returns the per-lane absolute value of four 16-bit
// two's-complement lanes (lane values must exceed -32768).
func absLanes16(v uint64) uint64 {
	s := (v >> 15) & ones16 // 1 in negative lanes
	m := s * 0xFFFF
	return (v ^ m) + s
}

// PackDiff4 packs the difference of two 4-pixel rows into four 16-bit
// two's-complement lanes: lane k holds ra[k] - rb[k] in [-255, 255]. It
// feeds Hadamard4x4Packed.
func PackDiff4(ra, rb []uint8) uint64 {
	return laneSub(spread4(loadLE32(ra)), spread4(loadLE32(rb)))
}

const (
	halfLanes = 0x0000FFFF0000FFFF // lanes 0 and 2
	lowLanes  = 0x00000000FFFFFFFF // lanes 0 and 1
)

// hadamardRow applies the two horizontal butterfly stages of the 4x4
// Hadamard transform to one packed row [d0 d1 d2 d3], yielding
// [d0+d1+d2+d3, (d0-d1)+(d2-d3), (d0+d1)-(d2+d3), (d0-d1)-(d2-d3)].
func hadamardRow(v uint64) uint64 {
	// Stage 1: adjacent pairs. Swapping neighbours lets one laneAdd/laneSub
	// pair produce all four results; the mask keeps the sums in lanes 0, 2
	// and the differences in lanes 1, 3.
	u := ((v >> 16) & halfLanes) | ((v & halfLanes) << 16)
	v = (laneAdd(v, u) & halfLanes) | (laneSub(v, u) &^ halfLanes)
	// Stage 2: pair distance two, via a 32-bit half swap.
	u = v>>32 | v<<32
	return (laneAdd(v, u) & lowLanes) | (laneSub(v, u) &^ lowLanes)
}

// Ones16 is 1 in each 16-bit lane: the unit constant of the packed-lane
// arithmetic exported below.
const Ones16 = ones16

// Spread4 distributes the four bytes of x into the four 16-bit lanes of a
// uint64 (byte 0 in lane 0, ... byte 3 in lane 3). Exported alongside
// LaneAdd/LaneSub so packed kernels outside this package (the codec's
// deblocking filter and fused intra/SATD paths) share one lane layout.
func Spread4(x uint32) uint64 { return spread4(x) }

// Pack4 is the inverse of Spread4 for lane values in [0, 255]: it gathers
// the low byte of each 16-bit lane back into a packed 4-byte word.
func Pack4(v uint64) uint32 {
	v &= lanesLo
	v = (v | v>>8) & 0x0000FFFF0000FFFF
	return uint32(v | v>>16)
}

// LaneAdd adds the four 16-bit two's-complement lanes independently.
func LaneAdd(x, y uint64) uint64 { return laneAdd(x, y) }

// LaneSub subtracts the four 16-bit two's-complement lanes independently.
func LaneSub(x, y uint64) uint64 { return laneSub(x, y) }

// AbsLanes16 returns the per-lane absolute value of four 16-bit lanes.
func AbsLanes16(v uint64) uint64 { return absLanes16(v) }

// Hadamard4x4Packed returns the sum of absolute 4x4 Hadamard-transform
// coefficients of a difference block whose rows are packed 16-bit lanes
// (see PackDiff4). All intermediate values stay within +-4080, well inside
// a lane, so the SWAR arithmetic is exact; it matches hadamard4x4 on the
// equivalent [16]int32 block coefficient for coefficient.
func Hadamard4x4Packed(r0, r1, r2, r3 uint64) int {
	r0 = hadamardRow(r0)
	r1 = hadamardRow(r1)
	r2 = hadamardRow(r2)
	r3 = hadamardRow(r3)
	// Vertical butterflies run lane-parallel across the four row words.
	s0 := laneAdd(r0, r1)
	s1 := laneSub(r0, r1)
	s2 := laneAdd(r2, r3)
	s3 := laneSub(r2, r3)
	sum := absLanes16(laneAdd(s0, s2)) + absLanes16(laneAdd(s1, s3)) +
		absLanes16(laneSub(s0, s2)) + absLanes16(laneSub(s1, s3))
	// Each abs lane is at most 4080 and four of them stack per lane, so the
	// horizontal total (max 65280) still fits the exact multiply-shift sum.
	return sumLanes16(sum)
}
