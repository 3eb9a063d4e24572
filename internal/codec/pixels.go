package codec

import (
	"repro/internal/frame"
	"repro/internal/trace"
)

// tracer gates instrumentation. Every hot routine in the codec funnels its
// trace events through one of these; `on` is toggled per macroblock by the
// sampling policy so that large sweeps only pay for a representative subset
// of events while the pixel work itself always runs in full.
type tracer struct {
	sink   trace.Sink
	on     bool
	mask   uint64 // sample MB when (counter & mask) == 0
	ctr    uint64
	factor float64 // scale factor to recover full-trace counts
}

func newTracer(sink trace.Sink, sampleLog2 int) tracer {
	if sink == nil {
		sink = trace.Nop{}
	}
	if sampleLog2 < 0 {
		sampleLog2 = 0
	}
	return tracer{
		sink:   sink,
		mask:   (1 << uint(sampleLog2)) - 1,
		factor: float64(int(1) << uint(sampleLog2)),
	}
}

// nextMB advances the macroblock counter and arms or disarms event
// emission for the new macroblock.
func (t *tracer) nextMB() {
	t.on = t.ctr&t.mask == 0
	t.ctr++
}

// SampleFactor returns the multiplier that scales sampled event counts back
// to full-trace magnitudes.
func (t *tracer) SampleFactor() float64 { return t.factor }

func (t *tracer) ops(fn trace.FuncID, n int) {
	if t.on {
		t.sink.Ops(fn, n)
	}
}

func (t *tracer) call(fn trace.FuncID) {
	if t.on {
		t.sink.Call(fn)
	}
}

func (t *tracer) branch(fn trace.FuncID, site trace.BranchID, taken bool) {
	if t.on {
		t.sink.Branch(fn, site, taken)
	}
}

func (t *tracer) loop(fn trace.FuncID, site trace.BranchID, iters int) {
	if t.on {
		t.sink.Loop(fn, site, iters)
	}
}

func (t *tracer) load2D(fn trace.FuncID, p *frame.Plane, x, y, w, h int) {
	if t.on {
		t.sink.Load2D(fn, p.Addr(x, y), w, h, p.Stride)
	}
}

func (t *tracer) store2D(fn trace.FuncID, p *frame.Plane, x, y, w, h int) {
	if t.on {
		t.sink.Store2D(fn, p.Addr(x, y), w, h, p.Stride)
	}
}

func (t *tracer) load(fn trace.FuncID, addr uint64, n int) {
	if t.on {
		t.sink.Load(fn, addr, n)
	}
}

func (t *tracer) store(fn trace.FuncID, addr uint64, n int) {
	if t.on {
		t.sink.Store(fn, addr, n)
	}
}

// --- instrumented pixel kernels ---------------------------------------------

// sad computes the SAD between the w x h source block at (ax, ay) and the
// reference block at (bx, by), reporting the work to the tracer under fn.
func (t *tracer) sad(fn trace.FuncID, a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int {
	s := frame.SAD(a, ax, ay, b, bx, by, w, h)
	if t.on {
		t.sink.Call(fn)
		t.sink.Ops(fn, w*h/8+12) // SIMD: one SAD op per 8-16 pixels
		t.sink.Load2D(fn, a.Addr(ax, ay), w, h, a.Stride)
		t.sink.Load2D(fn, b.Addr(bx, by), w, h, b.Stride)
	}
	return s
}

// sadThresh is sad with row-level early abort once the accumulated
// difference exceeds limit; exhaustive search uses it to keep its cost
// proportional to usefulness, as real encoders do.
func (t *tracer) sadThresh(fn trace.FuncID, a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h, limit int) int {
	s := 0
	rows := 0
	for j := 0; j < h; j++ {
		s += frame.SADRow(a.RowFrom(ax, ay+j, w), b.RowFrom(bx, by+j, w))
		rows++
		if s > limit {
			break
		}
	}
	if t.on {
		t.sink.Call(fn)
		t.sink.Ops(fn, w*rows/8+12)
		t.sink.Load2D(fn, a.Addr(ax, ay), w, rows, a.Stride)
		t.sink.Load2D(fn, b.Addr(bx, by), w, rows, b.Stride)
	}
	return s
}

// satd computes the Hadamard-transformed difference metric.
func (t *tracer) satd(fn trace.FuncID, a *frame.Plane, ax, ay int, b *frame.Plane, bx, by, w, h int) int {
	s := frame.SATD(a, ax, ay, b, bx, by, w, h)
	if t.on {
		t.sink.Call(fn)
		t.sink.Ops(fn, w*h/4+24) // Hadamard vectorizes, ~2x SAD cost
		t.sink.Load2D(fn, a.Addr(ax, ay), w, h, a.Stride)
		t.sink.Load2D(fn, b.Addr(bx, by), w, h, b.Stride)
	}
	return s
}

// blockVariance reports the AQ activity measure for a block.
func (t *tracer) blockVariance(p *frame.Plane, x, y, w, h int) float64 {
	v := p.BlockVariance(x, y, w, h)
	if t.on {
		t.sink.Call(trace.FnVariance)
		t.sink.Ops(trace.FnVariance, w*h/8+12)
		t.sink.Load2D(trace.FnVariance, p.Addr(x, y), w, h, p.Stride)
	}
	return v
}

// varianceEvents emits exactly the events blockVariance would, for blocks
// whose value comes from the shared analysis artifact's variance map.
func (t *tracer) varianceEvents(p *frame.Plane, x, y, w, h int) {
	if t.on {
		t.sink.Call(trace.FnVariance)
		t.sink.Ops(trace.FnVariance, w*h/8+12)
		t.sink.Load2D(trace.FnVariance, p.Addr(x, y), w, h, p.Stride)
	}
}

// block is a fixed-capacity pixel block used for predictions and
// reconstruction staging (up to 16x16).
type block struct {
	w, h int
	pix  [256]uint8
}

func (b *block) at(x, y int) uint8     { return b.pix[y*b.w+x] }
func (b *block) set(x, y int, v uint8) { b.pix[y*b.w+x] = v }
func (b *block) row(y int) []uint8     { return b.pix[y*b.w : y*b.w+b.w] }

// satdBlock computes SATD between a plane block and a staged block (4x4
// granularity; block dims must be multiples of 4).
func (t *tracer) satdBlock(fn trace.FuncID, a *frame.Plane, ax, ay int, b *block) int {
	var total int
	for j := 0; j < b.h; j += 4 {
		for i := 0; i < b.w; i += 4 {
			total += frame.Hadamard4x4Packed(
				frame.PackDiff4(a.RowFrom(ax+i, ay+j, 4), b.row(j)[i:i+4]),
				frame.PackDiff4(a.RowFrom(ax+i, ay+j+1, 4), b.row(j + 1)[i:i+4]),
				frame.PackDiff4(a.RowFrom(ax+i, ay+j+2, 4), b.row(j + 2)[i:i+4]),
				frame.PackDiff4(a.RowFrom(ax+i, ay+j+3, 4), b.row(j + 3)[i:i+4]),
			)
		}
	}
	if t.on {
		t.sink.Call(fn)
		t.sink.Ops(fn, b.w*b.h/4+24)
		t.sink.Load2D(fn, a.Addr(ax, ay), b.w, b.h, a.Stride)
	}
	return total / 2
}

// hadamardAbs is the scalar reference transform satdBlock's SWAR path is
// pinned against in pixels_test.go.
func hadamardAbs(d *[16]int32) int32 {
	for i := 0; i < 16; i += 4 {
		s0 := d[i] + d[i+1]
		s1 := d[i] - d[i+1]
		s2 := d[i+2] + d[i+3]
		s3 := d[i+2] - d[i+3]
		d[i], d[i+1], d[i+2], d[i+3] = s0+s2, s1+s3, s0-s2, s1-s3
	}
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

func clampU8(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
