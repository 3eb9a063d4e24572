package codec

import (
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/trace"
)

// stagedScalarSAD and stagedScalarSATD are the byte-at-a-time metrics on a
// staged block: the references for satdBlock and, behind the scalar
// interpolation, for the fused sub-pel cost (subpel_test.go).
func stagedScalarSAD(a *frame.Plane, ax, ay int, b *block) int {
	s := 0
	for j := 0; j < b.h; j++ {
		ra := a.RowFrom(ax, ay+j, b.w)
		rb := b.row(j)
		for i, va := range ra {
			d := int(va) - int(rb[i])
			if d < 0 {
				d = -d
			}
			s += d
		}
	}
	return s
}

func stagedScalarSATD(a *frame.Plane, ax, ay int, b *block) int {
	var total int
	var d [16]int32
	for j := 0; j < b.h; j += 4 {
		for i := 0; i < b.w; i += 4 {
			for y := 0; y < 4; y++ {
				ra := a.RowFrom(ax+i, ay+j+y, 4)
				rb := b.row(j + y)[i : i+4]
				for x := 0; x < 4; x++ {
					d[y*4+x] = int32(ra[x]) - int32(rb[x])
				}
			}
			total += int(hadamardAbs(&d))
		}
	}
	return total / 2
}

// TestStagedBlockKernelsMatchScalar pins satdBlock against the scalar
// reference across block geometries and random content.
func TestStagedBlockKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := frame.NewPlane(64, 48)
	for i := range p.Pix {
		p.Pix[i] = uint8(rng.Intn(256))
	}
	tr := newTracer(trace.Nop{}, 0)
	var b block
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {8, 16}, {16, 8}, {12, 4}} {
		b.w, b.h = dims[0], dims[1]
		for i := 0; i < b.w*b.h; i++ {
			b.pix[i] = uint8(rng.Intn(256))
		}
		for _, off := range [][2]int{{0, 0}, {7, 3}, {-5, -2}, {31, 17}} {
			ax, ay := off[0], off[1]
			if got, want := tr.satdBlock(trace.FnSATD, &p, ax, ay, &b), stagedScalarSATD(&p, ax, ay, &b); got != want {
				t.Errorf("satdBlock %dx%d at (%d,%d): got %d, want %d", b.w, b.h, ax, ay, got, want)
			}
		}
	}
}

// TestESAEarlyTermination verifies the satellite fix: exhaustive search now
// honours meQuery.earlyPx like every other pattern — a good-enough match
// stops the row scan, with the decision reported at the siteMEEarly branch
// site.
func TestESAEarlyTermination(t *testing.T) {
	src, ref := shiftedPlanes(128, 96, 0, 0)
	run := func(earlyPx int) (calls int, res meResult) {
		sink := &recordingSink{}
		enc, err := NewEncoder(128, 96, 30, Defaults(), sink)
		if err != nil {
			t.Fatal(err)
		}
		enc.tr.nextMB() // arm event emission (normally done by the MB loop)
		q := meQuery{
			src: &src, ref: &ref, sx: 48, sy: 32, w: 16, h: 16,
			mvp: MV{}, rangePx: 8, method: MEESA, lambda: 1, earlyPx: earlyPx,
		}
		res = enc.motionSearch(&q)
		return sink.calls, res
	}
	full, fullRes := run(0)
	early, earlyRes := run(64)
	// The content is an exact translation by (0,0), so the zero-vector probe
	// already hits SAD 0: the thresholded search must stop after its first
	// row instead of scanning all 17.
	if fullRes.mv != (MV{}) || earlyRes.mv != (MV{}) {
		t.Fatalf("expected both searches to find the zero vector, got %v and %v", fullRes.mv, earlyRes.mv)
	}
	if early >= full/4 {
		t.Fatalf("early termination saved too little: %d calls with threshold vs %d without", early, full)
	}
}
