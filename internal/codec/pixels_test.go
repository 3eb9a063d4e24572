package codec

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/trace"
)

// recordingSink captures event counts per kind.
type recordingSink struct {
	ops, loads, stores, branches, loops, calls int
}

func (r *recordingSink) Ops(_ trace.FuncID, n int)                       { r.ops += n }
func (r *recordingSink) Load(_ trace.FuncID, _ uint64, _ int)            { r.loads++ }
func (r *recordingSink) Store(_ trace.FuncID, _ uint64, _ int)           { r.stores++ }
func (r *recordingSink) Load2D(_ trace.FuncID, _ uint64, _, _, _ int)    { r.loads++ }
func (r *recordingSink) Store2D(_ trace.FuncID, _ uint64, _, _, _ int)   { r.stores++ }
func (r *recordingSink) Branch(_ trace.FuncID, _ trace.BranchID, _ bool) { r.branches++ }
func (r *recordingSink) Loop(_ trace.FuncID, _ trace.BranchID, _ int)    { r.loops++ }
func (r *recordingSink) Call(_ trace.FuncID)                             { r.calls++ }

func TestTracerSamplingGates(t *testing.T) {
	sink := &recordingSink{}
	tr := newTracer(sink, 2) // sample 1 of 4 macroblocks
	if tr.SampleFactor() != 4 {
		t.Fatalf("sample factor %f", tr.SampleFactor())
	}
	emitted := 0
	for mb := 0; mb < 16; mb++ {
		tr.nextMB()
		before := sink.ops
		tr.ops(trace.FnSAD, 10)
		if sink.ops != before {
			continue
		}
		emitted++
	}
	// 12 of 16 macroblocks suppressed (mask 3).
	if emitted != 12 {
		t.Fatalf("suppressed %d of 16, want 12", emitted)
	}
}

func TestTracerNilSinkSafe(t *testing.T) {
	tr := newTracer(nil, 0)
	tr.nextMB()
	tr.ops(trace.FnSAD, 5)
	tr.branch(trace.FnSAD, 1, true)
	tr.loop(trace.FnSAD, 2, 3)
	tr.call(trace.FnSAD)
	// No panic: the nil sink becomes a Nop.
}

func TestInstrumentedSADMatchesPlain(t *testing.T) {
	a, b := shiftedPlanes(64, 64, 2, 1)
	tr := newTracer(&recordingSink{}, 0)
	tr.nextMB()
	got := tr.sad(trace.FnSAD, &a, 8, 8, &b, 9, 7, 16, 16)
	want := frame.SAD(&a, 8, 8, &b, 9, 7, 16, 16)
	if got != want {
		t.Fatalf("instrumented SAD %d != plain %d", got, want)
	}
	gotS := tr.satd(trace.FnSATD, &a, 8, 8, &b, 9, 7, 16, 16)
	wantS := frame.SATD(&a, 8, 8, &b, 9, 7, 16, 16)
	if gotS != wantS {
		t.Fatalf("instrumented SATD %d != plain %d", gotS, wantS)
	}
}

func TestSADThreshAbortsEarlyButNeverUnderestimates(t *testing.T) {
	a, b := shiftedPlanes(64, 64, 7, 5)
	tr := newTracer(nil, 0)
	full := frame.SAD(&a, 8, 8, &b, 8, 8, 16, 16)
	got := tr.sadThresh(trace.FnSAD, &a, 8, 8, &b, 8, 8, 16, 16, full/4)
	// Aborted SAD is a lower bound that must already exceed the limit.
	if got <= full/4 {
		t.Fatalf("aborted SAD %d did not exceed the limit %d", got, full/4)
	}
	if got > full {
		t.Fatalf("aborted SAD %d exceeds the full SAD %d", got, full)
	}
	// A generous limit returns the exact value.
	exact := tr.sadThresh(trace.FnSAD, &a, 8, 8, &b, 8, 8, 16, 16, 1<<30)
	if exact != full {
		t.Fatalf("unbounded sadThresh %d != SAD %d", exact, full)
	}
}

func TestSatdBlockMatchesPlaneSATD(t *testing.T) {
	a, _ := shiftedPlanes(64, 64, 0, 0)
	tr := newTracer(nil, 0)
	var blk block
	blk.w, blk.h = 16, 16
	for j := 0; j < 16; j++ {
		copy(blk.row(j), a.RowFrom(20, 20+j, 16))
	}
	// SATD of a block against its own pixels is zero.
	if got := tr.satdBlock(trace.FnSATD, &a, 20, 20, &blk); got != 0 {
		t.Fatalf("self satdBlock %d", got)
	}
}

func TestInterpLumaIntegerIsCopy(t *testing.T) {
	_, ref := shiftedPlanes(64, 64, 0, 0)
	tr := newTracer(nil, 0)
	var dst block
	tr.interpLuma(trace.FnInterp, &ref, 16, 16, MV{8, -4}, &dst, 16, 16) // integer: 2,-1
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			if dst.at(i, j) != ref.At(16+i+2, 16+j-1) {
				t.Fatalf("integer MC mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestInterpLumaHalfPelAverages(t *testing.T) {
	ref := frame.NewPlane(64, 64)
	for y := 0; y < 64; y++ {
		row := ref.Row(y)
		for x := range row {
			row[x] = uint8(x * 4)
		}
	}
	ref.ExtendEdges()
	tr := newTracer(nil, 0)
	var dst block
	tr.interpLuma(trace.FnInterp, &ref, 16, 16, MV{2, 0}, &dst, 8, 8) // half-pel x
	// Horizontal ramp: half-pel sample = average of neighbours.
	for i := 0; i < 7; i++ {
		want := (int(ref.At(16+i, 16)) + int(ref.At(17+i, 16)) + 1) / 2
		got := int(dst.at(i, 0))
		if got < want-1 || got > want+1 {
			t.Fatalf("half-pel at %d: got %d want ~%d", i, got, want)
		}
	}
}

func TestAvgBlocksRounds(t *testing.T) {
	var a, b, out block
	a.w, a.h, b.w, b.h = 4, 4, 4, 4
	for i := 0; i < 16; i++ {
		a.pix[i] = 10
		b.pix[i] = 11
	}
	avgBlocks(&a, &b, &out)
	if out.pix[0] != 11 { // (10+11+1)>>1
		t.Fatalf("bi average %d", out.pix[0])
	}
}

func TestBlitPlacesSubBlocks(t *testing.T) {
	var big, small block
	big.w, big.h = 16, 16
	small.w, small.h = 8, 8
	for i := range small.pix[:64] {
		small.pix[i] = 9
	}
	blit(&big, &small, 8, 8)
	if big.at(8, 8) != 9 || big.at(15, 15) != 9 {
		t.Fatal("blit target region wrong")
	}
	if big.at(0, 0) != 0 || big.at(7, 7) != 0 {
		t.Fatal("blit overwrote outside its region")
	}
}

func TestResidualOrderCoversAllBlocks(t *testing.T) {
	for _, interchange := range []bool{false, true} {
		seen := [16]bool{}
		for _, o := range residualOrder(interchange) {
			idx := o[1]*4 + o[0]
			if seen[idx] {
				t.Fatalf("duplicate block (%d,%d)", o[0], o[1])
			}
			seen[idx] = true
		}
	}
	// The two orders genuinely differ (that is the Graphite interchange).
	a, b := residualOrder(false), residualOrder(true)
	if a == b {
		t.Fatal("interchange produced the same order")
	}
}
