package uarch

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestFetchFootprintPackedVsUnpacked: the same instruction stream touches
// about half the i-cache lines once FDO packs the hot blocks.
func TestFetchFootprintPackedVsUnpacked(t *testing.T) {
	run := func(packed bool) uint64 {
		img := trace.NewImage(nil)
		if packed {
			img = img.Relayout(nil, map[trace.FuncID]bool{trace.FnAnalyse: true})
		}
		m := NewMachine(Baseline(), img)
		m.Ops(trace.FnAnalyse, 100000) // long stream in one function
		return m.Result().L1I.Accesses
	}
	unpacked, packed := run(false), run(true)
	if packed >= unpacked {
		t.Fatalf("packed fetch accesses %d not below unpacked %d", packed, unpacked)
	}
	// The dilution factor is ~2x for a function with cold tails.
	if packed*3 < unpacked {
		t.Fatalf("dilution implausibly high: %d vs %d", unpacked, packed)
	}
}

// TestFetchStaysWithinRegion: the walked line addresses never leave the
// function's region.
func TestFetchStaysWithinRegion(t *testing.T) {
	img := trace.NewImage(nil)
	m := NewMachine(Baseline(), img)
	r := img.Region(trace.FnSAD)
	m.Ops(trace.FnSAD, 1<<16) // far more than the span: must wrap
	// Indirect check: a second, far-away function remains cold in the TLB
	// until first touched.
	itlbBefore := m.Result().ITLB.Misses
	m.Call(trace.FnDecParse)
	if m.Result().ITLB.Misses <= itlbBefore && r.Addr>>12 != img.Region(trace.FnDecParse).Addr>>12 {
		t.Fatal("touching a new page did not reach the iTLB")
	}
}

// TestHotLoopStaysCacheResident: a single hot function's loop re-executed
// many times misses only on first touch.
func TestHotLoopStaysCacheResident(t *testing.T) {
	m := newTestMachine(Baseline())
	for i := 0; i < 1000; i++ {
		m.Ops(trace.FnSAD, 64)
	}
	r := m.Result()
	// Hot span of pixel_sad is ~512B unpacked = 8 lines; everything after
	// warmup must hit.
	if r.L1I.Misses > 16 {
		t.Fatalf("hot loop missed %d times", r.L1I.Misses)
	}
}

// TestManyFunctionsThrashSmallL1I: alternating across the whole hot set
// exceeds 32K and misses, while 64K (fe_op) captures it.
func TestManyFunctionsThrashSmallL1I(t *testing.T) {
	run := func(cfg Config) float64 {
		m := newTestMachine(cfg)
		fns := []trace.FuncID{}
		for f := trace.FuncID(1); f < trace.NumFuncs; f++ {
			fns = append(fns, f)
		}
		for i := 0; i < 4000; i++ {
			fn := fns[i%len(fns)]
			m.Call(fn)
			m.Ops(fn, 200)
		}
		r := m.Result()
		return float64(r.L1I.Misses) / float64(r.L1I.Accesses)
	}
	base, fe := run(Baseline()), run(FeOp())
	if base < 0.001 {
		t.Fatalf("full hot set should stress a 32K L1i (miss rate %f)", base)
	}
	if fe >= base {
		t.Fatalf("fe_op miss rate %f not below baseline %f", fe, base)
	}
}

// TestITLBCapacityEffect: touching more pages than the iTLB holds causes
// walks; fe_op's doubled iTLB absorbs more.
func TestITLBCapacityEffect(t *testing.T) {
	// The default image spans ~40 pages, well inside 128 entries; exercise
	// capacity by aliasing many synthetic regions through repeated
	// icache-visible calls at page granularity via data-independent calls.
	m := newTestMachine(Baseline())
	for f := trace.FuncID(1); f < trace.NumFuncs; f++ {
		m.Call(f)
	}
	r := m.Result()
	if r.ITLB.Misses == 0 {
		t.Fatal("first touches must miss the iTLB")
	}
	if r.ITLB.Misses > r.ITLB.Accesses {
		t.Fatal("more misses than accesses")
	}
}

// TestMachinesShareFetchTables: machines built from equal code layouts in
// separately allocated images hold one fetch table, whichever of several concurrent builders got there first
// (scripts/ci.sh runs this under -race); another layout gets its own, and
// each table is the one its image builds.
func TestMachinesShareFetchTables(t *testing.T) {
	fdo := func() *trace.Image {
		return trace.NewImage(nil).Relayout([]trace.FuncID{trace.FnSATD, trace.FnSAD}, map[trace.FuncID]bool{trace.FnSATD: true})
	}
	const builders = 8
	var wg sync.WaitGroup
	machines := make([][2]*Machine, builders)
	for i := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			machines[i] = [2]*Machine{NewMachine(Baseline(), trace.NewImage(nil)), NewMachine(FeOp(), fdo())}
		}()
	}
	wg.Wait()
	for layout, img := range []*trace.Image{trace.NewImage(nil), fdo()} {
		want := machines[0][layout].fmeta
		if !reflect.DeepEqual(want, buildFetchMeta(img)) {
			t.Errorf("layout %d: the shared fetch table is not the one its image builds", layout)
		}
		for i, ms := range machines {
			if ms[layout].fmeta != want {
				t.Errorf("layout %d: machine %d holds its own fetch table", layout, i)
			}
		}
	}
	if machines[0][0].fmeta == machines[0][1].fmeta {
		t.Error("two layouts share one fetch table")
	}
}
