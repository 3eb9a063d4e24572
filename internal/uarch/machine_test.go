package uarch

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func newTestMachine(cfg Config) *Machine {
	return NewMachine(cfg, trace.NewImage(nil))
}

func TestTableIVMatchesPaper(t *testing.T) {
	configs := TableIV()
	if len(configs) != 5 {
		t.Fatalf("%d configs, Table IV lists 5", len(configs))
	}
	base := configs[0]
	if base.Name != "baseline" || base.L1D.Size != 32<<10 || base.L2.Size != 256<<10 ||
		base.L3.Size != 8192<<10 || base.L4 != nil || base.ITLBEntries != 128 ||
		base.ROBSize != 128 || base.RSSize != 36 || base.IssueAtDispatch ||
		base.Predictor != "pentium_m" {
		t.Fatalf("baseline mismatch: %+v", base)
	}
	fe, _ := ByName("fe_op")
	if fe.L1I.Size != 64<<10 || fe.ITLBEntries != 256 || fe.L1D.Size != 32<<10 {
		t.Fatalf("fe_op mismatch: %+v", fe)
	}
	be1, _ := ByName("be_op1")
	if be1.L1D.Size != 64<<10 || be1.L2.Size != 512<<10 || be1.L3.Size != 4096<<10 ||
		be1.L4 == nil || be1.L4.Size != 16384<<10 {
		t.Fatalf("be_op1 mismatch: %+v", be1)
	}
	be2, _ := ByName("be_op2")
	if be2.ROBSize != 256 || be2.RSSize != 72 || !be2.IssueAtDispatch {
		t.Fatalf("be_op2 mismatch: %+v", be2)
	}
	bs, _ := ByName("bs_op")
	if bs.Predictor != "tage" {
		t.Fatalf("bs_op mismatch: %+v", bs)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown config resolved")
	}
}

func TestOpsAccumulateInstructionsAndCycles(t *testing.T) {
	m := newTestMachine(Baseline())
	m.Ops(trace.FnSAD, 4000)
	r := m.Result()
	if r.Insts != 4000 {
		t.Fatalf("insts %f", r.Insts)
	}
	if r.BaseCycles != 1000 {
		t.Fatalf("base cycles %f (width 4)", r.BaseCycles)
	}
	if r.Cycles() < r.BaseCycles {
		t.Fatal("total cycles below base")
	}
}

func TestLoadsDriveCacheHierarchy(t *testing.T) {
	m := newTestMachine(Baseline())
	// Stream 1 MB of reads: far beyond L1/L2, within L3.
	for a := uint64(0); a < 1<<20; a += 64 {
		m.Load(trace.FnSAD, 0x100000000+a, 64)
	}
	r := m.Result()
	if r.L1D.Misses == 0 || r.L2.Misses == 0 {
		t.Fatalf("streaming loads produced no misses: %+v %+v", r.L1D, r.L2)
	}
	if r.MemCycles == 0 {
		t.Fatal("no memory stall cycles charged")
	}
	// Re-streaming the same megabyte hits L3 (it fits), so L3 misses stop
	// growing while L1 misses continue.
	l3Before := r.L3.Misses
	for a := uint64(0); a < 1<<20; a += 64 {
		m.Load(trace.FnSAD, 0x100000000+a, 64)
	}
	r2 := m.Result()
	if r2.L3.Misses != l3Before {
		t.Fatalf("second sweep should hit L3: %d -> %d", l3Before, r2.L3.Misses)
	}
}

func TestLoad2DTouchesRows(t *testing.T) {
	m := newTestMachine(Baseline())
	m.Load2D(trace.FnSAD, 0x100000000, 16, 16, 512)
	r := m.Result()
	// 16 rows, 512-byte stride: every row is a distinct line -> >= 16 loads.
	if r.Loads < 16 {
		t.Fatalf("loads %f", r.Loads)
	}
}

func TestBiggerL1DReducesMisses(t *testing.T) {
	run := func(cfg Config) uint64 {
		m := newTestMachine(cfg)
		// Working set of 48 KB: misses in 32 KB, fits in 64 KB.
		for pass := 0; pass < 20; pass++ {
			for a := uint64(0); a < 48<<10; a += 64 {
				m.Load(trace.FnSAD, 0x100000000+a, 8)
			}
		}
		return m.Result().L1D.Misses
	}
	if small, big := run(Baseline()), run(BeOp1()); big*4 > small {
		t.Fatalf("be_op1 L1d misses %d not << baseline %d", big, small)
	}
}

func TestBiggerL1IReducesFetchStalls(t *testing.T) {
	run := func(cfg Config) float64 {
		m := newTestMachine(cfg)
		// Alternate among many functions so the unpacked hot set exceeds
		// 32 KB but fits in 64 KB.
		fns := []trace.FuncID{trace.FnSAD, trace.FnSATD, trace.FnMEUMH, trace.FnSubpel,
			trace.FnInterp, trace.FnIntraPred, trace.FnAnalyse, trace.FnCAVLC,
			trace.FnDeblock, trace.FnTrellis, trace.FnLookahead, trace.FnDecParse}
		for i := 0; i < 3000; i++ {
			fn := fns[i%len(fns)]
			m.Call(fn)
			m.Ops(fn, 300)
		}
		return m.Result().FECycles
	}
	base, fe := run(Baseline()), run(FeOp())
	if fe >= base {
		t.Fatalf("fe_op fetch cycles %f not below baseline %f", fe, base)
	}
}

func TestTAGEConfigReducesMispredicts(t *testing.T) {
	run := func(cfg Config) float64 {
		m := newTestMachine(cfg)
		// Period-300 pattern on one site (see branch tests).
		for i := 0; i < 30000; i++ {
			m.Branch(trace.FnCAVLC, 5, (i*i+i/7)%300 < 150 && i%300 < 170)
		}
		return m.Result().Mispredicts
	}
	base, bs := run(Baseline()), run(BsOp())
	if bs >= base {
		t.Fatalf("bs_op mispredicts %f not below baseline %f", bs, base)
	}
}

func TestBiggerROBReducesROBStalls(t *testing.T) {
	run := func(cfg Config) float64 {
		m := newTestMachine(cfg)
		// Sparse long-latency misses: each hits memory.
		for i := uint64(0); i < 2000; i++ {
			m.Ops(trace.FnSAD, 200)
			m.Load(trace.FnSAD, 0x100000000+i*1<<14, 8)
		}
		return m.Result().ROBStall
	}
	base, be2 := run(Baseline()), run(BeOp2())
	if be2 >= base {
		t.Fatalf("be_op2 ROB stalls %f not below baseline %f", be2, base)
	}
}

func TestStoreBufferStallsOnBursts(t *testing.T) {
	m := newTestMachine(Baseline())
	// A dense burst of store misses with no intervening instructions.
	for i := uint64(0); i < 3000; i++ {
		m.Store(trace.FnBitWriter, 0x200000000+i*4096, 8)
	}
	r := m.Result()
	if r.SBStall == 0 {
		t.Fatal("store burst should fill the store buffer")
	}
	// Interleaving computation drains the buffer: fewer stalls per store.
	m2 := newTestMachine(Baseline())
	for i := uint64(0); i < 3000; i++ {
		m2.Ops(trace.FnSAD, 400)
		m2.Store(trace.FnBitWriter, 0x200000000+i*4096, 8)
	}
	if m2.Result().SBStall >= r.SBStall {
		t.Fatal("interleaved compute should drain the store buffer")
	}
}

func TestLoopEventCounts(t *testing.T) {
	m := newTestMachine(Baseline())
	m.Loop(trace.FnSAD, 7, 10)
	r := m.Result()
	if r.Insts != 10 || r.Branches != 10 || r.TakenBr != 9 {
		t.Fatalf("loop accounting: insts=%f branches=%f taken=%f", r.Insts, r.Branches, r.TakenBr)
	}
	m.Loop(trace.FnSAD, 7, 0) // degenerate: ignored
	if m.Result().Insts != 10 {
		t.Fatal("zero-iteration loop should be ignored")
	}
}

func TestTopdownComponentsSumToCycles(t *testing.T) {
	m := newTestMachine(Baseline())
	for i := 0; i < 500; i++ {
		m.Call(trace.FnAnalyse)
		m.Ops(trace.FnAnalyse, 100)
		m.Load2D(trace.FnSAD, 0x100000000+uint64(i*997)%(1<<22), 16, 16, 512)
		m.Branch(trace.FnAnalyse, 1, i%3 == 0)
		m.Loop(trace.FnSAD, 2, 5+i%7)
		m.Store2D(trace.FnIDCT, 0x300000000+uint64(i*4096)%(1<<21), 16, 4, 512)
	}
	r := m.Result()
	sum := r.BaseCycles + r.FECycles + r.BSCycles + r.MemCycles + r.CoreCycles
	if math.Abs(sum-r.Cycles()) > 1e-6 {
		t.Fatalf("cycle components %f != total %f", sum, r.Cycles())
	}
	if r.IPC() <= 0 || r.IPC() > float64(r.WidthUops) {
		t.Fatalf("IPC %f out of range", r.IPC())
	}
}

func TestSecondsScalesWithSampleFactor(t *testing.T) {
	m := newTestMachine(Baseline())
	m.Ops(trace.FnSAD, 100000)
	r := m.Result()
	if s1, s4 := r.Seconds(1), r.Seconds(4); math.Abs(s4-4*s1) > 1e-12 {
		t.Fatalf("sample scaling wrong: %g vs %g", s1, s4)
	}
}

func TestResultAdd(t *testing.T) {
	a := newTestMachine(Baseline())
	b := newTestMachine(Baseline())
	a.Ops(trace.FnSAD, 100)
	b.Ops(trace.FnSATD, 200)
	b.Load(trace.FnSATD, 0x100000000, 64)
	ra, rb := a.Result(), b.Result()
	total := ra.Insts + rb.Insts
	ra.Add(rb)
	if ra.Insts != total {
		t.Fatalf("Add insts %f != %f", ra.Insts, total)
	}
	if ra.L1D.Accesses != rb.L1D.Accesses {
		t.Fatal("Add lost cache stats")
	}
}

func TestDRAMBytes(t *testing.T) {
	m := newTestMachine(Baseline())
	for a := uint64(0); a < 1<<21; a += 64 {
		m.Load(trace.FnSAD, 0x100000000+a, 8)
	}
	r := m.Result()
	want := float64(r.L3.Misses) * 64
	if r.DRAMBytes() != want {
		t.Fatalf("DRAM bytes %f != %f", r.DRAMBytes(), want)
	}
}

func TestCanonicalBranchRemovesTakenBubble(t *testing.T) {
	img := trace.NewImage(nil)
	// Mark the site canonical and pack the function (FDO applies both).
	img = img.Relayout(nil, map[trace.FuncID]bool{trace.FnCAVLC: true})
	img.SetCanonical(trace.FnCAVLC, 9)
	mPlain := NewMachine(Baseline(), trace.NewImage(nil))
	mOpt := NewMachine(Baseline(), img)
	for i := 0; i < 10000; i++ {
		mPlain.Branch(trace.FnCAVLC, 9, true) // biased taken
		mOpt.Branch(trace.FnCAVLC, 9, true)
	}
	if mOpt.Result().FECycles >= mPlain.Result().FECycles {
		t.Fatal("canonicalized taken branches should cost fewer fetch bubbles")
	}
	// Prediction accuracy itself is unchanged.
	if mOpt.Result().Mispredicts != mPlain.Result().Mispredicts {
		t.Fatal("canonicalization must not change predictability")
	}
}

// BenchmarkMachineLoad2D prices one block read through the data hierarchy
// and the fetch walk: /hit re-reads one resident 17x17 block, the sub-pel
// cost function's pattern (every row an L1d hit and, after the first, a
// fetch from the previous row's line); /cold strides 16x16 blocks over
// 256 KiB so rows miss the L1d.
func BenchmarkMachineLoad2D(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		m := newTestMachine(Baseline())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Load2D(trace.FnInterp, 0x100000000, 17, 17, 384)
		}
	})
	b.Run("cold", func(b *testing.B) {
		m := newTestMachine(Baseline())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Load2D(trace.FnSAD, 0x100000000+uint64(i%4096)*64, 16, 16, 512)
		}
	})
}

func TestNextLinePrefetcherHidesStreamingMisses(t *testing.T) {
	run := func(cfg Config) (float64, uint64) {
		m := newTestMachine(cfg)
		for a := uint64(0); a < 1<<20; a += 64 {
			m.Load(trace.FnSAD, 0x100000000+a, 8)
		}
		r := m.Result()
		return r.MemCycles, r.L1D.Misses
	}
	baseCycles, _ := run(Baseline())
	pfCycles, _ := run(PfOp())
	if pfCycles >= baseCycles/2 {
		t.Fatalf("prefetcher barely helped a pure stream: %f vs %f", pfCycles, baseCycles)
	}
	// Random access defeats the stream detector.
	rnd := func(cfg Config) float64 {
		m := newTestMachine(cfg)
		a := uint64(0x100000000)
		for i := 0; i < 16384; i++ {
			a = a*6364136223846793005 + 1442695040888963407
			m.Load(trace.FnSAD, 0x100000000+(a%(1<<24))&^63, 8)
		}
		return m.Result().MemCycles
	}
	if rnd(PfOp()) < rnd(Baseline())*0.9 {
		t.Fatal("prefetcher should not help random access")
	}
}

func TestExtendedConfigs(t *testing.T) {
	if len(Extended()) != 6 {
		t.Fatalf("%d extended configs", len(Extended()))
	}
	pf, ok := ByName("pf_op")
	if !ok || !pf.NextLinePrefetch {
		t.Fatal("pf_op missing or misconfigured")
	}
	for _, c := range TableIV() {
		if c.NextLinePrefetch {
			t.Fatalf("%s: Table IV configs must not enable the prefetcher", c.Name)
		}
	}
}
