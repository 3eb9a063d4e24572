package perf

import (
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/uarch"
)

func sampleResult() *uarch.Result {
	m := uarch.NewMachine(uarch.Baseline(), trace.NewImage(nil))
	for i := 0; i < 400; i++ {
		m.Call(trace.FnAnalyse)
		m.Ops(trace.FnAnalyse, 250)
		m.Load2D(trace.FnSAD, 0x100000000+uint64(i*2048)%(1<<22), 16, 16, 512)
		m.Branch(trace.FnAnalyse, 1, i%3 == 0)
		m.Store2D(trace.FnIDCT, 0x300000000+uint64(i*1024)%(1<<20), 16, 4, 512)
		m.Loop(trace.FnSAD, 2, 4+i%9)
	}
	return m.Result()
}

func TestTopdownFractionsSumTo100(t *testing.T) {
	rep := FromResult(sampleResult(), 1)
	td := rep.Topdown
	sum := td.Retiring + td.FrontEnd + td.BadSpec + td.BackEnd
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("top-down sums to %f", sum)
	}
	if math.Abs(td.BackEnd-(td.MemBound+td.CoreBound)) > 1e-6 {
		t.Fatalf("back-end %f != mem %f + core %f", td.BackEnd, td.MemBound, td.CoreBound)
	}
	for _, v := range []float64{td.Retiring, td.FrontEnd, td.BadSpec, td.BackEnd} {
		if v < 0 || v > 100 {
			t.Fatalf("slot fraction out of range: %f", v)
		}
	}
}

func TestMPKIScaleFree(t *testing.T) {
	r := sampleResult()
	a := FromResult(r, 1)
	b := FromResult(r, 8)
	// Rates are scale-free; only seconds scale with the sample factor.
	if a.BranchMPKI != b.BranchMPKI || a.L1DMPKI != b.L1DMPKI {
		t.Fatal("MPKI must not depend on the sample factor")
	}
	if math.Abs(b.Seconds-8*a.Seconds) > 1e-12 {
		t.Fatalf("seconds scaling: %g vs %g", a.Seconds, b.Seconds)
	}
}

func TestMPKIDefinition(t *testing.T) {
	r := sampleResult()
	rep := FromResult(r, 1)
	want := float64(r.L1D.Misses) / r.Insts * 1000
	if math.Abs(rep.L1DMPKI-want) > 1e-9 {
		t.Fatalf("L1D MPKI %f != %f", rep.L1DMPKI, want)
	}
	if rep.StallAnyPKI != rep.StallROBPKI+rep.StallRSPKI+rep.StallSBPKI {
		t.Fatal("stall-any must be the sum of the components")
	}
}

func TestOperationalIntensity(t *testing.T) {
	rep := FromResult(sampleResult(), 1)
	if rep.DRAMBytes > 0 && rep.OperationalIntensity() <= 0 {
		t.Fatal("operational intensity must be positive with DRAM traffic")
	}
	empty := &Report{}
	if empty.OperationalIntensity() != 0 {
		t.Fatal("zero traffic must give zero intensity")
	}
}

func TestStringSummary(t *testing.T) {
	rep := FromResult(sampleResult(), 1)
	s := rep.String()
	for _, needle := range []string{"baseline", "ipc=", "ret=", "brMPKI="} {
		if !strings.Contains(s, needle) {
			t.Fatalf("summary %q missing %q", s, needle)
		}
	}
}

func TestEmptyResultIsSafe(t *testing.T) {
	m := uarch.NewMachine(uarch.Baseline(), trace.NewImage(nil))
	rep := FromResult(m.Result(), 1)
	if rep.IPC != 0 || rep.BranchMPKI != 0 {
		t.Fatal("empty run must produce zero rates, not NaN")
	}
	if math.IsNaN(rep.Topdown.Retiring) {
		t.Fatal("NaN in top-down of empty run")
	}
}

func TestDominantBottleneck(t *testing.T) {
	mk := func(fe, bs, mem, core float64) *Report {
		r := &Report{}
		r.Topdown = Topdown{FrontEnd: fe, BadSpec: bs, MemBound: mem, CoreBound: core, BackEnd: mem + core}
		return r
	}
	cases := []struct {
		r    *Report
		want Bottleneck
	}{
		{mk(30, 5, 10, 5), BottleneckFrontEnd},
		{mk(5, 30, 10, 5), BottleneckBadSpec},
		{mk(5, 5, 30, 10), BottleneckMemory},
		{mk(5, 5, 10, 30), BottleneckCore},
		{mk(4, 4, 4, 4), BottleneckNone},
	}
	for i, c := range cases {
		if got := c.r.DominantBottleneck(); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}
