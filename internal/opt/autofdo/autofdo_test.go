package autofdo

import (
	"testing"

	"repro/internal/trace"
)

func trainedCollector() *Collector {
	c := NewCollector()
	// SAD dominates, CAVLC second, deblock cold-ish.
	for i := 0; i < 1000; i++ {
		c.Ops(trace.FnSAD, 500)
		c.Load2D(trace.FnSAD, 0, 16, 16, 512)
	}
	for i := 0; i < 300; i++ {
		c.Ops(trace.FnCAVLC, 200)
		c.Branch(trace.FnCAVLC, 4, i%10 != 0) // 90% taken
		c.Branch(trace.FnCAVLC, 5, i%2 == 0)  // unbiased
	}
	c.Ops(trace.FnDeblock, 50)
	for i := 0; i < 10; i++ {
		c.Loop(trace.FnSAD, 7, 16) // backedge taken 150/160: biased
	}
	c.Call(trace.FnSAD)
	return c
}

func TestCollectorAccumulates(t *testing.T) {
	c := trainedCollector()
	p := c.Profile()
	if p.fnWeight[trace.FnSAD] <= p.fnWeight[trace.FnCAVLC] {
		t.Fatal("SAD should be hotter than CAVLC")
	}
	if p.fnWeight[trace.FnCAVLC] <= p.fnWeight[trace.FnDeblock] {
		t.Fatal("CAVLC should be hotter than deblock")
	}
	s := p.branches[key(trace.FnCAVLC, 4)]
	if s == nil || s.total != 300 || s.taken != 270 {
		t.Fatalf("branch stats %+v", s)
	}
}

func TestApplyOrdersHotFirstAndPacks(t *testing.T) {
	p := trainedCollector().Profile()
	base := trace.NewImage(nil)
	out := p.Apply(base, Options{})
	// SAD is the hottest function: placed first and packed.
	if out.Region(trace.FnSAD).Addr > out.Region(trace.FnCAVLC).Addr {
		t.Fatal("hottest function not first")
	}
	if !out.Region(trace.FnSAD).Packed {
		t.Fatal("hot function not packed")
	}
	// A function with zero samples is never packed.
	if out.Region(trace.FnMEESA).Packed {
		t.Fatal("cold function packed")
	}
	// The optimized image's hot prefix is denser than the original layout.
	if out.Size >= base.Size {
		t.Fatalf("optimized image %d not smaller than %d", out.Size, base.Size)
	}
	// Input image untouched.
	if base.Region(trace.FnSAD).Packed {
		t.Fatal("Apply mutated its input")
	}
}

func TestApplyCanonicalizesBiasedBranches(t *testing.T) {
	p := trainedCollector().Profile()
	out := p.Apply(trace.NewImage(nil), Options{})
	if !out.BranchCanonical(trace.FnCAVLC, 4) {
		t.Fatal("ninety-percent-taken branch not canonicalized")
	}
	if out.BranchCanonical(trace.FnCAVLC, 5) {
		t.Fatal("unbiased branch canonicalized")
	}
	// Loop backedges are heavily taken: canonicalized too.
	if !out.BranchCanonical(trace.FnSAD, 7) {
		t.Fatal("loop backedge not canonicalized")
	}
}

// TestApplyTwiceLeavesFirstImageAlone: re-optimizing an already optimized
// image with a second profile must not write the second profile's
// canonicalizations into the first image, or into a Clone of it.
func TestApplyTwiceLeavesFirstImageAlone(t *testing.T) {
	first := trainedCollector().Profile().Apply(trace.NewImage(nil), Options{})
	clone := first.Clone()
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.Branch(trace.FnCAVLC, 5, true) // the site the first profile saw as unbiased
		c.Branch(trace.FnDeblock, 2, true)
	}
	second := c.Profile().Apply(first, Options{})
	if !second.BranchCanonical(trace.FnCAVLC, 5) || !second.BranchCanonical(trace.FnDeblock, 2) {
		t.Fatal("second profile not applied")
	}
	if !second.BranchCanonical(trace.FnCAVLC, 4) {
		t.Fatal("second image lost the marks it inherited from the first")
	}
	for name, img := range map[string]*trace.Image{"input": first, "clone of input": clone} {
		if img.BranchCanonical(trace.FnCAVLC, 5) || img.BranchCanonical(trace.FnDeblock, 2) {
			t.Fatalf("second Apply canonicalized branches in its %s", name)
		}
		if !img.BranchCanonical(trace.FnCAVLC, 4) || !img.BranchCanonical(trace.FnSAD, 7) {
			t.Fatalf("%s lost its own canonical marks", name)
		}
	}
}

func TestMinSamplesGate(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ { // below the 64-sample default
		c.Branch(trace.FnSAD, 1, true)
	}
	out := c.Profile().Apply(trace.NewImage(nil), Options{})
	if out.BranchCanonical(trace.FnSAD, 1) {
		t.Fatal("under-sampled branch must not be canonicalized")
	}
}

func TestOptionsOverrides(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.Branch(trace.FnSAD, 1, i%4 != 0) // 75% taken
	}
	// Default threshold 0.85: not canonicalized.
	if c.Profile().Apply(trace.NewImage(nil), Options{}).BranchCanonical(trace.FnSAD, 1) {
		t.Fatal("75% bias should not pass the 0.85 default")
	}
	// Lowered threshold: canonicalized.
	out := c.Profile().Apply(trace.NewImage(nil), Options{BiasThreshold: 0.7, MinSamples: 10})
	if !out.BranchCanonical(trace.FnSAD, 1) {
		t.Fatal("explicit threshold ignored")
	}
}
