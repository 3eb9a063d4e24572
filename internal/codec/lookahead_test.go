package codec

import "testing"

// syntheticCosts fabricates lookahead costs for unit-testing the type
// decision without running pixel analysis.
func syntheticCosts(n int, intra, fwd func(i int) int) *lookaheadCosts {
	lc := &lookaheadCosts{intra: make([]int, n), fwd: make([]int, n), bwd: make([]int, n)}
	for i := 0; i < n; i++ {
		lc.intra[i] = intra(i)
		lc.fwd[i] = fwd(i)
		lc.bwd[i] = fwd(i)
	}
	return lc
}

// typeOptions returns the default options with mutate applied.
func typeOptions(mutate func(*Options)) *Options {
	opt := Defaults()
	if mutate != nil {
		mutate(&opt)
	}
	return &opt
}

func TestDecideTypesFirstFrameIsI(t *testing.T) {
	opt := typeOptions(nil)
	lc := syntheticCosts(5, func(int) int { return 1000 }, func(int) int { return 100 })
	types := decideTypes(opt, lc)
	if types[0] != FrameI {
		t.Fatal("first frame must be I")
	}
}

func TestDecideTypesSceneCut(t *testing.T) {
	opt := typeOptions(func(o *Options) { o.BFrames = 0 })
	// Frame 3 has inter cost equal to intra cost: a hard cut.
	lc := syntheticCosts(6, func(int) int { return 1000 }, func(i int) int {
		if i == 3 {
			return 1000
		}
		return 150
	})
	types := decideTypes(opt, lc)
	if types[3] != FrameI {
		t.Fatalf("cut frame typed %v", types[3])
	}
	if types[2] != FrameP || types[4] != FrameP {
		t.Fatalf("neighbours of the cut mis-typed: %v", types)
	}
}

func TestDecideTypesScenecutDisabled(t *testing.T) {
	opt := typeOptions(func(o *Options) { o.Scenecut = 0; o.BFrames = 0 })
	lc := syntheticCosts(6, func(int) int { return 1000 }, func(i int) int { return 1000 })
	types := decideTypes(opt, lc)
	for i := 1; i < 6; i++ {
		if types[i] != FrameP {
			t.Fatalf("scenecut disabled but frame %d is %v", i, types[i])
		}
	}
}

func TestDecideTypesKeyint(t *testing.T) {
	opt := typeOptions(func(o *Options) { o.Scenecut = 0; o.BFrames = 0; o.KeyintMax = 4 })
	lc := syntheticCosts(10, func(int) int { return 1000 }, func(int) int { return 100 })
	types := decideTypes(opt, lc)
	for _, i := range []int{0, 4, 8} {
		if types[i] != FrameI {
			t.Fatalf("keyint 4: frame %d is %v (%v)", i, types[i], types)
		}
	}
}

func TestDecideTypesBAdaptive(t *testing.T) {
	// Low-motion frames become B under b-adapt 1; high-motion do not.
	opt := typeOptions(func(o *Options) { o.BFrames = 3; o.BAdapt = 1 })
	lc := syntheticCosts(8, func(int) int { return 1000 }, func(i int) int {
		if i == 4 {
			return 900 // high motion: stays P
		}
		return 100 // low motion: B-eligible
	})
	types := decideTypes(opt, lc)
	if types[4] != FrameP && types[4] != FrameI {
		t.Fatalf("high-motion frame typed %v", types[4])
	}
	bCount := 0
	for _, ft := range types {
		if ft == FrameB {
			bCount++
		}
	}
	if bCount == 0 {
		t.Fatalf("no B frames assigned: %v", types)
	}
}

func TestDecideTypesBRunBounded(t *testing.T) {
	opt := typeOptions(func(o *Options) { o.BFrames = 2; o.BAdapt = 0; o.Scenecut = 0 })
	lc := syntheticCosts(12, func(int) int { return 1000 }, func(int) int { return 10 })
	types := decideTypes(opt, lc)
	run := 0
	for _, ft := range types {
		if ft == FrameB {
			run++
			if run > 2 {
				t.Fatalf("B run exceeds limit: %v", types)
			}
		} else {
			run = 0
		}
	}
	// The final frame must not be B (no closing anchor).
	if types[len(types)-1] == FrameB {
		t.Fatalf("trailing B frame: %v", types)
	}
}

func TestDecideTypesFrameBeforeIStaysP(t *testing.T) {
	opt := typeOptions(func(o *Options) { o.BFrames = 3; o.BAdapt = 0; o.KeyintMax = 5; o.Scenecut = 0 })
	lc := syntheticCosts(10, func(int) int { return 1000 }, func(int) int { return 10 })
	types := decideTypes(opt, lc)
	for i := 1; i < len(types); i++ {
		if types[i] == FrameI && types[i-1] == FrameB {
			t.Fatalf("B frame immediately before I at %d: %v", i, types)
		}
	}
}

func TestRunLookaheadProducesOrderedCosts(t *testing.T) {
	// Real frames: a static pair and a scene-cut pair give very different
	// forward costs.
	clip := makeClip(t, "desktop", 4, 8)
	enc := newTypeEncoderDims(t, clip[0].Width, clip[0].Height)
	lc := enc.runLookahead(clip)
	if len(lc.intra) != 4 || len(lc.fwd) != 4 {
		t.Fatal("cost arrays sized wrong")
	}
	if lc.fwd[0] != lc.intra[0] {
		t.Fatal("frame 0 fwd must equal intra (no reference)")
	}
	for i := 1; i < 4; i++ {
		// Static screen content: inter must be far cheaper than intra.
		if lc.fwd[i] >= lc.intra[i] {
			t.Fatalf("frame %d: static content fwd %d >= intra %d", i, lc.fwd[i], lc.intra[i])
		}
	}
}

func newTypeEncoderDims(t *testing.T, w, h int) *Encoder {
	t.Helper()
	enc, err := NewEncoder(w, h, 30, Defaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}
