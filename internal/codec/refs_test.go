package codec

import (
	"bytes"
	"reflect"
	"testing"
)

// TestRefsAboveReachEncodeIdentically is the property the sweep engine's
// point sharing rests on: for every preset and every clip length, Refs R
// and Refs min(R, ReachableRefs) give the same bitstream, statistics and
// recorded events, and ReachableRefs is tight — one reference fewer is a
// different encode whenever the clip reaches two or more.
func TestRefsAboveReachEncodeIdentically(t *testing.T) {
	clip := makeClip(t, "cricket", 20, 64)
	AssignBases(clip)
	maxReach := 0
	for _, p := range Presets {
		t.Run(string(p), func(t *testing.T) {
			opt := Defaults()
			if err := ApplyPreset(&opt, p); err != nil {
				t.Fatal(err)
			}
			// Some 3,000 encodes: a small search range (the slow presets'
			// exhaustive ±24 is 49² candidates per reference) and a coarse
			// crf keep them cheap, and neither decides which references a
			// frame has.
			opt.MERange = min(opt.MERange, 4)
			opt.CRF = 40
			for n := 1; n <= len(clip); n++ {
				frames := clip[:n]
				a, err := Analyze(frames, 30, opt)
				if err != nil {
					t.Fatal(err)
				}
				reach := a.ReachableRefs(opt)
				if reach < 1 || reach > dpbSize {
					t.Fatalf("%d frames: reach %d out of [1,%d]", n, reach, dpbSize)
				}
				maxReach = max(maxReach, reach)
				at := opt
				at.Refs = reach
				want, wantEvents, wantStats := encodeTraced(t, frames, at)
				for r := reach + 1; r <= dpbSize; r++ {
					above := opt
					above.Refs = r
					got, events, stats := encodeTraced(t, frames, above)
					if !bytes.Equal(got, want) || !bytes.Equal(events, wantEvents) || !reflect.DeepEqual(stats, wantStats) {
						t.Fatalf("%d frames: refs %d differs from refs %d, the reach", n, r, reach)
					}
				}
				if reach >= 2 {
					below := opt
					below.Refs = reach - 1
					if got, _, _ := encodeTraced(t, frames, below); bytes.Equal(got, want) {
						t.Fatalf("%d frames: refs %d encodes like refs %d, so the reach is not tight", n, reach-1, reach)
					}
				}
			}
		})
	}
	if maxReach < 2 {
		t.Fatalf("no preset and length reached two references; the tightness check never ran")
	}
}
