package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/uarch"
)

// TestSegmentsFor pins the segment plan against the workload's normalized
// clip length (defaulted frame counts included).
func TestSegmentsFor(t *testing.T) {
	segs, err := SegmentsFor(Workload{Video: "cricket", Frames: 10, Scale: 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []codec.Segment{{Start: 0, End: 4}, {Start: 4, End: 7}, {Start: 7, End: 10}}
	if !reflect.DeepEqual(segs, want) {
		t.Fatalf("SegmentsFor = %v, want %v", segs, want)
	}
	// Frames 0 normalizes to the 16-frame default before splitting.
	segs, err = SegmentsFor(Workload{Video: "cricket", Scale: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[1].End != 16 {
		t.Fatalf("defaulted SegmentsFor = %v, want two segments over 16 frames", segs)
	}
	if _, err := SegmentsFor(Workload{Video: "no-such-video"}, 2); err == nil {
		t.Fatal("want error for unknown video")
	}
}

// TestSegmentRunEquivalence is the core-level fidelity guarantee for
// segment jobs: a per-segment Run through the cached decode + shared
// analysis fast path produces a profile and stats bit-for-bit identical to
// the reference transcode of the same segment.
func TestSegmentRunEquivalence(t *testing.T) {
	w := tinyWorkload("cricket")
	segs, err := SegmentsFor(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		got := requireReference(t, Job{Workload: w, Options: codec.Defaults(), Config: uarch.Baseline(), Segment: seg})
		if n := len(got.Stats.Frames); n != seg.Len() {
			t.Fatalf("seg %v: stats cover %d frames, want %d", seg, n, seg.Len())
		}
	}
}

// TestSegmentStatsStitch checks that per-segment core runs compose: the
// stitched per-segment stats equal the stats of a serial segmented encode
// of the same plan (codec.EncodeSegments over the same decoded frames).
func TestSegmentStatsStitch(t *testing.T) {
	w := tinyWorkload("desktop")
	opt := codec.Defaults()
	segs, err := SegmentsFor(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*codec.Stats, len(segs))
	for i, seg := range segs {
		res, err := Run(context.Background(), Job{Workload: w, Options: opt, Config: uarch.Baseline(), Segment: seg})
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = res.Stats
	}
	got, err := codec.StitchStats(parts)
	if err != nil {
		t.Fatal(err)
	}

	frames, _, err := DecodedMezzanine(context.Background(), w, decoderOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := codec.EncodeSegments(frames, 30, opt, nil, len(segs))
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalBits != want.TotalBits || got.AveragePSNR != want.AveragePSNR ||
		len(got.Frames) != len(want.Frames) {
		t.Fatalf("stitched per-job stats diverge from serial segmented encode:\ngot  bits=%d psnr=%.4f frames=%d\nwant bits=%d psnr=%.4f frames=%d",
			got.TotalBits, got.AveragePSNR, len(got.Frames),
			want.TotalBits, want.AveragePSNR, len(want.Frames))
	}
}

// TestSegmentRejectsBadRange pins validation: out-of-range segments fail
// instead of silently clamping.
func TestSegmentRejectsBadRange(t *testing.T) {
	w := tinyWorkload("cricket")
	for _, seg := range []codec.Segment{{Start: 4, End: 2}, {Start: 0, End: 99}, {Start: -1, End: 3}} {
		if _, err := Run(context.Background(), Job{Workload: w, Options: codec.Defaults(), Config: uarch.Baseline(), Segment: seg}); err == nil {
			t.Fatalf("segment %v: want error", seg)
		}
	}
}
