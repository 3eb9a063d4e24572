package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/codec"
	"repro/internal/uarch"
)

// The accelerator execution path (EncodeOnly, no uarch sink) must produce
// the byte-identical bitstream of the simulated software path for any
// options both backends accept — that is what keeps segment stitching safe
// on a mixed fleet.
func TestEncodeOnlyMatchesRun(t *testing.T) {
	w := Workload{Video: "bbb", Frames: 6, Scale: 16}
	opt := codec.Defaults()
	if err := codec.ApplyPreset(&opt, codec.PresetVeryfast); err != nil {
		t.Fatal(err)
	}
	opt.CRF = 28
	opt.Refs = 2

	seg := codec.Segment{Start: 2, End: 5}
	soft, err := Run(context.Background(), Job{
		Workload: w, Options: opt, Config: uarch.Baseline(),
		Segment: seg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(soft.Stream) == 0 {
		t.Fatal("Run returned no bitstream")
	}
	accel, err := EncodeOnly(context.Background(), Job{
		Workload: w, Options: opt, Segment: seg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(soft.Stream, accel.Stream) {
		t.Fatalf("bitstreams differ: software %d bytes, encode-only %d bytes",
			len(soft.Stream), len(accel.Stream))
	}
	if accel.Stats == nil || accel.Stats.Frames == nil || len(accel.Stats.Frames) != 3 {
		t.Fatalf("encode-only stats: %+v", accel.Stats)
	}
	if accel.Report != nil {
		t.Fatal("encode-only run should carry no uarch profile")
	}
}

func TestProxyDims(t *testing.T) {
	wpx, hpx, frames, err := ProxyDims(Workload{Video: "bbb", Frames: 4, Scale: 16})
	if err != nil {
		t.Fatal(err)
	}
	// 1920/16 = 120 → 128 after macroblock rounding; 1080/16 = 67 → 80.
	if wpx != 128 || hpx != 80 || frames != 4 {
		t.Fatalf("ProxyDims = %d×%d ×%d frames", wpx, hpx, frames)
	}
	if _, _, _, err := ProxyDims(Workload{Video: "no-such-video"}); err == nil {
		t.Fatal("unknown video accepted")
	}
}
