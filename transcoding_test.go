package transcoding

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/opt/autofdo"
	"repro/internal/sched"
)

func testWorkload(video string) Workload {
	return Workload{Video: video, Frames: 8, Scale: 8}
}

func TestVideosCatalog(t *testing.T) {
	if len(Videos()) != 15 {
		t.Fatalf("catalog size %d", len(Videos()))
	}
	v, err := VideoByName("chicken")
	if err != nil || v.Height != 2160 {
		t.Fatalf("chicken lookup: %v %+v", err, v)
	}
	if _, err := VideoByName("missing"); err == nil {
		t.Fatal("unknown video accepted")
	}
}

func TestSynthesizeEncodeDecodeTranscode(t *testing.T) {
	frames, err := Synthesize("girl", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 8 || frames[0].Width%16 != 0 {
		t.Fatalf("synthesis shape: %d frames %dx%d", len(frames), frames[0].Width, frames[0].Height)
	}
	opt := DefaultOptions()
	stream, stats, err := Encode(frames, 30, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BitrateKbps() <= 0 {
		t.Fatal("no bitrate")
	}
	decoded, info, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if info.Width != frames[0].Width || len(decoded) != 8 {
		t.Fatalf("decode shape: %+v, %d frames", info, len(decoded))
	}
	// Decoded output equals the encoder's reconstruction.
	if got := PSNR(frames[0], decoded[0]); math.Abs(got-stats.Frames[0].PSNR) > 1e-9 {
		t.Fatalf("decoder PSNR %.6f != encoder %.6f", got, stats.Frames[0].PSNR)
	}
	// Transcoding to a coarser setting shrinks the stream.
	small := DefaultOptions()
	small.CRF = 40
	stream2, _, err := Transcode(stream, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream2) >= len(stream) {
		t.Fatalf("crf 40 transcode (%d B) not smaller than crf 23 original (%d B)",
			len(stream2), len(stream))
	}
	if _, _, err := Encode(nil, 30, opt); err == nil {
		t.Fatal("empty encode accepted")
	}
}

func TestProfileFacade(t *testing.T) {
	rep, stats, err := Profile(context.Background(), Job{
		Workload: testWorkload("bike"),
		Options:  DefaultOptions(),
		Config:   BaselineConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seconds <= 0 || stats.TotalBits <= 0 {
		t.Fatal("degenerate profile")
	}
	td := rep.Topdown
	if s := td.Retiring + td.FrontEnd + td.BadSpec + td.BackEnd; s < 99.9 || s > 100.1 {
		t.Fatalf("top-down sum %f", s)
	}
}

func TestConfigsFacade(t *testing.T) {
	if len(Configs()) != 5 {
		t.Fatalf("%d configs", len(Configs()))
	}
	if _, ok := ConfigByName("be_op1"); !ok {
		t.Fatal("be_op1 missing")
	}
	if _, ok := ConfigByName("zz"); ok {
		t.Fatal("bogus config resolved")
	}
}

func TestTrainAutoFDOProducesFasterImage(t *testing.T) {
	w := testWorkload("desktop")
	opt := DefaultOptions()
	img, err := TrainAutoFDO(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := Profile(context.Background(), Job{Workload: w, Options: opt, Config: BaselineConfig()})
	if err != nil {
		t.Fatal(err)
	}
	fdo, _, err := Profile(context.Background(), Job{Workload: w, Options: opt, Config: BaselineConfig(), Image: img})
	if err != nil {
		t.Fatal(err)
	}
	if fdo.Seconds >= base.Seconds {
		t.Fatalf("AutoFDO (%.5fs) not faster than baseline (%.5fs)", fdo.Seconds, base.Seconds)
	}
	if fdo.L1IMPKI >= base.L1IMPKI {
		t.Fatalf("AutoFDO L1i MPKI %.3f not below %.3f", fdo.L1IMPKI, base.L1IMPKI)
	}
}

// TestTrainAutoFDOTrainsOnTheMezzanine pins the facade to the job it
// optimizes: at auto scale it trains on the workload's decoded mezzanine,
// the stream Profile transcodes, exactly as cmd/paper's Figure 8 does.
func TestTrainAutoFDOTrainsOnTheMezzanine(t *testing.T) {
	w := Workload{Video: "desktop", Frames: 4}
	opt := DefaultOptions()
	got, err := TrainAutoFDO(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := core.Mezzanine(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := autofdo.Train(stream, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("TrainAutoFDO's image differs from the one trained on the workload's mezzanine")
	}
}

func TestGraphiteTuningFacade(t *testing.T) {
	tn := GraphiteTuning(AllGraphiteFlags())
	if !tn.FuseDeblock || !tn.InterchangeResidual || !tn.DistributeLookahead {
		t.Fatalf("tuning %+v", tn)
	}
}

func TestSweepFacades(t *testing.T) {
	w := testWorkload("cat")
	pts := SweepCRFRefs(context.Background(), w, DefaultOptions(), BaselineConfig(), []int{20, 40}, []int{1})
	if len(pts) != 2 || pts[0].Err != nil || pts[1].Err != nil {
		t.Fatalf("crf sweep: %+v", pts)
	}
	if pts[1].Report.Seconds >= pts[0].Report.Seconds {
		t.Fatal("crf 40 should transcode faster than crf 20")
	}
	pp := SweepPresets(context.Background(), w, BaselineConfig(), []Preset{"ultrafast"}, 23, 3)
	if len(pp) != 1 || pp[0].Err != nil {
		t.Fatalf("preset sweep: %+v", pp)
	}
	vv := SweepVideos(context.Background(), []string{"cat"}, 8, 8, DefaultOptions(), BaselineConfig())
	if len(vv) != 1 || vv[0].Err != nil {
		t.Fatalf("video sweep: %+v", vv)
	}
}

func TestSchedulerFacade(t *testing.T) {
	tasks := SchedulerTasks()
	if len(tasks) != 4 {
		t.Fatalf("%d tasks", len(tasks))
	}
	// A reduced matrix keeps this integration test fast; the one-to-one
	// constraint needs at least as many optimized configs as tasks.
	configs := []Config{BaselineConfig(), Configs()[2], Configs()[3]}
	m, err := MeasureScheduling(context.Background(), tasks[:2], configs, Workload{Frames: 6, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	o, err := EvaluateSchedulers(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.SmartAssign) != 2 || len(o.BestSeconds) != 2 {
		t.Fatalf("outcome shape: %+v", o)
	}
	best := SchedulerSpeedup(o.BaselineSeconds, o.BestSeconds)
	smart := SchedulerSpeedup(o.BaselineSeconds, o.SmartSeconds)
	if smart > best+1e-9 {
		t.Fatalf("smart (%f) cannot beat best (%f)", smart, best)
	}
}

func TestFleetFacade(t *testing.T) {
	tasks := GenerateTasks(6, 11)
	if len(tasks) != 6 {
		t.Fatalf("%d tasks", len(tasks))
	}
	// A fleet with two servers of each optimized configuration.
	configs := append(Configs()[1:], Configs()[1:]...)
	// Synthetic baseline reports route tasks without simulation.
	reports := make([]*Report, len(tasks))
	for i := range reports {
		reports[i] = &Report{}
		reports[i].Topdown.MemBound = float64(10 + i*5)
		reports[i].Topdown.FrontEnd = float64(30 - i*5)
	}
	assign, err := sched.SmartAssignment(tasks, reports, configs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, si := range assign {
		if si < 0 || si >= len(configs) || seen[si] {
			t.Fatalf("invalid assignment %v", assign)
		}
		seen[si] = true
	}
}

func TestSSIMFacade(t *testing.T) {
	frames, err := Synthesize("bike", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s := SSIM(frames[0], frames[0]); s < 0.999 {
		t.Fatalf("self SSIM %f", s)
	}
	if s := SSIM(frames[0], frames[1]); s >= 1 {
		t.Fatalf("distinct frames SSIM %f", s)
	}
}

func TestY4MFacade(t *testing.T) {
	frames, err := Synthesize("bike", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteY4M(&buf, frames, 29); err != nil {
		t.Fatal(err)
	}
	got, fps, err := ReadY4M(&buf)
	if err != nil || fps != 29 || len(got) != 2 {
		t.Fatalf("y4m roundtrip: %v fps=%d n=%d", err, fps, len(got))
	}
	if !math.IsInf(PSNR(frames[0], got[0]), 1) {
		t.Fatal("y4m roundtrip not bit-exact")
	}
}
