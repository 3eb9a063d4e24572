// Command vprof is the VTune/perf stand-in: it simulates one transcoding
// job on a chosen microarchitecture configuration and prints the Top-down
// breakdown, MPKI counters, resource stalls and roofline position.
//
//	vprof -video cricket -crf 23 -refs 3 -preset medium -config baseline
package main

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/uarch"
)

var (
	flagVideo  = flag.String("video", "cricket", "vbench video")
	flagFrames = flag.Int("frames", 16, "frames to transcode")
	flagCRF    = flag.Int("crf", 23, "constant rate factor")
	flagRefs   = flag.Int("refs", 0, "reference frames (0: preset default)")
	flagPreset = flag.String("preset", "medium", "x264 preset")
	flagConfig = flag.String("config", "baseline", "uarch config (baseline|fe_op|be_op1|be_op2|bs_op)")
	flagSample = flag.Int("sample", 0, "trace-sampling log2 (0: trace everything)")
)

// The roofline (Williams, Waterman, Patterson) of the simulated 4-wide
// 3.5 GHz core: a compute ceiling and a DRAM bandwidth ceiling. A job whose
// operational intensity is below their ratio, the ridge point, is memory
// bound.
const (
	peakGopsPerSec = 14.0
	memBWGBPerSec  = 20.0
)

func main() {
	cli.Main("vprof", run)
}

func run(ctx context.Context) error {
	opt := codec.Options{RC: codec.RCCRF, CRF: *flagCRF, QP: 26, KeyintMax: 250}
	if err := codec.ApplyPreset(&opt, codec.Preset(*flagPreset)); err != nil {
		return err
	}
	if *flagRefs > 0 {
		opt.Refs = *flagRefs
	}
	opt.TraceSampleLog2 = *flagSample
	cfg, ok := uarch.ByName(*flagConfig)
	if !ok {
		return fmt.Errorf("unknown config %q", *flagConfig)
	}
	res, err := core.Run(ctx, core.Job{
		Workload: core.Workload{Video: *flagVideo, Frames: *flagFrames},
		Options:  opt,
		Config:   cfg,
	})
	if err != nil {
		return err
	}
	r := res.Report
	s := res.Stats
	fmt.Printf("workload: %s, %d frames, crf=%d refs=%d preset=%s on %s\n",
		*flagVideo, *flagFrames, *flagCRF, opt.Refs, *flagPreset, cfg.Name)
	fmt.Printf("codec:    %.0f kbps, PSNR %.2f dB\n", s.BitrateKbps(), s.AveragePSNR)
	fmt.Printf("time:     %.4f s (simulated), IPC %.2f, %.1fM instructions\n",
		r.Seconds, r.IPC, r.Insts/1e6)
	fmt.Println("\nTop-down pipeline slots:")
	fmt.Printf("  retiring        %5.1f %%\n", r.Topdown.Retiring)
	fmt.Printf("  front-end bound %5.1f %%\n", r.Topdown.FrontEnd)
	fmt.Printf("  bad speculation %5.1f %%\n", r.Topdown.BadSpec)
	fmt.Printf("  back-end bound  %5.1f %%  (memory %.1f %%, core %.1f %%)\n",
		r.Topdown.BackEnd, r.Topdown.MemBound, r.Topdown.CoreBound)
	fmt.Println("\nCounters (per kilo instruction):")
	fmt.Printf("  branch MPKI %6.2f    L1i MPKI %6.2f   iTLB MPKI %6.3f\n", r.BranchMPKI, r.L1IMPKI, r.ITLBMPKI)
	fmt.Printf("  L1d MPKI    %6.2f    L2 MPKI  %6.2f   L3 MPKI   %6.3f\n", r.L1DMPKI, r.L2MPKI, r.L3MPKI)
	fmt.Printf("  stalls: any %.1f  rob %.1f  rs %.2f  sb %.1f\n",
		r.StallAnyPKI, r.StallROBPKI, r.StallRSPKI, r.StallSBPKI)
	fmt.Printf("\nclassification: %s\n", r.DominantBottleneck())
	ridge := peakGopsPerSec / memBWGBPerSec
	oi := r.OperationalIntensity()
	fmt.Println("\nRoofline:")
	fmt.Printf("  operational intensity %.1f ops/byte (ridge %.2f) -> %s\n",
		oi, ridge, map[bool]string{true: "memory bound", false: "compute bound"}[oi < ridge])
	return nil
}
