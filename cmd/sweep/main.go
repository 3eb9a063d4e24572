// Command sweep runs the paper's three profiling sweeps and emits the raw
// results as CSV for plotting or further analysis.
//
//	sweep -mode crf-refs -video cricket
//	sweep -mode presets  -video cricket
//	sweep -mode videos
//
// Ctrl-C cancels the sweep context: in-flight points finish, the rest are
// abandoned, and the process exits 130 without writing a truncated CSV.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/uarch"
	"repro/internal/vbench"
)

var (
	flagMode       = flag.String("mode", "crf-refs", "sweep: crf-refs|presets|videos")
	flagVideo      = flag.String("video", "cricket", "video for crf-refs and presets")
	flagFrames     = flag.Int("frames", 16, "frames per clip")
	flagCRFs       = flag.String("crfs", "1,6,11,16,21,26,31,36,41,46,51", "comma-separated crf values")
	flagRefs       = flag.String("refs", "1,2,3,4,6,8,12,16", "comma-separated refs values")
	flagProgress   = flag.Bool("progress", false, "report per-point progress on stderr")
	flagMetricsOut = flag.String("metrics-out", "", "write the JSON run manifest (inputs, git rev, metrics snapshot, wall time) to this file")
)

func main() {
	cli.Main("sweep", run)
}

func row(p *core.Point) []string {
	r := p.Report
	return []string{
		p.Video, fmt.Sprint(p.CRF), fmt.Sprint(p.Refs), string(p.Preset),
		fmt.Sprintf("%.6f", r.Seconds),
		fmt.Sprintf("%.1f", p.Stats.BitrateKbps()),
		fmt.Sprintf("%.2f", p.Stats.AveragePSNR),
		fmt.Sprintf("%.2f", r.Topdown.Retiring),
		fmt.Sprintf("%.2f", r.Topdown.FrontEnd),
		fmt.Sprintf("%.2f", r.Topdown.BadSpec),
		fmt.Sprintf("%.2f", r.Topdown.BackEnd),
		fmt.Sprintf("%.2f", r.Topdown.MemBound),
		fmt.Sprintf("%.2f", r.Topdown.CoreBound),
		fmt.Sprintf("%.3f", r.BranchMPKI),
		fmt.Sprintf("%.3f", r.L1DMPKI),
		fmt.Sprintf("%.3f", r.L2MPKI),
		fmt.Sprintf("%.3f", r.L3MPKI),
		fmt.Sprintf("%.2f", r.StallAnyPKI),
		fmt.Sprintf("%.2f", r.StallROBPKI),
		fmt.Sprintf("%.2f", r.StallRSPKI),
		fmt.Sprintf("%.2f", r.StallSBPKI),
	}
}

var headers = []string{"video", "crf", "refs", "preset", "seconds", "kbps", "psnr",
	"retiring", "fe", "bs", "be", "mem", "core",
	"br_mpki", "l1d_mpki", "l2_mpki", "l3_mpki",
	"stall_any", "stall_rob", "stall_rs", "stall_sb"}

func run(ctx context.Context) error {
	start := time.Now()
	w := core.Workload{Video: *flagVideo, Frames: *flagFrames}
	opts := core.SweepOpts{
		// Stage histograms ride along whenever the run is being observed
		// anyway (manifest or live progress); the benchmarked silent path
		// stays timing-call free.
		StageMetrics: *flagMetricsOut != "" || *flagProgress,
		Progress:     cli.Progress("sweep", !*flagProgress),
	}
	base := codec.Defaults()
	var pts core.Points
	switch *flagMode {
	case "crf-refs":
		crfs, err := cli.Ints(*flagCRFs)
		if err != nil {
			return err
		}
		refs, err := cli.Ints(*flagRefs)
		if err != nil {
			return err
		}
		pts = core.SweepCRFRefsWith(ctx, w, base, uarch.Baseline(), crfs, refs, opts)
	case "presets":
		pts = core.SweepPresetsWith(ctx, w, uarch.Baseline(), codec.Presets, 23, 3, opts)
	case "videos":
		pts = core.SweepVideosWith(ctx, vbench.Names(), *flagFrames, 0, base, uarch.Baseline(), opts)
	default:
		return fmt.Errorf("unknown mode %q", *flagMode)
	}
	// The manifest and summary cover failed runs too — telemetry matters
	// most when something went wrong — so emit them before error handling.
	cli.Summary("sweep", !*flagProgress)
	if err := writeManifest(start); err != nil {
		return err
	}
	// Per-point failures become the exit code, not silent CSV holes.
	if err := pts.FirstErr(); err != nil {
		if n := len(pts.Failed()); n > 1 {
			return fmt.Errorf("%d of %d points failed, first: %w", n, len(pts), err)
		}
		return err
	}
	rows := make([][]string, 0, len(pts))
	for i := range pts {
		rows = append(rows, row(&pts[i]))
	}
	return report.CSV(os.Stdout, headers, rows)
}

// writeManifest records the run manifest when -metrics-out is set.
func writeManifest(start time.Time) error {
	if *flagMetricsOut == "" {
		return nil
	}
	m := obs.NewManifest("sweep", os.Args[1:], start, nil)
	return m.WriteFile(*flagMetricsOut)
}
