// Command paper regenerates every table and figure of "CPU
// Microarchitectural Performance Characterization of Cloud Video
// Transcoding" (IISWC 2020) on the simulated stack.
//
// Usage:
//
//	paper -all                     # everything (slow: full sweeps)
//	paper -table 1                 # Table I..IV
//	paper -fig 3                   # Figure 2..9
//	paper -video cricket -frames 16
//
// Results print to stdout as aligned tables, ASCII heatmaps and CSV blocks
// suitable for EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/opt/autofdo"
	"repro/internal/opt/graphite"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/uarch"
	"repro/internal/vbench"
)

var (
	flagTable      = flag.Int("table", 0, "regenerate one table (1-4)")
	flagFig        = flag.Int("fig", 0, "regenerate one figure (2-9)")
	flagAll        = flag.Bool("all", false, "regenerate everything")
	flagVideo      = flag.String("video", "cricket", "video for the crf/refs and preset studies")
	flagFrames     = flag.Int("frames", 16, "frames per synthetic clip")
	flagScale      = flag.Int("scale", 0, "proxy downscale factor (0: auto)")
	flagFine       = flag.Bool("fine", false, "use the full 816-point crf x refs grid (slow)")
	flagSVGDir     = flag.String("svgdir", "", "also write figures as SVG files into this directory")
	flagProgress   = flag.Bool("progress", false, "report per-point sweep progress on stderr")
	flagMetricsOut = flag.String("metrics-out", "", "write the JSON run manifest (inputs, git rev, metrics snapshot, wall time) to this file")
)

// svgOut opens an SVG file in -svgdir; returns nil when SVG output is off.
func svgOut(name string) *os.File {
	if *flagSVGDir == "" {
		return nil
	}
	if err := os.MkdirAll(*flagSVGDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "svgdir:", err)
		return nil
	}
	f, err := os.Create(*flagSVGDir + "/" + name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svg:", err)
		return nil
	}
	return f
}

func main() {
	cli.Main("paper", run)
}

// section is one regenerable unit: a table or figure taking the root
// context, so Ctrl-C aborts the underlying sweep mid-grid.
type section = func(ctx context.Context) error

func run(ctx context.Context) error {
	start := time.Now()
	err := runSections(ctx)
	// Summary and manifest cover aborted runs too: partial telemetry is
	// exactly what debugging an interrupted -all regeneration needs.
	cli.Summary("paper", !*flagProgress)
	if *flagMetricsOut != "" {
		m := obs.NewManifest("paper", os.Args[1:], start, nil)
		if werr := m.WriteFile(*flagMetricsOut); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func runSections(ctx context.Context) error {
	if !*flagAll && *flagTable == 0 && *flagFig == 0 {
		flag.Usage()
		os.Exit(2)
	}
	emit := func(name string, f section) error {
		fmt.Printf("\n=== %s ===\n", name)
		if err := f(ctx); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	tables := map[int]section{1: table1, 2: table2, 3: table3, 4: table4}
	figs := map[int]section{
		2: fig2, 3: figs345, 4: nop, 5: nop,
		6: fig6, 7: fig7, 8: fig8, 9: fig9,
	}
	if *flagAll {
		for i := 1; i <= 4; i++ {
			if err := emit(fmt.Sprintf("Table %d", i), tables[i]); err != nil {
				return err
			}
		}
		for _, s := range []struct {
			name string
			f    section
		}{
			{"Figure 2", fig2}, {"Figures 3-5", figs345}, {"Figure 6", fig6},
			{"Figure 7", fig7}, {"Figure 8", fig8}, {"Figure 9", fig9},
		} {
			if err := emit(s.name, s.f); err != nil {
				return err
			}
		}
		return nil
	}
	if *flagTable != 0 {
		f, ok := tables[*flagTable]
		if !ok {
			return fmt.Errorf("unknown table %d", *flagTable)
		}
		if err := emit(fmt.Sprintf("Table %d", *flagTable), f); err != nil {
			return err
		}
	}
	if *flagFig != 0 {
		f, ok := figs[*flagFig]
		if !ok {
			return fmt.Errorf("unknown figure %d", *flagFig)
		}
		if *flagFig == 4 || *flagFig == 5 {
			f = figs345 // shares the Figure 3 sweep
		}
		if err := emit(fmt.Sprintf("Figure %d", *flagFig), f); err != nil {
			return err
		}
	}
	return nil
}

func nop(context.Context) error { return nil }

func workload() core.Workload {
	return core.Workload{Video: *flagVideo, Frames: *flagFrames, Scale: *flagScale}
}

func sweepOpts() core.SweepOpts {
	return core.SweepOpts{Progress: cli.Progress("paper", !*flagProgress)}
}

// --- tables --------------------------------------------------------------------

func table1(context.Context) error {
	rows := [][]string{}
	for _, v := range vbench.Catalog {
		rows = append(rows, []string{v.FullName, v.ShortName, v.Resolution(),
			report.I(v.FPS), report.F(v.Entropy, 1)})
	}
	return report.Table(os.Stdout, []string{"Full Name", "Short", "Res", "FPS", "Entropy"}, rows)
}

func table2(context.Context) error {
	opts := []string{"aq-mode", "b-adapt", "bframes", "deblock", "me", "merange",
		"partitions", "refs", "scenecut", "subme", "trellis"}
	headers := append([]string{"Option"}, func() []string {
		var s []string
		for _, p := range codec.Presets {
			s = append(s, string(p))
		}
		return s
	}()...)
	rows := [][]string{}
	for _, o := range opts {
		row := []string{o}
		for _, p := range codec.Presets {
			info, err := codec.PresetInfo(p)
			if err != nil {
				return err
			}
			row = append(row, info[o])
		}
		rows = append(rows, row)
	}
	return report.Table(os.Stdout, headers, rows)
}

func table3(context.Context) error {
	rows := [][]string{}
	for _, t := range sched.TableIII() {
		rows = append(rows, []string{t.Name, t.Video, report.I(t.CRF), report.I(t.Refs), string(t.Preset)})
	}
	return report.Table(os.Stdout, []string{"Task", "Video", "crf", "refs", "Preset"}, rows)
}

func table4(context.Context) error {
	rows := [][]string{}
	for _, c := range uarch.TableIV() {
		l4 := "none"
		if c.L4 != nil {
			l4 = fmt.Sprintf("%dK", c.L4.Size>>10)
		}
		iad := "No"
		if c.IssueAtDispatch {
			iad = "Yes"
		}
		rows = append(rows, []string{
			c.Name,
			fmt.Sprintf("%dK", c.L1D.Size>>10), fmt.Sprintf("%dK", c.L1I.Size>>10),
			fmt.Sprintf("%dK", c.L2.Size>>10), fmt.Sprintf("%dK", c.L3.Size>>10), l4,
			report.I(c.ITLBEntries), report.I(c.ROBSize), report.I(c.RSSize), iad, c.Predictor,
		})
	}
	return report.Table(os.Stdout, []string{"Config", "L1d", "L1i", "L2", "L3", "L4",
		"itlb", "ROB", "RS", "issue@disp", "predictor"}, rows)
}

// --- figures -------------------------------------------------------------------

// fig2 demonstrates the speed/quality/size triangle: the sign of each
// metric's response to crf and refs.
func fig2(ctx context.Context) error {
	w := workload()
	crfs := []int{18, 23, 28, 33}
	refs := []int{1, 4, 8}
	pts := core.SweepCRFRefsWith(ctx, w, codec.Defaults(), uarch.Baseline(), crfs, refs, sweepOpts())
	if err := pts.FirstErr(); err != nil {
		return err
	}
	rows := [][]string{}
	for _, p := range pts {
		rows = append(rows, []string{
			report.I(p.CRF), report.I(p.Refs),
			report.F(p.Report.Seconds*1000, 2),
			report.F(p.Stats.BitrateKbps(), 0),
			report.F(p.Stats.AveragePSNR, 2),
		})
	}
	return report.Table(os.Stdout, []string{"crf", "refs", "time(ms)", "bitrate(kbps)", "PSNR(dB)"}, rows)
}

// figs345 runs the crf x refs sweep once and renders the Figure 3 top-down
// heatmaps, the Figure 4 projections, and the Figure 5 counter heatmaps.
func figs345(ctx context.Context) error {
	w := workload()
	var crfs []int
	var refs []int
	if *flagFine {
		for c := 1; c <= 51; c++ {
			crfs = append(crfs, c)
		}
		for r := 1; r <= 16; r++ {
			refs = append(refs, r)
		}
	} else {
		crfs = []int{1, 6, 11, 16, 21, 26, 31, 36, 41, 46, 51}
		refs = []int{1, 2, 3, 4, 6, 8, 12, 16}
	}
	pts := core.SweepCRFRefsWith(ctx, w, codec.Defaults(), uarch.Baseline(), crfs, refs, sweepOpts())
	if err := pts.FirstErr(); err != nil {
		return err
	}
	at := func(i, j int) *core.Point { return &pts[i*len(refs)+j] }
	rowLab := make([]string, len(crfs))
	for i, c := range crfs {
		rowLab[i] = fmt.Sprintf("crf%02d", c)
	}
	colLab := make([]string, len(refs))
	for j, r := range refs {
		colLab[j] = fmt.Sprintf("r%02d", r)
	}
	hm := func(title string, f func(p *core.Point) float64) error {
		if err := report.Heatmap(os.Stdout, title, rowLab, colLab,
			func(i, j int) float64 { return f(at(i, j)) }); err != nil {
			return err
		}
		name := "fig_" + sanitize(title) + ".svg"
		if out := svgOut(name); out != nil {
			defer out.Close()
			return report.SVGHeatmap(out, title, rowLab, colLab,
				func(i, j int) float64 { return f(at(i, j)) })
		}
		return nil
	}

	fmt.Println("\n-- Figure 3: top-down pipeline-slot heatmaps (% of slots) --")
	if err := hm("(a) Front-end bound", func(p *core.Point) float64 { return p.Report.Topdown.FrontEnd }); err != nil {
		return err
	}
	if err := hm("(b) Back-end bound", func(p *core.Point) float64 { return p.Report.Topdown.BackEnd }); err != nil {
		return err
	}
	if err := hm("(c) Bad speculation bound", func(p *core.Point) float64 { return p.Report.Topdown.BadSpec }); err != nil {
		return err
	}

	fmt.Println("\n-- Figure 4: projections --")
	fmt.Println("(A) bitrate range across refs per crf (PSNR fixed by crf)")
	rowsA := [][]string{}
	for i, c := range crfs {
		lo, hi := at(i, 0).Stats.BitrateKbps(), at(i, 0).Stats.BitrateKbps()
		psnr := at(i, 0).Stats.AveragePSNR
		for j := range refs {
			b := at(i, j).Stats.BitrateKbps()
			if b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
		rowsA = append(rowsA, []string{report.I(c), report.F(psnr, 2), report.F(hi, 0),
			report.F(lo, 0), report.F((hi-lo)/hi*100, 1)})
	}
	if err := report.Table(os.Stdout, []string{"crf", "PSNR", "bitrate@refs1", "bitrate@min", "saving%"}, rowsA); err != nil {
		return err
	}
	fmt.Println("(B) transcoding time (ms) vs refs per crf")
	rowsB := [][]string{}
	for i, c := range crfs {
		row := []string{report.I(c)}
		for j := range refs {
			row = append(row, report.F(at(i, j).Report.Seconds*1000, 1))
		}
		rowsB = append(rowsB, row)
	}
	if err := report.Table(os.Stdout, append([]string{"crf"}, colLab...), rowsB); err != nil {
		return err
	}
	if out := svgOut("fig4b_time_vs_refs.svg"); out != nil {
		var series []report.Series
		for i, c := range crfs {
			pts := make([]float64, len(refs))
			for j := range refs {
				pts[j] = at(i, j).Report.Seconds * 1000
			}
			series = append(series, report.Series{Name: fmt.Sprintf("crf%d", c), Points: pts})
		}
		if err := report.SVGLines(out, "Figure 4B: transcoding time vs refs", "ms", colLab, series); err != nil {
			out.Close()
			return err
		}
		out.Close()
	}

	fmt.Println("\n-- Figure 5: microarchitecture-resource heatmaps --")
	counters := []struct {
		name string
		f    func(p *core.Point) float64
	}{
		{"(a) Branch MPKI", func(p *core.Point) float64 { return p.Report.BranchMPKI }},
		{"(b) L1d MPKI", func(p *core.Point) float64 { return p.Report.L1DMPKI }},
		{"(c) L2 MPKI", func(p *core.Point) float64 { return p.Report.L2MPKI }},
		{"(d) L3 MPKI", func(p *core.Point) float64 { return p.Report.L3MPKI }},
		{"(e) Resource stalls - Any (cycles/kinst)", func(p *core.Point) float64 { return p.Report.StallAnyPKI }},
		{"(f) Resource stalls - ROB", func(p *core.Point) float64 { return p.Report.StallROBPKI }},
		{"(g) Resource stalls - RS", func(p *core.Point) float64 { return p.Report.StallRSPKI }},
		{"(h) Resource stalls - SB", func(p *core.Point) float64 { return p.Report.StallSBPKI }},
	}
	for _, c := range counters {
		if err := hm(c.name, c.f); err != nil {
			return err
		}
	}
	return nil
}

func fig6(ctx context.Context) error {
	w := workload()
	pts := core.SweepPresetsWith(ctx, w, uarch.Baseline(), codec.Presets, 23, 3, sweepOpts())
	if err := pts.FirstErr(); err != nil {
		return err
	}
	rows := [][]string{}
	for _, p := range pts {
		r := p.Report
		rows = append(rows, []string{
			string(p.Preset),
			report.F(r.Seconds*1000, 2), report.F(p.Stats.BitrateKbps(), 0), report.F(p.Stats.AveragePSNR, 2),
			report.F(r.Topdown.FrontEnd, 1), report.F(r.Topdown.BackEnd, 1), report.F(r.Topdown.BadSpec, 1),
			report.F(r.BranchMPKI, 2), report.F(r.L1DMPKI, 2), report.F(r.L2MPKI, 2), report.F(r.L3MPKI, 2),
			report.F(r.StallROBPKI, 1), report.F(r.StallRSPKI, 2), report.F(r.StallSBPKI, 1),
		})
	}
	if err := report.Table(os.Stdout, []string{"preset", "time(ms)", "kbps", "PSNR",
		"FE%", "BE%", "BS%", "brMPKI", "L1d", "L2", "L3", "ROB", "RS", "SB"}, rows); err != nil {
		return err
	}
	if out := svgOut("fig6_topdown_presets.svg"); out != nil {
		defer out.Close()
		labels := make([]string, len(pts))
		fe := report.Series{Name: "front-end"}
		be := report.Series{Name: "back-end"}
		bs := report.Series{Name: "bad-spec"}
		for i, p := range pts {
			labels[i] = string(p.Preset)
			fe.Points = append(fe.Points, p.Report.Topdown.FrontEnd)
			be.Points = append(be.Points, p.Report.Topdown.BackEnd)
			bs.Points = append(bs.Points, p.Report.Topdown.BadSpec)
		}
		return report.SVGLines(out, "Figure 6b: top-down slots across presets", "% slots",
			labels, []report.Series{fe, be, bs})
	}
	return nil
}

func fig7(ctx context.Context) error {
	names := vbench.Names()
	// Group by resolution, then sort by entropy within the group (the
	// paper's Figure 7 x-axis).
	infos := make([]vbench.VideoInfo, 0, len(names))
	for _, n := range names {
		v, _ := vbench.ByName(n)
		infos = append(infos, v)
	}
	sort.SliceStable(infos, func(i, j int) bool {
		if infos[i].Height != infos[j].Height {
			return infos[i].Height < infos[j].Height
		}
		return infos[i].Entropy < infos[j].Entropy
	})
	ordered := make([]string, len(infos))
	for i, v := range infos {
		ordered[i] = v.ShortName
	}
	pts := core.SweepVideosWith(ctx, ordered, *flagFrames, 0, codec.Defaults(), uarch.Baseline(), sweepOpts())
	if err := pts.FirstErr(); err != nil {
		return err
	}
	rows := [][]string{}
	for i, p := range pts {
		r := p.Report
		rows = append(rows, []string{
			p.Video, infos[i].Resolution(), report.F(infos[i].Entropy, 1),
			report.F(r.Topdown.FrontEnd, 1), report.F(r.Topdown.BackEnd, 1), report.F(r.Topdown.BadSpec, 1),
			report.F(r.Topdown.MemBound, 1), report.F(r.Topdown.CoreBound, 1),
			report.F(r.BranchMPKI, 2), report.F(r.L1DMPKI, 2), report.F(r.L2MPKI, 2), report.F(r.L3MPKI, 2),
			report.F(r.StallROBPKI, 1), report.F(r.StallRSPKI, 2), report.F(r.StallSBPKI, 1),
		})
	}
	if err := report.Table(os.Stdout, []string{"video", "res", "entropy",
		"FE%", "BE%", "BS%", "mem%", "core%", "brMPKI", "L1d", "L2", "L3", "ROB", "RS", "SB"}, rows); err != nil {
		return err
	}
	if out := svgOut("fig7_topdown_videos.svg"); out != nil {
		defer out.Close()
		labels := make([]string, len(pts))
		fe := report.Series{Name: "front-end"}
		be := report.Series{Name: "back-end"}
		bs := report.Series{Name: "bad-spec"}
		for i, p := range pts {
			labels[i] = p.Video
			fe.Points = append(fe.Points, p.Report.Topdown.FrontEnd)
			be.Points = append(be.Points, p.Report.Topdown.BackEnd)
			bs.Points = append(bs.Points, p.Report.Topdown.BadSpec)
		}
		return report.SVGLines(out, "Figure 7a: top-down slots across videos", "% slots",
			labels, []report.Series{fe, be, bs})
	}
	return nil
}

// fig8 measures AutoFDO and Graphite speedups per video: one plan of
// three points per (video, combination) cell — the baseline, the same job
// on the AutoFDO image trained on it, and the Graphite-tuned job.
func fig8(ctx context.Context) error {
	// Parameter combinations averaged per video (a reduced version of the
	// paper's 32-combination average).
	combos := []struct {
		preset codec.Preset
		crf    int
		refs   int
	}{
		{codec.PresetMedium, 23, 3},
		{codec.PresetVeryfast, 30, 1},
	}
	const (
		base = iota
		fdo
		gr
		variants
	)
	videos := vbench.Names()
	pts := core.Sweep(ctx, core.Plan{
		N: len(videos) * len(combos) * variants,
		Build: func(i int) (core.Job, core.Point, error) {
			v, cb := videos[i/variants/len(combos)], combos[i/variants%len(combos)]
			pt := core.Point{Video: v, CRF: cb.crf, Refs: cb.refs, Preset: cb.preset}
			w := core.Workload{Video: v, Frames: *flagFrames}
			opt := codec.Options{RC: codec.RCCRF, CRF: cb.crf, QP: 26, KeyintMax: 250}
			if err := codec.ApplyPreset(&opt, cb.preset); err != nil {
				return core.Job{}, pt, err
			}
			opt.Refs = cb.refs
			job := core.Job{Workload: w, Options: opt, Config: uarch.Baseline()}
			switch i % variants {
			case fdo:
				stream, err := core.Mezzanine(ctx, w)
				if err != nil {
					return core.Job{}, pt, err
				}
				if job.Image, err = autofdo.Train(stream, opt); err != nil {
					return core.Job{}, pt, err
				}
			case gr:
				job.Options.Tune = graphite.All().Tuning()
			}
			return job, pt, nil
		},
		Opts: sweepOpts(),
	})
	if err := pts.FirstErr(); err != nil {
		return err
	}
	rows := [][]string{}
	labels := make([]string, 0, len(videos)+1)
	fdoSeries := report.Series{Name: "AutoFDO"}
	grSeries := report.Series{Name: "Graphite"}
	add := func(label string, f, g float64) {
		rows = append(rows, []string{label, report.F(f, 2), report.F(g, 2)})
		labels = append(labels, label)
		fdoSeries.Points = append(fdoSeries.Points, f)
		grSeries.Points = append(grSeries.Points, g)
	}
	var sumF, sumG float64
	for vi, v := range videos {
		var fdoSum, grSum float64
		for ci := range combos {
			cell := pts[(vi*len(combos)+ci)*variants:]
			baseS := cell[base].Report.Seconds
			fdoSum += (baseS/cell[fdo].Report.Seconds - 1) * 100
			grSum += (baseS/cell[gr].Report.Seconds - 1) * 100
		}
		f := fdoSum / float64(len(combos))
		g := grSum / float64(len(combos))
		sumF += f
		sumG += g
		add(v, f, g)
	}
	add("average", sumF/float64(len(videos)), sumG/float64(len(videos)))
	if err := report.Table(os.Stdout, []string{"video", "AutoFDO speedup %", "Graphite speedup %"}, rows); err != nil {
		return err
	}
	if out := svgOut("fig8_compiler_speedups.svg"); out != nil {
		defer out.Close()
		return report.SVGBars(out, "Figure 8: compiler-optimization speedups", "% speedup", labels,
			[]report.Series{fdoSeries, grSeries})
	}
	return nil
}

// sanitize converts a figure title into a file-name fragment.
func sanitize(title string) string {
	var b []byte
	for _, c := range title {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b = append(b, byte(c))
		case c >= 'A' && c <= 'Z':
			b = append(b, byte(c+32))
		case c == ' ' || c == '-' || c == '/':
			if len(b) > 0 && b[len(b)-1] != '_' {
				b = append(b, '_')
			}
		}
	}
	for len(b) > 0 && b[len(b)-1] == '_' {
		b = b[:len(b)-1]
	}
	if len(b) > 40 {
		b = b[:40]
	}
	return string(b)
}

func fig9(ctx context.Context) error {
	m, err := sched.Measure(ctx, sched.TableIII(), uarch.TableIV(), core.Workload{Frames: *flagFrames})
	if err != nil {
		return err
	}
	rows := [][]string{}
	for ti, t := range m.Tasks {
		row := []string{t.Name, t.Video}
		for ci := range m.Configs {
			row = append(row, report.F(m.Seconds[ti][ci]*1000, 2))
		}
		rows = append(rows, row)
	}
	headers := []string{"task", "video"}
	for _, c := range m.Configs {
		headers = append(headers, c.Name+"(ms)")
	}
	if err := report.Table(os.Stdout, headers, rows); err != nil {
		return err
	}
	o, err := m.Evaluate()
	if err != nil {
		return err
	}
	fmt.Println()
	sum := [][]string{
		{"random", report.F(sched.Speedup(o.BaselineSeconds, o.RandomSeconds), 2)},
		{"smart", report.F(sched.Speedup(o.BaselineSeconds, o.SmartSeconds), 2)},
		{"best", report.F(sched.Speedup(o.BaselineSeconds, o.BestSeconds), 2)},
	}
	if err := report.Table(os.Stdout, []string{"scheduler", "speedup over baseline %"}, sum); err != nil {
		return err
	}
	fmt.Printf("smart over random: %+.2f%%; smart matches best on %d/%d tasks\n",
		sched.Speedup(o.RandomSeconds, o.SmartSeconds), o.SmartMatchesBest, len(m.Tasks))
	for ti, t := range m.Tasks {
		fmt.Printf("  %s -> smart: %s, best: %s\n", t.Name,
			m.Configs[o.SmartAssign[ti]].Name, m.Configs[o.BestAssign[ti]].Name)
	}
	if out := svgOut("fig9_scheduler_speedups.svg"); out != nil {
		defer out.Close()
		labels := make([]string, len(m.Tasks))
		rs := report.Series{Name: "random"}
		ss := report.Series{Name: "smart"}
		bs := report.Series{Name: "best"}
		for ti, t := range m.Tasks {
			labels[ti] = t.Name
			base := o.BaselineSeconds[ti]
			rs.Points = append(rs.Points, (base/o.RandomSeconds[ti]-1)*100)
			ss.Points = append(ss.Points, (base/o.SmartSeconds[ti]-1)*100)
			bs.Points = append(bs.Points, (base/o.BestSeconds[ti]-1)*100)
		}
		return report.SVGBars(out, "Figure 9: scheduler speedup over baseline", "% speedup", labels,
			[]report.Series{rs, ss, bs})
	}
	return nil
}
