package sched

import (
	"context"
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/uarch"
)

// Task is one transcoding job to place (a Table III row).
type Task struct {
	Name   string
	Video  string
	CRF    int
	Refs   int
	Preset codec.Preset
}

// TableIII returns the four tasks of the paper's case study.
func TableIII() []Task {
	return []Task{
		{"task1", "desktop", 30, 8, codec.PresetVeryfast},
		{"task2", "holi", 10, 1, codec.PresetSlow},
		{"task3", "presentation", 35, 6, codec.PresetVeryfast},
		{"task4", "game2", 15, 2, codec.PresetMedium},
	}
}

// Options builds the encoder options of a task: preset defaults with the
// task's crf and refs pinned on top, as the paper does. It is exported for
// the serving layer, which turns submitted jobs into the same encode
// options the offline study uses.
func (t Task) Options() (codec.Options, error) {
	o := codec.Options{RC: codec.RCCRF, CRF: t.CRF, QP: 26, KeyintMax: 250}
	if err := codec.ApplyPreset(&o, t.Preset); err != nil {
		return o, err
	}
	o.CRF = t.CRF
	o.Refs = t.Refs
	return o, nil
}

// Matrix holds the measured transcoding time of every task on every
// configuration, plus the per-cell profiles.
type Matrix struct {
	Tasks   []Task
	Configs []uarch.Config
	Seconds [][]float64 // [task][config]
	Reports [][]*perf.Report
}

// Measure simulates every task on every configuration. workload fields
// other than Video are taken from proto (Frames/Scale/Seed), letting tests
// shrink the study. The task×config cells are one core.Sweep plan, task
// major, so cells of one title share its cache entries; the error is the
// first failing cell in plan order, and cancellation propagates from ctx.
func Measure(ctx context.Context, tasks []Task, configs []uarch.Config, proto core.Workload) (*Matrix, error) {
	m := &Matrix{Tasks: tasks, Configs: configs}
	m.Seconds = make([][]float64, len(tasks))
	m.Reports = make([][]*perf.Report, len(tasks))
	opts := make([]codec.Options, len(tasks))
	for ti, t := range tasks {
		opt, err := t.Options()
		if err != nil {
			return nil, err
		}
		opts[ti] = opt
		m.Seconds[ti] = make([]float64, len(configs))
		m.Reports[ti] = make([]*perf.Report, len(configs))
	}
	nc := len(configs)
	points := core.Sweep(ctx, core.Plan{
		N: len(tasks) * nc,
		Build: func(i int) (core.Job, core.Point, error) {
			t := tasks[i/nc]
			w := proto
			w.Video = t.Video
			return core.Job{Workload: w, Options: opts[i/nc], Config: configs[i%nc]},
				core.Point{Video: t.Video, CRF: t.CRF, Refs: t.Refs, Preset: t.Preset}, nil
		},
	})
	for i, pt := range points {
		ti, ci := i/nc, i%nc
		if pt.Err != nil {
			return nil, fmt.Errorf("sched: %s on %s: %w", tasks[ti].Name, configs[ci].Name, pt.Err)
		}
		m.Seconds[ti][ci] = pt.Report.Seconds
		m.Reports[ti][ci] = pt.Report
	}
	return m, nil
}

// configIndex locates a configuration by name.
func (m *Matrix) configIndex(name string) int {
	for i, c := range m.Configs {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Affinity scores how well a configuration's strengths match a task's
// baseline bottleneck profile: the Top-down share (percent of slots) the
// configuration targets, weighted by how much of that share the upgrade
// recovers in practice. The efficacy factors are calibrated once from
// profiling microbenchmarks (doubling the L1i converts most front-end
// stalls; a better predictor recovers only a small part of bad speculation
// because data-dependent branches stay hard), exactly the kind of reference
// data the paper says the profiling results provide to the scheduler.
func Affinity(baseline *perf.Report, cfg uarch.Config) float64 {
	td := baseline.Topdown
	switch cfg.Name {
	case "fe_op":
		return 0.60 * td.FrontEnd
	case "be_op1":
		return 0.20 * td.MemBound
	case "be_op2":
		return 0.30*td.CoreBound + 0.08*td.MemBound
	case "bs_op":
		return 0.10 * td.BadSpec
	default:
		return 0
	}
}

// SmartAssignment implements the paper's characterization-driven scheduler:
// each task is profiled once on the baseline configuration, and tasks are
// then matched one-to-one to configurations maximizing total recovered
// bottleneck share. It never looks at the measured per-configuration
// times — only at the baseline characterization, as a real scheduler would.
// configs may repeat (a fleet with several servers of one configuration);
// the result maps each task to a distinct index of configs. It fails
// (rather than panics) when there are fewer configurations than tasks.
func SmartAssignment(tasks []Task, baselineReports []*perf.Report, configs []uarch.Config) ([]int, error) {
	n := len(tasks)
	cost := make([][]float64, n)
	for ti := 0; ti < n; ti++ {
		cost[ti] = make([]float64, len(configs))
		for ci, cfg := range configs {
			cost[ti][ci] = -Affinity(baselineReports[ti], cfg) // maximize affinity
		}
	}
	return Hungarian(cost)
}

// Outcome summarizes the three schedulers on a measured matrix against a
// baseline time vector.
type Outcome struct {
	BaselineSeconds []float64
	RandomSeconds   []float64
	SmartSeconds    []float64
	BestSeconds     []float64
	SmartAssign     []int
	BestAssign      []int
	// SmartMatchesBest counts tasks where the smart placement achieved the
	// best scheduler's time (the paper's "matches 75% of the time").
	SmartMatchesBest int
}

// Speedup returns the mean per-task speedup of x over base, in percent —
// the quantity Figure 9 plots (each task contributes equally, as in the
// paper's per-task bars).
func Speedup(base, x []float64) float64 {
	var sum float64
	for i := range base {
		if x[i] > 0 {
			sum += base[i]/x[i] - 1
		}
	}
	return sum / float64(len(base)) * 100
}

// Evaluate runs the full Figure 9 experiment on a measured matrix whose
// configuration set must include "baseline"; the smart and best schedulers
// place across the *other* configurations.
func (m *Matrix) Evaluate() (*Outcome, error) {
	bi := m.configIndex("baseline")
	if bi < 0 {
		return nil, fmt.Errorf("sched: matrix lacks a baseline configuration")
	}
	var optCfg []uarch.Config
	var optIdx []int
	for i, c := range m.Configs {
		if i != bi {
			optCfg = append(optCfg, c)
			optIdx = append(optIdx, i)
		}
	}
	n := len(m.Tasks)
	if len(optCfg) < n {
		return nil, fmt.Errorf("sched: one-to-one placement needs at least %d optimized configurations, have %d", n, len(optCfg))
	}
	o := &Outcome{
		BaselineSeconds: make([]float64, n),
		RandomSeconds:   make([]float64, n),
		SmartSeconds:    make([]float64, n),
		BestSeconds:     make([]float64, n),
	}
	baseReports := make([]*perf.Report, n)
	for ti := 0; ti < n; ti++ {
		o.BaselineSeconds[ti] = m.Seconds[ti][bi]
		baseReports[ti] = m.Reports[ti][bi]
		var sum float64
		for _, i := range optIdx {
			sum += m.Seconds[ti][i]
		}
		o.RandomSeconds[ti] = sum / float64(len(optIdx))
	}
	smart, err := SmartAssignment(m.Tasks, baseReports, optCfg)
	if err != nil {
		return nil, err
	}
	o.SmartAssign = make([]int, n)
	for ti, ci := range smart {
		o.SmartAssign[ti] = optIdx[ci]
		o.SmartSeconds[ti] = m.Seconds[ti][optIdx[ci]]
	}
	o.BestAssign = make([]int, n)
	for ti := 0; ti < n; ti++ {
		best := optIdx[0]
		for _, i := range optIdx {
			if m.Seconds[ti][i] < m.Seconds[ti][best] {
				best = i
			}
		}
		o.BestAssign[ti] = best
		o.BestSeconds[ti] = m.Seconds[ti][best]
		// "Matches" is performance-based, as in the paper: the smart
		// placement achieves the best scheduler's time within measurement
		// noise (0.5%).
		if o.SmartAssign[ti] == best || o.SmartSeconds[ti] <= o.BestSeconds[ti]*1.005 {
			o.SmartMatchesBest++
		}
	}
	return o, nil
}
