package sched

import (
	"strconv"

	"repro/internal/codec"
	"repro/internal/perf"
	"repro/internal/uarch"
	"repro/internal/vbench"
)

// This file extends the paper's four-task case study to fleet scale: many
// tasks, a fleet of servers with repeated configurations, and the same
// characterization-driven placement — the deployment the paper's §V
// positions as future work for streaming providers.

// GenerateTasks deterministically samples n transcoding tasks across the
// vbench catalog and the parameter space the paper sweeps. The same (n,
// seed) always yields the same task list.
func GenerateTasks(n int, seed uint64) []Task {
	videos := vbench.Names()
	presets := []codec.Preset{
		codec.PresetUltrafast, codec.PresetVeryfast, codec.PresetFast,
		codec.PresetMedium, codec.PresetSlow,
	}
	out := make([]Task, n)
	state := seed | 1
	next := func(mod int) int {
		// xorshift64*: deterministic, stdlib-free.
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return int((state * 0x2545F4914F6CDD1D >> 33) % uint64(mod))
	}
	for i := range out {
		out[i] = Task{
			Name:   "job" + strconv.Itoa(i),
			Video:  videos[next(len(videos))],
			CRF:    10 + next(35),
			Refs:   1 + next(8),
			Preset: presets[next(len(presets))],
		}
	}
	return out
}

// AssignDynamicBiased is the dynamic-fleet variant of SmartAssignment: it
// places jobs onto whatever servers are free *right now* by raw affinity.
// The online dispatcher places through AssignHetero; this stays as the
// affinity oracle its software-only placements are tested against. Rows may
// exceed columns (overload); unplaceable rows come back as -1 instead of
// failing the batch, and rows with a nil report (no baseline
// characterization yet) are never matched — they return -1 too.
//
// bias[j] (nil: all zero) is added to every job's cost of taking slot j —
// a load-spreading term. Bias magnitudes should stay well below typical
// affinity spreads (the Affinity weights sum to ~1) or placement quality
// degrades into pure load balancing.
func AssignDynamicBiased(reports []*perf.Report, free []uarch.Config, bias []float64) []int {
	out := make([]int, len(reports))
	var warm []int
	for i, rep := range reports {
		out[i] = -1
		if rep != nil {
			warm = append(warm, i)
		}
	}
	if len(warm) == 0 || len(free) == 0 {
		return out
	}
	cost := make([][]float64, len(warm))
	for k, i := range warm {
		cost[k] = make([]float64, len(free))
		for j, cfg := range free {
			cost[k][j] = -Affinity(reports[i], cfg)
			if bias != nil {
				cost[k][j] += bias[j]
			}
		}
	}
	for k, j := range HungarianPad(cost) {
		out[warm[k]] = j
	}
	return out
}
