package sched

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/perf"
	"repro/internal/uarch"
)

// Fleet is a heterogeneous server fleet: one entry per physical server,
// each with a backend kind, a uarch config, a price and a spot flag.
// Entries may repeat.
type Fleet []backend.ServerSpec

// SoftwareFleet builds a software fleet with `each` servers of every
// configuration at default on-demand prices, interleaved: the configs in
// order, then again, `each` times.
func SoftwareFleet(configs []uarch.Config, each int) Fleet {
	var f Fleet
	for i := 0; i < each; i++ {
		for _, cfg := range configs {
			f = append(f, backend.ServerSpec{Backend: backend.Software, Config: cfg}.FillDefaults())
		}
	}
	return f
}

// Objective selects what the placement matrix minimizes.
type Objective string

const (
	// ObjectiveSeconds minimizes predicted fleet-seconds (the default).
	ObjectiveSeconds Objective = "seconds"
	// ObjectiveCost minimizes predicted dollars: seconds × the assigned
	// server's hourly price.
	ObjectiveCost Objective = "cost"
)

// ParseObjective validates an objective string ("" → seconds).
func ParseObjective(s string) (Objective, error) {
	switch Objective(s) {
	case ObjectiveSeconds, ObjectiveCost:
		return Objective(s), nil
	case "":
		return ObjectiveSeconds, nil
	}
	return "", fmt.Errorf("sched: unknown objective %q (want seconds or cost)", s)
}

// HeteroJob is one placement row: a job with its warm profile (nil when
// cold), the codec options it must run with, and its economic metadata.
type HeteroJob struct {
	// Report is the warmed baseline profile for the job's video, nil when
	// the dispatcher has not yet measured it.
	Report *perf.Report
	// Opts are the exact encoder options; the accelerator's restricted
	// surface is checked against them.
	Opts codec.Options
	// DeadlineSeconds caps predicted service seconds for this job (per
	// part for segmented jobs); 0 means no deadline.
	DeadlineSeconds float64
	// QualityFloor is the worst acceptable effective CRF (higher CRF =
	// worse quality); 0 means no floor. A backend whose quality penalty
	// pushes the effective CRF above the floor is infeasible.
	QualityFloor int
	// Frames, Width, Height describe the proxy geometry of the unit being
	// placed, for the accelerator's closed-form clock model.
	Frames, Width, Height int
}

// PredictSeconds estimates service seconds for a job on a server. The
// accelerator is a closed-form model and always predictable; software
// servers need a warm baseline profile (ok=false when cold). Software
// predictions scale the measured baseline seconds by the topdown affinity
// (a percentage improvement estimate) of the server's config.
func PredictSeconds(rep *perf.Report, spec backend.ServerSpec, model backend.AccelModel, frames, width, height int) (float64, bool) {
	if spec.Backend == backend.Accel {
		return model.Seconds(frames, width, height), true
	}
	if rep == nil {
		return 0, false
	}
	s := rep.Seconds * (1 - Affinity(rep, spec.Config)/100)
	if s < 0 {
		s = 0
	}
	return s, true
}

// Feasible reports whether a server may run a job at all, independent of
// time: the accelerator must accept the option surface and must not push
// the effective CRF past the job's quality floor.
func Feasible(job HeteroJob, spec backend.ServerSpec, model backend.AccelModel) bool {
	if spec.Backend != backend.Accel {
		return true
	}
	if !model.Accepts(job.Opts) {
		return false
	}
	if job.QualityFloor > 0 && job.Opts.CRF+model.CRFOffset > job.QualityFloor {
		return false
	}
	return true
}

// maskPenalty marks an infeasible (or deadline-busting) cell. It is finite
// so HungarianPad stays total, and large enough that a masked cell is only
// chosen when a row has no feasible column at all — the caller detects
// that and leaves the job unplaced.
const maskPenalty = 1e12

// AssignHetero builds the economic placement matrix over warm jobs and
// free servers and solves it with HungarianPad. Cell (i,j) is the
// objective value (seconds or cents) of running job i on server j;
// infeasible cells — accelerator option/quality rejections and cells whose
// predicted seconds exceed the job's deadline — are masked before the
// solve, and any assignment that lands on a masked cell is returned as -1
// (unplaced), as are cold jobs (nil Report), which the caller places by
// fallback policy among servers that pass Feasible.
//
// bias, when non-nil, is a per-server load-spreading term in [0,1]-ish
// units (typically utilization fractions); it is scaled by the mean
// feasible cell magnitude so it breaks ties without fighting the
// objective.
func AssignHetero(jobs []HeteroJob, free []backend.ServerSpec, model backend.AccelModel, obj Objective, bias []float64) []int {
	out := make([]int, len(jobs))
	var warm []int
	for i := range jobs {
		out[i] = -1
		if jobs[i].Report != nil {
			warm = append(warm, i)
		}
	}
	if len(warm) == 0 || len(free) == 0 {
		return out
	}
	cost := make([][]float64, len(warm))
	var sum float64
	var n int
	for k, i := range warm {
		cost[k] = make([]float64, len(free))
		for j, spec := range free {
			sec, ok := PredictSeconds(jobs[i].Report, spec, model, jobs[i].Frames, jobs[i].Width, jobs[i].Height)
			if !ok || !Feasible(jobs[i], spec, model) ||
				(jobs[i].DeadlineSeconds > 0 && sec > jobs[i].DeadlineSeconds) {
				cost[k][j] = maskPenalty
				continue
			}
			v := sec
			if obj == ObjectiveCost {
				v = spec.CostCents(sec)
			}
			cost[k][j] = v
			sum += v
			n++
		}
	}
	if bias != nil && n > 0 {
		// Scale the bias relative to the matrix magnitude so utilization
		// spreading stays a tiebreaker at any objective unit (seconds are
		// ~1e-4, cents ~1e-6 for the tiny CI proxies).
		scale := sum / float64(n)
		if scale <= 0 {
			scale = 1
		}
		for k := range cost {
			for j := range cost[k] {
				if cost[k][j] < maskPenalty {
					cost[k][j] += bias[j] * scale
				}
			}
		}
	}
	for k, j := range HungarianPad(cost) {
		if j >= 0 && cost[k][j] >= maskPenalty {
			j = -1
		}
		out[warm[k]] = j
	}
	return out
}

// FeasibleAnywhere reports whether at least one server class in specs can
// predictably meet the job's deadline and quality floor. Cold software
// classes (no profile yet) are treated optimistically — admission should
// not reject a job the fleet has never measured. It is the admission-time
// companion to the placement-time masking in AssignHetero.
func FeasibleAnywhere(job HeteroJob, specs []backend.ServerSpec, model backend.AccelModel) bool {
	if len(specs) == 0 {
		return true
	}
	for _, spec := range specs {
		if !Feasible(job, spec, model) {
			continue
		}
		sec, ok := PredictSeconds(job.Report, spec, model, job.Frames, job.Width, job.Height)
		if !ok {
			return true // cold software class: optimistic
		}
		if job.DeadlineSeconds <= 0 || sec <= job.DeadlineSeconds {
			return true
		}
	}
	return false
}
