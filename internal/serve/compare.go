package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Comparison is the smart-vs-random serving outcome over one task sequence
// on one fleet: the online analogue of sched.Evaluate's offline comparison.
type Comparison struct {
	Smart  Totals `json:"smart"`
	Random Totals `json:"random"`
}

// Delta is the completed-work advantage of characterization-driven
// placement: the fraction of fleet service time the random policy spends
// that smart does not. Positive means smart finished the same jobs in
// fewer fleet-seconds, i.e. freed that share of capacity.
func (c Comparison) Delta() float64 {
	if c.Random.SimSeconds == 0 {
		return 0
	}
	return (c.Random.SimSeconds - c.Smart.SimSeconds) / c.Random.SimSeconds
}

// RunComparison serves the same task sequence twice over the same fleet —
// once under smart placement with a pre-warmed cost model, once under the
// random control. The loop is closed (submit, wait for completion, submit
// the next), so every placement decision sees the whole fleet free: the
// outcome depends only on (fleet, tasks, seed), making the comparison
// deterministic and assertable in tests.
func RunComparison(ctx context.Context, fleet sched.Fleet, tasks []sched.Task, proto core.Workload, seed uint64) (Comparison, error) {
	cfg := Config{Servers: fleet, Policy: PolicySmart, Proto: proto, Seed: seed}
	smart, err := runClosedLoop(ctx, cfg, tasks)
	if err != nil {
		return Comparison{}, err
	}
	cfg.Policy = PolicyRandom
	random, err := runClosedLoop(ctx, cfg, tasks)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Smart: smart, Random: random}, nil
}

// CostComparison is the dollars-vs-fleet-seconds outcome of serving one
// task sequence over one heterogeneous fleet under each objective.
type CostComparison struct {
	Seconds Totals `json:"seconds"` // placement minimized fleet service time
	Cost    Totals `json:"cost"`    // placement minimized dollars
}

// Savings is the fraction of the seconds-objective bill the cost objective
// avoids at equal work completed.
func (c CostComparison) Savings() float64 {
	if c.Seconds.CostCents == 0 {
		return 0
	}
	return (c.Seconds.CostCents - c.Cost.CostCents) / c.Seconds.CostCents
}

// RunCostComparison serves the same task sequence twice over the same
// heterogeneous fleet — once minimizing fleet-seconds, once minimizing
// dollars — with the cost model pre-warmed both times. The loop is closed
// like RunComparison, so the outcome depends only on (fleet, tasks, seed).
func RunCostComparison(ctx context.Context, fleet sched.Fleet, tasks []sched.Task, proto core.Workload, seed uint64) (CostComparison, error) {
	cfg := Config{Servers: fleet, Objective: sched.ObjectiveSeconds, Proto: proto, Seed: seed}
	secs, err := runClosedLoop(ctx, cfg, tasks)
	if err != nil {
		return CostComparison{}, err
	}
	cfg.Objective = sched.ObjectiveCost
	cost, err := runClosedLoop(ctx, cfg, tasks)
	if err != nil {
		return CostComparison{}, err
	}
	return CostComparison{Seconds: secs, Cost: cost}, nil
}

// runClosedLoop serves tasks one at a time on a fresh single-executor
// server built from cfg — submit, wait for completion, submit the next —
// warming the cost model on the tasks' videos first whenever the policy is
// smart, and returns the server's totals.
func runClosedLoop(ctx context.Context, cfg Config, tasks []sched.Task) (Totals, error) {
	cfg.Workers, cfg.Metrics = 1, obs.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		return Totals{}, err
	}
	if s.cfg.Policy == PolicySmart {
		videos := make([]string, len(tasks))
		for i, t := range tasks {
			videos[i] = t.Video
		}
		if err := s.Warm(ctx, videos); err != nil {
			return Totals{}, err
		}
	}
	s.Start(ctx)
	defer s.Stop()
	for _, t := range tasks {
		view, err := s.Submit(ctx, JobRequest{
			Video: t.Video, CRF: t.CRF, Refs: t.Refs, Preset: string(t.Preset),
		})
		if err != nil {
			return Totals{}, fmt.Errorf("serve: compare submit %s: %w", t.Video, err)
		}
		final, err := s.WaitJob(ctx, view.ID)
		if err != nil {
			return Totals{}, err
		}
		if final.State != StateDone {
			return Totals{}, fmt.Errorf("serve: compare job %s ended %s: %s", final.ID, final.State, final.Error)
		}
	}
	return s.Totals(), nil
}
