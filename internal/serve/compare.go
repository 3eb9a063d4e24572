package serve

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sched"
)

// RunClosedLoop serves tasks one at a time on a fresh single-executor
// server built from cfg — submit, wait for completion, submit the next —
// warming the cost model on the tasks' videos first whenever the policy is
// smart, and returns the server's totals. Every placement decision sees the
// whole fleet free, so the totals depend only on (cfg, tasks): a comparison
// (smart vs random placement, cost vs seconds objective) is two runs with
// one setting flipped, deterministic and assertable in tests.
func RunClosedLoop(ctx context.Context, cfg Config, tasks []sched.Task) (Totals, error) {
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
