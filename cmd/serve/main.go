// Command serve runs the online transcoding service: an HTTP job API over
// the characterization-driven dispatcher on a simulated heterogeneous
// fleet (DESIGN.md §10).
//
//	serve -addr localhost:8080 -pool baseline,fe_op,be_op1,be_op2,bs_op
//	serve -addr localhost:8080 -policy random -each 2 -warm all
//	serve -addr localhost:8080 -pool baseline,accel:250 -objective cost
//
// Pool entries use the server-spec grammar name[:price][:spot] (see
// internal/backend): a Table IV uarch config or "accel", an optional hourly
// price in cents, and an optional spot marker.
//
// The listener carries the job API (POST /jobs, GET /jobs/{id}, GET
// /healthz) and the standard observability endpoints (/metrics,
// /debug/vars, /debug/pprof) on one mux. SIGINT/SIGTERM drains gracefully:
// admissions stop, queued jobs finish, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/vbench"
)

var (
	flagAddr      = flag.String("addr", "localhost:8080", "listen address for the job API (use :0 for an ephemeral port)")
	flagPool      = flag.String("pool", "baseline,fe_op,be_op1,be_op2,bs_op", "comma-separated server specs (name[:price][:spot]) forming the fleet")
	flagEach      = flag.Int("each", 1, "replicas of each -pool entry")
	flagPolicy    = flag.String("policy", "smart", "placement policy: smart or random")
	flagObjective = flag.String("objective", "seconds", "placement objective: seconds (fleet service time) or cost (dollars under deadlines)")
	flagDepth     = flag.Int("depth", 0, "admission queue depth (0: default 256)")
	flagWork      = flag.Int("workers", 0, "concurrent executions (0: one per server)")
	flagFrames    = flag.Int("frames", 8, "frames per job")
	flagScale     = flag.Int("scale", 0, "proxy downscale factor (0: auto)")
	flagSeed      = flag.Uint64("seed", 1, "seed for deterministic random placement")
	flagWarm      = flag.String("warm", "", "videos to pre-profile into the cost model (comma list, or 'all' for the catalog)")
	flagFleet     = flag.Bool("fleet", false, "run as a fleet orchestrator: execution comes from cmd/worker processes instead of the in-process pool")
	flagLease     = flag.Duration("lease-ttl", 0, "fleet lease TTL; a worker silent for longer is forgotten and its leased job requeued (0: 3s)")
	flagPoll      = flag.Duration("poll-wait", 10*time.Second, "fleet long-poll window for idle workers")
)

func main() {
	cli.Main("serve", run)
}

func run(ctx context.Context) error {
	policy, err := serve.ParsePolicy(*flagPolicy)
	if err != nil {
		return err
	}
	objective, err := sched.ParseObjective(*flagObjective)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Policy:     policy,
		Objective:  objective,
		QueueDepth: *flagDepth,
		Workers:    *flagWork,
		Proto:      core.Workload{Frames: *flagFrames, Scale: *flagScale},
		Seed:       *flagSeed,
	}
	if *flagFleet {
		// Capability comes from worker registrations, not a local pool.
		cfg.Fleet = &serve.FleetOptions{LeaseTTL: *flagLease, PollWait: *flagPoll}
	} else {
		specs, err := backend.ParseFleet(*flagPool, *flagEach)
		if err != nil {
			return err
		}
		cfg.Servers = sched.Fleet(specs)
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if *flagWarm != "" {
		videos := cli.Strings(*flagWarm)
		if strings.EqualFold(*flagWarm, "all") {
			videos = vbench.Names()
		}
		fmt.Fprintf(os.Stderr, "serve: warming cost model for %d videos...\n", len(videos))
		if err := s.Warm(ctx, videos); err != nil {
			return err
		}
	}

	// The dispatcher gets its own context so that SIGINT triggers a drain
	// (Stop) rather than abandoning queued jobs mid-flight.
	dispCtx, dispCancel := context.WithCancel(context.Background())
	defer dispCancel()
	s.Start(dispCtx)

	ln, err := net.Listen("tcp", *flagAddr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	if *flagFleet {
		ttl := "adaptive"
		if *flagLease > 0 {
			ttl = flagLease.String()
		}
		fmt.Fprintf(os.Stderr, "serve: fleet orchestrator (%s policy, %s objective, lease ttl %s) on http://%s\n",
			policy, objective, ttl, ln.Addr())
	} else {
		fmt.Fprintf(os.Stderr, "serve: %d servers (%s policy, %s objective) on http://%s\n",
			len(cfg.Servers), policy, objective, ln.Addr())
	}

	select {
	case err := <-httpDone:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "serve: draining...")
	hs.Shutdown(context.Background())
	s.Stop()
	tot := s.Totals()
	fmt.Fprintf(os.Stderr, "serve: done — %d submitted, %d completed, %d failed, %d canceled, %d rejected, %.3f fleet-seconds, %.6f¢, %d deadline misses\n",
		tot.Submitted, tot.Completed, tot.Failed, tot.Canceled, tot.Rejected, tot.SimSeconds, tot.CostCents, tot.DeadlineMisses)
	cli.Summary("serve", false)
	return nil
}
