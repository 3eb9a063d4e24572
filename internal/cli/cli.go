// Package cli holds the scaffolding every cmd/* binary shares: flag
// parsing, a signal-canceled root context, uniform error reporting on
// stderr and exit-code conventions. Keeping it in one place is what makes
// Ctrl-C behave identically across the six tools — the context from Main
// reaches the sweep engine, so an 816-point sweep aborts within one
// in-flight job per worker and the process exits non-zero.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/codec"
	"repro/internal/obs"
)

// flagDebugAddr is shared by every cmd/* binary (they all enter through
// Main): when set, the process serves live metrics (/metrics), expvar
// (/debug/vars) and pprof (/debug/pprof) for the duration of the run —
// the observability side door for watching an 816-point sweep from
// another terminal.
var flagDebugAddr = flag.String("debug-addr", "",
	"serve /metrics, expvar and pprof debug endpoints on this address (e.g. localhost:6060)")

// flagCPUProfile is shared the same way: when set, the whole run is
// CPU-profiled (runtime/pprof) into the named file, which is complete on
// every exit path, a failed or canceled run included.
var flagCPUProfile = flag.String("cpuprofile", "",
	"write a CPU profile of the run to this file (go tool pprof)")

// Main parses flags, installs SIGINT/SIGTERM cancellation on the root
// context, optionally starts the -debug-addr endpoint and the -cpuprofile
// profile, runs the command body, and exits: 0 on success, 130 when the
// run was canceled (the shell convention for death-by-interrupt), 1 on any
// other error.
func Main(name string, run func(ctx context.Context) error) {
	flag.Parse()
	if code := runMain(name, run); code != 0 {
		os.Exit(code)
	}
}

// runMain is Main after flag parsing, returning the exit code, so that the
// profile is stopped and flushed before the process exits.
func runMain(name string, run func(ctx context.Context) error) int {
	if *flagCPUProfile != "" {
		f, err := os.Create(*flagCPUProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: cpuprofile: %v\n", name, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "%s: cpuprofile: %v\n", name, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: cpuprofile: %v\n", name, err)
			}
		}()
	}
	if *flagDebugAddr != "" {
		addr, err := obs.Serve(*flagDebugAddr, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "%s: debug endpoint on http://%s/debug/vars\n", name, addr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err == nil {
		return 0
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 130
	}
	return 1
}

// Ints parses a comma-separated integer list flag value ("1,6,11").
func Ints(s string) ([]int, error) {
	var out []int
	for _, tok := range Strings(s) {
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// BaseURL normalizes a server flag into a request base URL: a bare
// host:port gets the http scheme and trailing slashes are trimmed, so both
// "-addr localhost:8080" and "-addr http://host:8080/" produce a prefix
// that path concatenation works on.
func BaseURL(s string) string {
	s = strings.TrimRight(s, "/")
	if s != "" && !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

// Strings splits a comma-separated list flag value, dropping empty tokens
// (so "a,,b," parses the same as "a,b").
func Strings(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// Progress returns a sweep progress callback that rewrites one stderr
// status line per completed point, or nil when off is true. The final call
// terminates the line so subsequent output starts clean.
func Progress(name string, off bool) func(done, total int) {
	if off {
		return nil
	}
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d points", name, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// Summary prints the end-of-run telemetry digest on stderr (one line:
// points, per-run latency quantiles, cache traffic, failures) unless off
// is true. It reads the default obs registry, so it reflects everything
// the process ran.
func Summary(name string, off bool) {
	if off {
		return
	}
	fmt.Fprintln(os.Stderr, SummaryLine(name, obs.Default().Snapshot()))
}

// SummaryLine renders the digest Summary prints; split out so tests can
// pin the format without capturing stderr.
func SummaryLine(name string, s obs.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", name)
	if total := s.CounterTotal("core_sweep_points_total"); total > 0 {
		fmt.Fprintf(&b, " %d points", total)
		if failed := s.CounterTotal("core_sweep_points_failed"); failed > 0 {
			fmt.Fprintf(&b, " (%d failed)", failed)
		}
		if shared := s.CounterTotal("core_sweep_points_shared"); shared > 0 {
			fmt.Fprintf(&b, " (%d shared a run)", shared)
		}
	}
	if h, ok := s.HistogramByName("core_sweep_point_ns"); ok && h.Count > 0 {
		fmt.Fprintf(&b, ", point p50 %s p95 %s p99 %s",
			obs.FmtDuration(h.P50), obs.FmtDuration(h.P95), obs.FmtDuration(h.P99))
	}
	hits, misses := s.CounterTotal("core_cache_hits"), s.CounterTotal("core_cache_misses")
	if hits+misses > 0 {
		fmt.Fprintf(&b, ", cache %d hits / %d misses", hits, misses)
		if bytes := s.CounterTotal("core_cache_bytes"); bytes > 0 {
			fmt.Fprintf(&b, " (%.1f MiB resident)", float64(bytes)/(1<<20))
		}
		if evicted := s.CounterTotal("core_cache_evictions"); evicted > 0 {
			fmt.Fprintf(&b, ", %d evicted", evicted)
		}
	}
	// Per-encode-stage latency split (populated when stage metrics are on).
	var stages []string
	for st := codec.EncodeStage(0); st < codec.NumEncodeStages; st++ {
		if h, ok := s.HistogramByName("encode_stage_" + st.String() + "_ns"); ok && h.Count > 0 {
			stages = append(stages, fmt.Sprintf("%s %s", st, obs.FmtDuration(h.Sum)))
		}
	}
	if len(stages) > 0 {
		fmt.Fprintf(&b, ", stages [%s]", strings.Join(stages, " "))
	}
	if served := s.CounterTotal("serve_jobs_completed"); served > 0 {
		fmt.Fprintf(&b, ", served %d jobs", served)
		if h, ok := s.HistogramByName("serve_sojourn_ns"); ok && h.Count > 0 {
			fmt.Fprintf(&b, " (sojourn p50 %s p95 %s p99 %s)",
				obs.FmtDuration(h.P50), obs.FmtDuration(h.P95), obs.FmtDuration(h.P99))
		}
		if rejected := s.CounterTotal("serve_jobs_rejected"); rejected > 0 {
			fmt.Fprintf(&b, ", %d rejected", rejected)
		}
	}
	// Multi-part job-graph digest: segment/rung parts completed, plus the
	// fan-out (submit -> all parts dispatched) and stitch (first part done
	// -> parent settled) latencies of the segmented jobs.
	if parts := s.CounterTotal("serve_parts_completed"); parts > 0 {
		fmt.Fprintf(&b, ", %d segment parts", parts)
		fan, okF := s.HistogramByName("serve_fanout_ns")
		st, okS := s.HistogramByName("serve_stitch_ns")
		if okF && fan.Count > 0 && okS && st.Count > 0 {
			fmt.Fprintf(&b, " (fan-out p50 %s, stitch p50 %s)",
				obs.FmtDuration(fan.P50), obs.FmtDuration(st.P50))
		}
	}
	// Fleet orchestrator digest: live workers, how busy, and the failure
	// machinery's activity (reassigned leases, heartbeat misses).
	if workers, ok := s.Gauges["fleet_workers"]; ok {
		fmt.Fprintf(&b, ", fleet %d workers (%d busy)", workers, s.GaugeTotal("fleet_worker_busy"))
		if re := s.CounterTotal("fleet_lease_reassigned"); re > 0 {
			fmt.Fprintf(&b, ", %d leases reassigned", re)
		}
		if miss := s.CounterTotal("fleet_heartbeat_miss"); miss > 0 {
			fmt.Fprintf(&b, ", %d heartbeat misses", miss)
		}
	}
	// Worker-side digest (cmd/worker processes).
	if ran := s.CounterTotal("worker_jobs_done"); ran > 0 {
		fmt.Fprintf(&b, ", ran %d leased jobs", ran)
		if aborts := s.CounterTotal("worker_lease_aborts"); aborts > 0 {
			fmt.Fprintf(&b, " (%d aborted)", aborts)
		}
	}
	return b.String()
}
