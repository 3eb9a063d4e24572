package cli

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestInts(t *testing.T) {
	got, err := Ints("1,6,,11,")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 6, 11}) {
		t.Fatalf("Ints = %v", got)
	}
	if _, err := Ints("1,x"); err == nil {
		t.Fatal("bad token accepted")
	}
	got, err = Ints("")
	if err != nil || got != nil {
		t.Fatalf("empty list = %v, %v", got, err)
	}
}

func TestStrings(t *testing.T) {
	if got := Strings("a,,b,"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Strings = %v", got)
	}
	if got := Strings(""); got != nil {
		t.Fatalf("Strings(\"\") = %v", got)
	}
}

func TestProgressOff(t *testing.T) {
	if Progress("x", true) != nil {
		t.Fatal("off progress not nil")
	}
	if Progress("x", false) == nil {
		t.Fatal("on progress is nil")
	}
}

func TestSummaryLine(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("core_sweep_points_total").Add(16)
	r.Counter("core_sweep_points_failed").Add(2)
	r.Counter("core_sweep_points_shared").Add(5)
	r.Counter("core_cache_hits", "cache", "snapshot").Add(12)
	r.Counter("core_cache_misses", "cache", "snapshot").Add(4)
	r.Counter("core_cache_bytes", "cache", "decoded").Add(3 << 20)
	r.Counter("core_cache_evictions", "cache", "decoded").Add(5)
	for i := 0; i < 16; i++ {
		r.Histogram("core_sweep_point_ns").Observe(int64(50+i) * 1e6)
	}
	line := SummaryLine("sweep", r.Snapshot())
	for _, want := range []string{
		"sweep:", "16 points", "(2 failed)", "(5 shared a run)", "p50", "p95", "p99",
		"12 hits / 4 misses", "3.0 MiB resident", "5 evicted",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("summary line missing %q: %s", want, line)
		}
	}
}

func TestSummaryLineServe(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("serve_jobs_completed").Add(50)
	r.Counter("serve_jobs_rejected").Add(3)
	for i := 0; i < 50; i++ {
		r.Histogram("serve_sojourn_ns").Observe(int64(10+i) * 1e6)
	}
	line := SummaryLine("serve", r.Snapshot())
	for _, want := range []string{
		"serve:", "served 50 jobs", "sojourn p50", "p95", "p99", "3 rejected",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("summary line missing %q: %s", want, line)
		}
	}
	if strings.Contains(line, "segment parts") {
		t.Errorf("summary line mentions parts without any: %s", line)
	}

	// Segmented/ladder jobs add the part digest with both graph latencies.
	r.Counter("serve_parts_completed").Add(8)
	r.Histogram("serve_fanout_ns").Observe(2e6)
	r.Histogram("serve_stitch_ns").Observe(5e6)
	line = SummaryLine("serve", r.Snapshot())
	for _, want := range []string{"8 segment parts", "fan-out p50", "stitch p50"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary line missing %q: %s", want, line)
		}
	}
}

func TestBaseURL(t *testing.T) {
	for in, want := range map[string]string{
		"localhost:8080":      "http://localhost:8080",
		"http://host:8080/":   "http://host:8080",
		"https://host/":       "https://host",
		"http://host:8080///": "http://host:8080",
		"10.0.0.7:9090":       "http://10.0.0.7:9090",
		"":                    "",
	} {
		if got := BaseURL(in); got != want {
			t.Errorf("BaseURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSummaryLineFleet(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("fleet_workers").Set(3)
	r.Gauge("fleet_worker_busy", "worker", "w1").Set(1)
	r.Gauge("fleet_worker_busy", "worker", "w2").Set(1)
	r.Counter("fleet_lease_reassigned").Add(2)
	r.Counter("fleet_heartbeat_miss").Add(1)
	line := SummaryLine("serve", r.Snapshot())
	for _, want := range []string{
		"fleet 3 workers (2 busy)", "2 leases reassigned", "1 heartbeat misses",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("fleet summary missing %q: %s", want, line)
		}
	}

	// Worker-side digest renders independently of the orchestrator clause.
	w := obs.NewRegistry()
	w.Counter("worker_jobs_done").Add(7)
	w.Counter("worker_lease_aborts").Add(1)
	line = SummaryLine("worker", w.Snapshot())
	for _, want := range []string{"ran 7 leased jobs", "(1 aborted)"} {
		if !strings.Contains(line, want) {
			t.Errorf("worker summary missing %q: %s", want, line)
		}
	}
}

func TestSummaryLineEmpty(t *testing.T) {
	// A run that swept nothing still renders a valid (terse) line.
	if got := SummaryLine("vprof", obs.NewRegistry().Snapshot()); got != "vprof:" {
		t.Fatalf("empty summary = %q", got)
	}
}

// TestCPUProfileWritten: with -cpuprofile set, a run leaves a complete
// profile behind (a gzip stream, as runtime/pprof writes it) whether it
// succeeds, fails or is canceled.
func TestCPUProfileWritten(t *testing.T) {
	defer func(old string) { *flagCPUProfile = old }(*flagCPUProfile)
	busy := func(context.Context) error {
		x := 0
		for i := 0; i < 1e7; i++ {
			x += i * i
		}
		if x == 0 {
			return errors.New("unreachable")
		}
		return nil
	}
	for _, c := range []struct {
		name string
		run  func(context.Context) error
		code int
	}{
		{"ok", busy, 0},
		{"failed", func(ctx context.Context) error { busy(ctx); return errors.New("boom") }, 1},
		{"canceled", func(ctx context.Context) error { busy(ctx); return context.Canceled }, 130},
	} {
		*flagCPUProfile = filepath.Join(t.TempDir(), c.name+".pprof")
		if code := runMain("test", c.run); code != c.code {
			t.Errorf("%s: exit code %d, want %d", c.name, code, c.code)
		}
		b, err := os.ReadFile(*flagCPUProfile)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: profile is %d B, not a gzip stream", c.name, len(b))
		}
	}
	// A profile that cannot be created fails the run before it starts.
	*flagCPUProfile = filepath.Join(t.TempDir(), "missing", "x.pprof")
	ran := false
	if code := runMain("test", func(context.Context) error { ran = true; return nil }); code != 1 || ran {
		t.Errorf("uncreatable profile: exit code %d, body ran %v; want 1, false", code, ran)
	}
}
