package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenManifest is a fixed manifest used for serialization tests: every
// field is pinned so the JSON layout is deterministic.
func goldenManifest() *Manifest {
	return &Manifest{
		Tool:        "sweep",
		Args:        []string{"-mode", "crf-refs", "-video", "presentation"},
		GitRev:      "0123456789abcdef0123456789abcdef01234567",
		GoVersion:   "go1.22.0",
		Start:       time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		WallSeconds: 1.5,
		Metrics: Snapshot{
			Counters: map[string]int64{"core_cache_hits{cache=mezzanine}": 4},
			Gauges:   map[string]int64{"exec_utilization_pct": 87},
			Histograms: map[string]HistogramSnapshot{
				"core_sweep_point_ns": {
					Count: 2, Sum: 3000, Min: 1000, Max: 2000,
					P50: 1000, P95: 2000, P99: 2000,
					Buckets: []Bucket{{Le: 1024, Count: 1}, {Le: 2048, Count: 1}},
				},
			},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	want := goldenManifest()
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Manifest)
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// Write twice: the serialized bytes must be identical (stable key
	// ordering), which is what makes manifests diffable across runs.
	path2 := filepath.Join(dir, "m2.json")
	if err := want.WriteFile(path2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Fatalf("manifest serialization not stable:\n%s\n%s", b1, b2)
	}
	// Spot-check the schema fields the bench gate and humans grep for.
	for _, field := range []string{`"tool"`, `"git_rev"`, `"wall_seconds"`, `"metrics"`, `"counters"`} {
		if !strings.Contains(string(b1), field) {
			t.Fatalf("manifest JSON missing %s:\n%s", field, b1)
		}
	}
}

func TestManifestGolden(t *testing.T) {
	data, err := json.MarshalIndent(goldenManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "tool": "sweep",
  "args": [
    "-mode",
    "crf-refs",
    "-video",
    "presentation"
  ],
  "git_rev": "0123456789abcdef0123456789abcdef01234567",
  "go_version": "go1.22.0",
  "start": "2026-08-05T12:00:00Z",
  "wall_seconds": 1.5,
  "metrics": {
    "counters": {
      "core_cache_hits{cache=mezzanine}": 4
    },
    "gauges": {
      "exec_utilization_pct": 87
    },
    "histograms": {
      "core_sweep_point_ns": {
        "count": 2,
        "sum": 3000,
        "min": 1000,
        "max": 2000,
        "p50": 1000,
        "p95": 2000,
        "p99": 2000,
        "buckets": [
          {
            "le": 1024,
            "count": 1
          },
          {
            "le": 2048,
            "count": 1
          }
        ]
      }
    }
  }
}`
	if string(data) != golden {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", data, golden)
	}
}

func TestGitRevFallback(t *testing.T) {
	// A temp dir outside any repository must fall back, not error out.
	dir := t.TempDir()
	if rev := GitRev(dir); rev != GitRevFallback {
		// The only way a temp dir resolves is the machine nesting TMPDIR
		// inside a repo; guard against that rather than fail spuriously.
		if _, err := os.Stat(filepath.Join(dir, ".git")); err != nil && !nestedInRepo(dir) {
			t.Fatalf("GitRev(%s) = %q, want %q", dir, rev, GitRevFallback)
		}
	}
}

// nestedInRepo reports whether some ancestor of dir is a git work tree.
func nestedInRepo(dir string) bool {
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, ".git")); err == nil {
			return true
		}
		if d == filepath.Dir(d) {
			return false
		}
	}
}

func TestNewManifestDefaults(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	start := time.Now().Add(-time.Second)
	m := NewManifest("paper", []string{"-fig", "3"}, start, r)
	if m.Tool != "paper" || len(m.Args) != 2 {
		t.Fatalf("tool/args: %+v", m)
	}
	if m.WallSeconds < 1 {
		t.Fatalf("wall %.3fs, want >= 1s", m.WallSeconds)
	}
	if m.GitRev == "" {
		t.Fatal("git rev empty (fallback missing)")
	}
	if m.GoVersion == "" {
		t.Fatal("go version empty")
	}
	if m.Metrics.Counters["c"] != 1 {
		t.Fatalf("metrics not snapshotted: %+v", m.Metrics)
	}
}
