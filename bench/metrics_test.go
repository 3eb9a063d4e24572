package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {75, 8}, {90, 9}, {95, 10}, {99, 10}, {0, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The tail is reported at the highest percentile that still has ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {5000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestMetricSetCatchesHarnessBugs(t *testing.T) {
	m := newMetricSet([]metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}})
	m.set("a", 1)
	if got := m.missing(); len(got) != 1 || got[0] != "b" {
		t.Errorf("missing = %v, want [b]", got)
	}
	m.set("a", 2)
	m.set("c", 3)
	if len(m.errs) != 2 {
		t.Errorf("errs = %v, want a duplicate and an undeclared name", m.errs)
	}
	if m.values["a"].Value != 1 || m.values["a"].Unit != "ms" {
		t.Errorf("first value must stand: %+v", m.values["a"])
	}
	m.fillZero()
	if len(m.missing()) != 0 || m.values["b"].Value != 0 {
		t.Errorf("fillZero left %v", m.missing())
	}
}

func TestWorseBy(t *testing.T) {
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	if got := worseBy(lower, 100, 110); got != 0.1 {
		t.Errorf("lower-is-better 100 -> 110: %g, want 0.1", got)
	}
	if got := worseBy(higher, 100, 90); got != 0.1 {
		t.Errorf("higher-is-better 100 -> 90: %g, want 0.1", got)
	}
	if got := worseBy(higher, 100, 120); got >= 0 {
		t.Errorf("an improvement must read negative, got %g", got)
	}
}

// BENCHMARK.json at the repository root is what the pipeline reads; the
// tables in metrics.go and harness.go are what the harness emits. They must
// say the same thing.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, harness {%s %s}", i, man.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: manifest %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", man.EndToEnd, endToEnd)
	same("per_layer", man.PerLayer, perLayer)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %+v breaks the manifest's naming rules (or repeats)", d)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 || len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", man.RunSeconds, man.Paths)
	}
}
