package perf

import (
	"os"
	"path/filepath"
	"testing"
)

func benchBase() []BenchEntry {
	return []BenchEntry{
		{Name: "BenchmarkDecodeReplay", NsPerOp: 14_000_000, AllocsPerOp: 32},
		{Name: "BenchmarkSweepCRFRefsCached", NsPerOp: 276_000_000, AllocsPerOp: 7769},
		{Name: "BenchmarkSweepCRFRefsUncached", NsPerOp: 557_000_000, AllocsPerOp: 8121},
	}
}

func TestCompareBenchWithinTolerance(t *testing.T) {
	base := benchBase()
	cur := benchBase()
	cur[0].NsPerOp *= 1.08 // +8%: inside a ±10% gate
	cur[1].NsPerOp *= 0.85 // faster is always fine
	deltas, err := CompareBench(base, cur, 0.10, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("deltas = %d, want 3", len(deltas))
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}
}

func TestCompareBenchCatchesSlowdown(t *testing.T) {
	base := benchBase()
	cur := benchBase()
	cur[1].NsPerOp *= 1.20 // the acceptance-criteria case: a 20% slowdown
	deltas, err := CompareBench(base, cur, 0.10, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Name != "BenchmarkSweepCRFRefsCached" {
		t.Fatalf("regressions = %+v, want exactly the doctored benchmark", regs)
	}
	if regs[0].Ratio < 1.19 || regs[0].Ratio > 1.21 {
		t.Fatalf("ratio = %v, want ~1.20", regs[0].Ratio)
	}
}

func TestCompareBenchCatchesAllocRegression(t *testing.T) {
	base := benchBase()
	cur := benchBase()
	cur[1].AllocsPerOp *= 1.35 // +35% allocs: outside the ±20% alloc gate
	deltas, err := CompareBench(base, cur, 0.10, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Name != "BenchmarkSweepCRFRefsCached" {
		t.Fatalf("regressions = %+v, want exactly the doctored benchmark", regs)
	}
	if regs[0].Regressed || !regs[0].AllocRegressed {
		t.Fatalf("want an alloc-only regression, got %+v", regs[0])
	}
	if regs[0].AllocRatio < 1.34 || regs[0].AllocRatio > 1.36 {
		t.Fatalf("alloc ratio = %v, want ~1.35", regs[0].AllocRatio)
	}
	// +15% allocs stays inside the wider alloc gate.
	cur[1].AllocsPerOp = base[1].AllocsPerOp * 1.15
	deltas, err = CompareBench(base, cur, 0.10, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}
}

func TestCompareBenchAllocFromZero(t *testing.T) {
	base := []BenchEntry{{Name: "BenchmarkSAD", NsPerOp: 400, AllocsPerOp: 0}}
	cur := []BenchEntry{{Name: "BenchmarkSAD", NsPerOp: 400, AllocsPerOp: 1}}
	deltas, err := CompareBench(base, cur, 0.10, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(deltas); len(regs) != 1 || !regs[0].AllocRegressed {
		t.Fatalf("zero-to-nonzero allocation not flagged: %+v", deltas)
	}
}

func TestCompareBenchMissingBenchmark(t *testing.T) {
	if _, err := CompareBench(benchBase(), benchBase()[:2], 0.10, 0.20); err == nil {
		t.Fatal("missing benchmark not rejected")
	}
}

func TestCompareBenchNewBenchmark(t *testing.T) {
	cur := append(benchBase(), BenchEntry{Name: "BenchmarkDeblock", NsPerOp: 900_000, AllocsPerOp: 0})
	deltas, err := CompareBench(benchBase(), cur, 0.10, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 4 {
		t.Fatalf("deltas = %d, want 4 (3 baseline + 1 new)", len(deltas))
	}
	var got *BenchDelta
	for i := range deltas {
		if deltas[i].Name == "BenchmarkDeblock" {
			got = &deltas[i]
		} else if deltas[i].New {
			t.Fatalf("baseline benchmark marked new: %+v", deltas[i])
		}
	}
	if got == nil || !got.New || got.NewNs != 900_000 || got.BaseNs != 0 {
		t.Fatalf("new benchmark delta = %+v, want informational New entry", got)
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("new benchmark regressed the gate: %+v", regs)
	}
}

func TestCompareBenchRejectsPartial(t *testing.T) {
	cur := append(benchBase(), BenchEntry{Name: "_note", Partial: true})
	if _, err := CompareBench(benchBase(), cur, 0.10, 0.20); err == nil {
		t.Fatal("partial run not rejected")
	}
}

func TestCompareBenchIgnoresMarkerRows(t *testing.T) {
	base := append(benchBase(), BenchEntry{Name: "_note"})
	deltas, err := CompareBench(base, benchBase(), 0.10, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("marker row compared: %+v", deltas)
	}
}

// TestMetaRowFieldsIgnored: scripts/bench.sh records the machine in the
// "_meta" row (estimator, nproc, gomaxprocs, go_version, git_rev, and
// whatever it grows next). The gate must read such a file and compare only
// the benchmarks in it, whichever side carries the row.
func TestMetaRowFieldsIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	const body = `[
  {"name": "BenchmarkDecodeReplay", "ns_per_op": 100, "allocs_per_op": 10},
  {"name": "_meta", "estimator": "min", "nproc": 16, "gomaxprocs": 16, "go_version": "go1.24.0", "git_rev": "abc1234-dirty", "some_later_field": {"x": [1, 2]}}
]`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	withMeta, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plain := []BenchEntry{{Name: "BenchmarkDecodeReplay", NsPerOp: 100, AllocsPerOp: 10}}
	for _, pair := range [][2][]BenchEntry{{withMeta, plain}, {plain, withMeta}, {withMeta, withMeta}} {
		deltas, err := CompareBench(pair[0], pair[1], 0.10, 0.20)
		if err != nil {
			t.Fatal(err)
		}
		if len(deltas) != 1 || deltas[0].Name != "BenchmarkDecodeReplay" || deltas[0].New || len(Regressions(deltas)) != 0 {
			t.Fatalf("meta row leaked into the comparison: %+v", deltas)
		}
	}
}

func TestReadBenchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	const body = `[
  {"name": "BenchmarkDecodeReplay", "ns_per_op": 13995578, "allocs_per_op": 32},
  {"name": "_note", "partial": true}
]`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].NsPerOp != 13995578 || !entries[1].Partial {
		t.Fatalf("parsed %+v", entries)
	}
	if _, err := ReadBenchFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file not reported")
	}
}
