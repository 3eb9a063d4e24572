package sched

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/perf"
	"repro/internal/uarch"
)

func warmReport(seconds, frontEnd float64) *perf.Report {
	return &perf.Report{
		Config:  "baseline",
		Seconds: seconds,
		Topdown: perf.Topdown{FrontEnd: frontEnd, BadSpec: 2, CoreBound: 20, MemBound: 25, Retiring: 40},
	}
}

func softSpec(name string, price float64) backend.ServerSpec {
	cfg, ok := uarch.ByName(name)
	if !ok {
		panic("unknown config " + name)
	}
	return backend.ServerSpec{Backend: backend.Software, Config: cfg, PriceCentsHour: price}
}

func accelSpec(price float64) backend.ServerSpec {
	return backend.ServerSpec{Backend: backend.Accel, PriceCentsHour: price}
}

func crfJob(rep *perf.Report) HeteroJob {
	opt := codec.Defaults() // medium: hex, refs 3, trellis 1 → accel-feasible
	opt.Refs = 3
	return HeteroJob{Report: rep, Opts: opt, Frames: 4, Width: 64, Height: 64}
}

func TestPredictSeconds(t *testing.T) {
	model := backend.DefaultAccel()
	rep := warmReport(0.01, 15)
	soft := softSpec("fe_op", 42)
	sec, ok := PredictSeconds(rep, soft, model, 4, 64, 64)
	if !ok {
		t.Fatal("warm software not predictable")
	}
	// fe_op affinity = 0.60 × 15% = 9% faster than baseline.
	want := 0.01 * (1 - 0.09)
	if diff := sec - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("software predict = %v, want %v", sec, want)
	}
	if _, ok := PredictSeconds(nil, soft, model, 4, 64, 64); ok {
		t.Fatal("cold software claimed predictable")
	}
	asec, ok := PredictSeconds(nil, accelSpec(250), model, 4, 64, 64)
	if !ok || asec != model.Seconds(4, 64, 64) {
		t.Fatalf("accel predict = %v ok=%v, want closed-form %v", asec, ok, model.Seconds(4, 64, 64))
	}
}

func TestFeasibleQualityFloor(t *testing.T) {
	model := backend.DefaultAccel()
	job := crfJob(nil)
	job.Opts.CRF = 26
	// Floor 28: accel effective CRF 26+4=30 > 28 → infeasible on accel,
	// always feasible on software.
	job.QualityFloor = 28
	if Feasible(job, accelSpec(250), model) {
		t.Fatal("quality floor not enforced on accel")
	}
	if !Feasible(job, softSpec("baseline", 34), model) {
		t.Fatal("software should ignore quality floor")
	}
	job.QualityFloor = 30
	if !Feasible(job, accelSpec(250), model) {
		t.Fatal("floor 30 should admit accel at CRF 26 (+4)")
	}
}

func TestAssignHeteroCostVsSeconds(t *testing.T) {
	model := backend.DefaultAccel()
	// One warm job; two servers: a cheap software box and a fast but
	// expensive accelerator. Seconds objective picks the accel (faster);
	// cost objective picks the software box (cheaper per encode).
	rep := warmReport(0.01, 15)
	job := crfJob(rep)
	free := []backend.ServerSpec{softSpec("baseline", 34), accelSpec(100000)}
	sec := AssignHetero([]HeteroJob{job}, free, model, ObjectiveSeconds, nil)
	if sec[0] != 1 {
		t.Fatalf("seconds objective chose %d, want accel (1)", sec[0])
	}
	cost := AssignHetero([]HeteroJob{job}, free, model, ObjectiveCost, nil)
	if cost[0] != 0 {
		t.Fatalf("cost objective chose %d, want software (0)", cost[0])
	}
}

func TestAssignHeteroMasksDeadline(t *testing.T) {
	model := backend.DefaultAccel()
	rep := warmReport(0.01, 15)
	job := crfJob(rep)
	// Deadline below every predictable cell: both columns mask, job stays
	// unplaced rather than being silently placed late.
	job.DeadlineSeconds = 1e-9
	free := []backend.ServerSpec{softSpec("baseline", 34), accelSpec(250)}
	out := AssignHetero([]HeteroJob{job}, free, model, ObjectiveCost, nil)
	if out[0] != -1 {
		t.Fatalf("deadline-infeasible job placed on %d, want -1", out[0])
	}
	// A deadline only the accel can meet must route to the accel even
	// under the cost objective (software is cheaper but masked).
	job.DeadlineSeconds = model.Seconds(4, 64, 64) * 2
	if job.DeadlineSeconds >= 0.01 {
		t.Fatal("test geometry broken: accel deadline would admit software too")
	}
	out = AssignHetero([]HeteroJob{job}, free, model, ObjectiveCost, nil)
	if out[0] != 1 {
		t.Fatalf("tight deadline chose %d, want accel (1)", out[0])
	}
}

func TestAssignHeteroMasksOptionSurface(t *testing.T) {
	model := backend.DefaultAccel()
	rep := warmReport(0.01, 15)
	job := crfJob(rep)
	job.Opts.Refs = 8 // beyond the accel DPB
	free := []backend.ServerSpec{accelSpec(250)}
	out := AssignHetero([]HeteroJob{job}, free, model, ObjectiveSeconds, nil)
	if out[0] != -1 {
		t.Fatalf("options-infeasible job placed on accel, want -1")
	}
	if FeasibleAnywhere(job, free, model) {
		t.Fatal("FeasibleAnywhere true with only an option-rejecting accel")
	}
}

func TestAssignHeteroColdRowsFallBack(t *testing.T) {
	model := backend.DefaultAccel()
	out := AssignHetero([]HeteroJob{crfJob(nil)}, []backend.ServerSpec{softSpec("baseline", 34), accelSpec(250)}, model, ObjectiveCost, nil)
	if out[0] != -1 {
		t.Fatalf("cold job placed by matrix (%d), want -1 fallback", out[0])
	}
}

func TestFeasibleAnywhereOptimisticWhenCold(t *testing.T) {
	model := backend.DefaultAccel()
	job := crfJob(nil)
	job.DeadlineSeconds = 1e-12
	// A cold software class cannot be predicted → optimistic admit.
	if !FeasibleAnywhere(job, []backend.ServerSpec{softSpec("baseline", 34)}, model) {
		t.Fatal("cold software class should be optimistic")
	}
	// The accel IS predictable, and misses the deadline → reject when it
	// is the only class.
	if FeasibleAnywhere(job, []backend.ServerSpec{accelSpec(250)}, model) {
		t.Fatal("accel-only fleet should reject an impossible deadline")
	}
	// Warm software class that cannot meet the deadline either → reject.
	job.Report = warmReport(0.01, 15)
	if FeasibleAnywhere(job, []backend.ServerSpec{softSpec("baseline", 34), accelSpec(250)}, model) {
		t.Fatal("fully predictable infeasible deadline should reject")
	}
}

// TestAdmits pins the one rule of where a job may run, row by row, and that
// admission (FeasibleAnywhere over one class) and a warm row's placement
// mask (AssignHetero over one server) both say what it says.
func TestAdmits(t *testing.T) {
	model := backend.DefaultAccel()
	warm := warmReport(0.01, 15)
	accelSec := model.Seconds(4, 64, 64)
	job := func(rep *perf.Report, deadline float64, edit func(*HeteroJob)) HeteroJob {
		j := crfJob(rep)
		j.DeadlineSeconds = deadline
		if edit != nil {
			edit(&j)
		}
		return j
	}
	refs8 := func(j *HeteroJob) { j.Opts.Refs = 8 }                       // beyond the accel DPB
	floor28 := func(j *HeteroJob) { j.Opts.CRF, j.QualityFloor = 26, 28 } // accel: 26+4 > 28
	for _, c := range []struct {
		name string
		job  HeteroJob
		spec backend.ServerSpec
		want bool
	}{
		{"cold software, no deadline", job(nil, 0, nil), softSpec("baseline", 34), true},
		{"cold software is optimistic", job(nil, 1e-12, nil), softSpec("baseline", 34), true},
		{"accel outside its option surface", job(warm, 0, refs8), accelSpec(250), false},
		{"cold row, accel outside its option surface", job(nil, 0, refs8), accelSpec(250), false},
		{"accel past the quality floor", job(warm, 0, floor28), accelSpec(250), false},
		{"software ignores the quality floor", job(warm, 0, floor28), softSpec("baseline", 34), true},
		{"warm software, no deadline", job(warm, 0, nil), softSpec("fe_op", 42), true},
		{"warm software, deadline met", job(warm, 0.01, nil), softSpec("fe_op", 42), true},
		{"warm software, deadline missed", job(warm, 1e-9, nil), softSpec("fe_op", 42), false},
		{"accel, no deadline", job(warm, 0, nil), accelSpec(250), true},
		{"accel, deadline met", job(warm, 2*accelSec, nil), accelSpec(250), true},
		{"accel, deadline missed", job(warm, accelSec/2, nil), accelSpec(250), false},
		{"cold row, accel deadline missed", job(nil, accelSec/2, nil), accelSpec(250), false},
	} {
		if got := Admits(c.job, c.spec, model); got != c.want {
			t.Errorf("%s: Admits = %v, want %v", c.name, got, c.want)
		}
		if got := FeasibleAnywhere(c.job, []backend.ServerSpec{c.spec}, model); got != c.want {
			t.Errorf("%s: FeasibleAnywhere = %v, want %v", c.name, got, c.want)
		}
		if c.job.Report == nil {
			continue // a cold row is placed by the caller's fallback
		}
		placed := AssignHetero([]HeteroJob{c.job}, []backend.ServerSpec{c.spec}, model, ObjectiveCost, nil)[0] == 0
		if placed != c.want {
			t.Errorf("%s: AssignHetero placed = %v, want %v", c.name, placed, c.want)
		}
	}
}

// TestFleetFromPoolDefaults: every server SoftwareFleet builds is a
// default-priced software server.
func TestFleetFromPoolDefaults(t *testing.T) {
	f := SoftwareFleet(uarch.TableIV(), 1)
	if len(f) != len(uarch.TableIV()) {
		t.Fatalf("fleet size %d", len(f))
	}
	for _, s := range f {
		if s.Backend != backend.Software || s.PriceCentsHour <= 0 {
			t.Fatalf("spec not defaulted: %+v", s)
		}
	}
}

// TestUniformPool: SoftwareFleet repeats each configuration once per
// replica, and replicas interleave — the configs in order, then again.
func TestUniformPool(t *testing.T) {
	configs := uarch.TableIV()[1:]
	f := SoftwareFleet(configs, 3)
	if len(f) != 3*len(configs) {
		t.Fatalf("fleet size %d", len(f))
	}
	counts := map[string]int{}
	for i, s := range f {
		counts[s.Config.Name]++
		if want := configs[i%len(configs)].Name; s.Config.Name != want {
			t.Fatalf("server %d is %s, want %s", i, s.Config.Name, want)
		}
	}
	for name, n := range counts {
		if n != 3 {
			t.Fatalf("%s appears %d times", name, n)
		}
	}
}
