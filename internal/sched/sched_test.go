package sched

import (
	"context"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/uarch"
)

func TestTableIIIMatchesPaper(t *testing.T) {
	tasks := TableIII()
	if len(tasks) != 4 {
		t.Fatalf("%d tasks, Table III lists 4", len(tasks))
	}
	want := []Task{
		{"task1", "desktop", 30, 8, "veryfast"},
		{"task2", "holi", 10, 1, "slow"},
		{"task3", "presentation", 35, 6, "veryfast"},
		{"task4", "game2", 15, 2, "medium"},
	}
	for i, task := range tasks {
		if task != want[i] {
			t.Errorf("task %d: %+v, want %+v", i, task, want[i])
		}
	}
}

func TestTaskOptionsPinCRFAndRefs(t *testing.T) {
	task := TableIII()[0] // veryfast preset has refs=1, task pins 8
	opt, err := task.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.CRF != 30 || opt.Refs != 8 {
		t.Fatalf("task options crf=%d refs=%d", opt.CRF, opt.Refs)
	}
	if opt.ME.String() != "hex" {
		t.Fatalf("veryfast me = %v", opt.ME)
	}
}

// fakeMatrix builds a Matrix with hand-written seconds and baseline
// profiles, bypassing simulation.
func fakeMatrix() *Matrix {
	configs := uarch.TableIV()
	mkReport := func(fe, bs, mem, core float64) *perf.Report {
		return &perf.Report{Topdown: perf.Topdown{
			FrontEnd: fe, BadSpec: bs, MemBound: mem, CoreBound: core,
			BackEnd: mem + core, Retiring: 100 - fe - bs - mem - core,
		}}
	}
	m := &Matrix{
		Tasks:   TableIII(),
		Configs: configs,
		// Columns: baseline, fe_op, be_op1, be_op2, bs_op.
		Seconds: [][]float64{
			{1.00, 0.93, 0.99, 0.99, 0.99}, // task1: front-end bound
			{1.00, 0.99, 0.94, 0.98, 0.99}, // task2: memory bound
			{1.00, 0.99, 0.98, 0.92, 0.99}, // task3: core bound
			{1.00, 0.99, 0.99, 0.98, 0.93}, // task4: bad speculation
		},
		Reports: [][]*perf.Report{
			{mkReport(30, 2, 10, 5), nil, nil, nil, nil},
			{mkReport(3, 2, 40, 5), nil, nil, nil, nil},
			{mkReport(3, 2, 10, 35), nil, nil, nil, nil},
			{mkReport(3, 40, 10, 5), nil, nil, nil, nil},
		},
	}
	return m
}

func TestSmartAssignmentRecoversClearBottlenecks(t *testing.T) {
	m := fakeMatrix()
	o, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// With one clear bottleneck per task, smart must route each task to
	// its matching configuration (configs 1..4 after removing baseline).
	want := []int{1, 2, 3, 4}
	for i := range want {
		if o.SmartAssign[i] != want[i] {
			t.Fatalf("smart assignment %v, want %v", o.SmartAssign, want)
		}
	}
	if o.SmartMatchesBest != 4 {
		t.Fatalf("smart should match best on all clear-cut tasks, got %d", o.SmartMatchesBest)
	}
	// Ordering: best >= smart >= random in this construction.
	sBest := Speedup(o.BaselineSeconds, o.BestSeconds)
	sSmart := Speedup(o.BaselineSeconds, o.SmartSeconds)
	sRand := Speedup(o.BaselineSeconds, o.RandomSeconds)
	if !(sBest >= sSmart && sSmart > sRand) {
		t.Fatalf("speedup ordering violated: best %f smart %f random %f", sBest, sSmart, sRand)
	}
}

func TestEvaluateRequiresBaseline(t *testing.T) {
	m := fakeMatrix()
	m.Configs = m.Configs[1:] // drop baseline
	for i := range m.Seconds {
		m.Seconds[i] = m.Seconds[i][1:]
		m.Reports[i] = m.Reports[i][1:]
	}
	if _, err := m.Evaluate(); err == nil {
		t.Fatal("matrix without baseline must error")
	}
}

func TestEvaluateRejectsTooFewConfigs(t *testing.T) {
	m := fakeMatrix()
	// Keep baseline plus a single optimized config for four tasks.
	m.Configs = m.Configs[:2]
	for i := range m.Seconds {
		m.Seconds[i] = m.Seconds[i][:2]
		m.Reports[i] = m.Reports[i][:2]
	}
	if _, err := m.Evaluate(); err == nil {
		t.Fatal("under-provisioned matrix must error, not panic")
	}
}

func TestSpeedupMeanPerTask(t *testing.T) {
	base := []float64{2, 2}
	x := []float64{1, 2} // 100% and 0%
	if s := Speedup(base, x); math.Abs(s-50) > 1e-9 {
		t.Fatalf("speedup %f, want 50", s)
	}
	if s := Speedup(base, []float64{0, 0}); s != 0 {
		t.Fatalf("zero times must not divide: %f", s)
	}
}

func TestAffinityMapping(t *testing.T) {
	rep := &perf.Report{Topdown: perf.Topdown{FrontEnd: 10, BadSpec: 20, MemBound: 30, CoreBound: 40}}
	cfgFE, _ := uarch.ByName("fe_op")
	cfgBS, _ := uarch.ByName("bs_op")
	cfgBase, _ := uarch.ByName("baseline")
	if Affinity(rep, cfgFE) <= 0 || Affinity(rep, cfgBS) <= 0 {
		t.Fatal("affinities must be positive for nonzero shares")
	}
	if Affinity(rep, cfgBase) != 0 {
		t.Fatal("baseline has no affinity")
	}
}

// TestMeasureNamesFailingCell checks Measure's error path: a task whose
// video is unknown fails, and the error names the task and the first
// configuration of its row in plan order, wrapping the catalog's error.
func TestMeasureNamesFailingCell(t *testing.T) {
	tasks := []Task{{"ghost", "nosuchvideo", 23, 1, codec.PresetMedium}}
	configs := uarch.TableIV()[:2]
	m, err := Measure(context.Background(), tasks, configs, core.Workload{Frames: 2})
	if err == nil {
		t.Fatalf("unknown video measured: %+v", m)
	}
	want := "sched: ghost on " + configs[0].Name + `: vbench: unknown video "nosuchvideo"`
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
