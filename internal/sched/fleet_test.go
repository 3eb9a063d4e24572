package sched

import (
	"testing"

	"repro/internal/perf"
	"repro/internal/uarch"
)

func TestGenerateTasksDeterministic(t *testing.T) {
	a := GenerateTasks(20, 7)
	b := GenerateTasks(20, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("task %d differs between identical seeds", i)
		}
	}
	c := GenerateTasks(20, 8)
	same := 0
	for i := range a {
		if a[i].Video == c[i].Video && a[i].CRF == c[i].CRF {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical tasks")
	}
}

func TestGenerateTasksInRange(t *testing.T) {
	for _, task := range GenerateTasks(100, 3) {
		if task.CRF < 10 || task.CRF > 44 {
			t.Fatalf("crf %d out of range", task.CRF)
		}
		if task.Refs < 1 || task.Refs > 8 {
			t.Fatalf("refs %d out of range", task.Refs)
		}
		opt, err := task.Options()
		if err != nil {
			t.Fatalf("%+v: %v", task, err)
		}
		if err := opt.Validate(); err != nil {
			t.Fatalf("%+v: %v", task, err)
		}
	}
}

// TestAssignPoolRoutesByBottleneck: on a fleet that repeats every
// configuration, the smart scheduler routes each task to a distinct server
// of its bottleneck's configuration.
func TestAssignPoolRoutesByBottleneck(t *testing.T) {
	mk := func(fe, bs, mem, core float64) *perf.Report {
		return &perf.Report{Topdown: perf.Topdown{
			FrontEnd: fe, BadSpec: bs, MemBound: mem, CoreBound: core, BackEnd: mem + core,
		}}
	}
	tasks := GenerateTasks(4, 1)
	reports := []*perf.Report{
		mk(40, 2, 5, 3), // front-end bound
		mk(2, 40, 5, 3), // bad speculation
		mk(2, 2, 45, 3), // memory bound
		mk(2, 2, 5, 45), // core bound
	}
	// Two servers of each optimized configuration.
	var configs []uarch.Config
	for _, spec := range SoftwareFleet(uarch.TableIV()[1:], 2) {
		configs = append(configs, spec.Config)
	}
	assign, err := SmartAssignment(tasks, reports, configs)
	if err != nil {
		t.Fatal(err)
	}
	wantName := []string{"fe_op", "bs_op", "be_op1", "be_op2"}
	seen := map[int]bool{}
	for ti, si := range assign {
		if seen[si] {
			t.Fatalf("server %d assigned twice", si)
		}
		seen[si] = true
		if configs[si].Name != wantName[ti] {
			t.Fatalf("task %d routed to %s, want %s", ti, configs[si].Name, wantName[ti])
		}
	}
}

// TestAssignPoolOverloadErrors: a fleet with fewer servers than tasks is an
// error, not a panic.
func TestAssignPoolOverloadErrors(t *testing.T) {
	tasks := GenerateTasks(3, 5)
	reports := []*perf.Report{{}, {}, {}}
	if _, err := SmartAssignment(tasks, reports, []uarch.Config{uarch.Baseline()}); err == nil {
		t.Fatal("3 tasks on a 1-server fleet must return an error")
	}
}

// TestAssignDynamic exercises placement over a free set that changes
// between batches — the dynamic-fleet shape where workers register, go
// busy and crash between placement cycles.
func TestAssignDynamic(t *testing.T) {
	mk := func(fe, bs, mem, core float64) *perf.Report {
		return &perf.Report{Topdown: perf.Topdown{
			FrontEnd: fe, BadSpec: bs, MemBound: mem, CoreBound: core, BackEnd: mem + core,
		}}
	}
	byName := func(name string) uarch.Config {
		c, ok := uarch.ByName(name)
		if !ok {
			t.Fatalf("unknown config %s", name)
		}
		return c
	}
	feBound, bsBound := mk(40, 2, 5, 3), mk(2, 40, 5, 3)

	// Batch 1: both specialists free — each job routes to its bottleneck fix.
	free := []uarch.Config{byName("fe_op"), byName("bs_op")}
	assign := AssignDynamicBiased([]*perf.Report{feBound, bsBound}, free, nil)
	if free[assign[0]].Name != "fe_op" || free[assign[1]].Name != "bs_op" {
		t.Fatalf("assign %v routed to %s/%s, want fe_op/bs_op",
			assign, free[assign[0]].Name, free[assign[1]].Name)
	}

	// Batch 2: the fe_op worker left (crashed mid-heartbeat); the same
	// front-end-bound job must still place on what remains.
	free = []uarch.Config{byName("bs_op"), byName("be_op1")}
	assign = AssignDynamicBiased([]*perf.Report{feBound}, free, nil)
	if assign[0] < 0 || assign[0] >= len(free) {
		t.Fatalf("assign %v: job unplaced despite free workers", assign)
	}

	// Batch 3: overload — three jobs, one free worker. Exactly one places;
	// the rest report -1 and stay queued.
	free = []uarch.Config{byName("fe_op")}
	assign = AssignDynamicBiased([]*perf.Report{feBound, bsBound, feBound}, free, nil)
	placed := 0
	for _, j := range assign {
		if j >= 0 {
			placed++
		}
	}
	if placed != 1 {
		t.Fatalf("assign %v placed %d jobs on one worker", assign, placed)
	}

	// Cold rows (nil report) are never matched, even with workers to spare.
	free = []uarch.Config{byName("fe_op"), byName("bs_op")}
	assign = AssignDynamicBiased([]*perf.Report{nil, bsBound}, free, nil)
	if assign[0] != -1 {
		t.Fatalf("cold row placed at %d, want -1", assign[0])
	}
	if free[assign[1]].Name != "bs_op" {
		t.Fatalf("warm row routed to %s, want bs_op", free[assign[1]].Name)
	}

	// A joined worker set larger than the batch leaves the extras idle.
	if got := AssignDynamicBiased(nil, free, nil); len(got) != 0 {
		t.Fatalf("empty batch assigned %v", got)
	}
}

// TestAssignDynamicBiased pins the load-spreading tiebreak: between two
// identical free workers a utilization bias steers the job to the idler
// one, while a real affinity gap overrides any plausible bias.
func TestAssignDynamicBiased(t *testing.T) {
	mk := func(fe, bs, mem, core float64) *perf.Report {
		return &perf.Report{Topdown: perf.Topdown{
			FrontEnd: fe, BadSpec: bs, MemBound: mem, CoreBound: core, BackEnd: mem + core,
		}}
	}
	byName := func(name string) uarch.Config {
		c, ok := uarch.ByName(name)
		if !ok {
			t.Fatalf("unknown config %s", name)
		}
		return c
	}
	feBound := mk(40, 2, 5, 3)

	// Two identical workers: affinity ties, bias decides. Slot 0 is busier.
	free := []uarch.Config{byName("fe_op"), byName("fe_op")}
	assign := AssignDynamicBiased([]*perf.Report{feBound}, free, []float64{0.04, 0.0})
	if assign[0] != 1 {
		t.Fatalf("tied affinity placed on slot %d, want idler slot 1", assign[0])
	}
	// Reversed bias reverses the choice.
	assign = AssignDynamicBiased([]*perf.Report{feBound}, free, []float64{0.0, 0.04})
	if assign[0] != 0 {
		t.Fatalf("tied affinity placed on slot %d, want idler slot 0", assign[0])
	}

	// Affinity gap dominates: the front-end specialist wins even at full
	// utilization bias against it.
	free = []uarch.Config{byName("fe_op"), byName("bs_op")}
	assign = AssignDynamicBiased([]*perf.Report{feBound}, free, []float64{0.05, 0.0})
	if free[assign[0]].Name != "fe_op" {
		t.Fatalf("bias overrode affinity: placed on %s", free[assign[0]].Name)
	}

	// Nil bias is the all-zero bias.
	a := AssignDynamicBiased([]*perf.Report{feBound}, free, nil)
	b := AssignDynamicBiased([]*perf.Report{feBound}, free, []float64{0, 0})
	if a[0] != b[0] {
		t.Fatalf("nil-bias assignment %v differs from zero-bias %v", a, b)
	}
}
