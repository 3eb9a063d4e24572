package serve

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/backend"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/uarch"
)

// The dispatcher places every fleet through one matrix (sched.AssignHetero
// over predicted seconds). These tests pin it against two answers built
// without it: the raw-affinity matcher the pre-economic dispatcher used,
// and an exhaustive search.

// TestPlaceMatchesAffinityOracle: on an idle software-only Table IV pool a
// single job goes to the slot the affinity matcher picks — minimizing
// baseline seconds × (1 − affinity) over one row is maximizing affinity.
func TestPlaceMatchesAffinityOracle(t *testing.T) {
	s := newTestServer(t, Config{})
	tasks := sched.GenerateTasks(24, 7)
	videos := make([]string, len(tasks))
	for i, task := range tasks {
		videos[i] = task.Video
	}
	if err := s.Warm(context.Background(), videos); err != nil {
		t.Fatal(err)
	}
	free := s.transport.freeSlots()
	configs := make([]uarch.Config, len(free))
	for j, sl := range free {
		configs[j] = sl.spec.Config
	}
	for i, task := range tasks {
		rec := &record{seq: uint64(i + 1), task: task}
		got := s.place([]*record{rec}, free)[0]
		want := sched.AssignDynamicBiased([]*perf.Report{s.costOf(task.Video)}, configs, nil)[0]
		if got.mode != "smart" || got.slot != want {
			t.Errorf("%s (%s): placed %+v, affinity oracle picks slot %d (%s)",
				task.Name, task.Video, got, want, configs[want].Name)
		}
	}
}

// TestPlaceMatchesBruteForce: for seeded random batches of up to 4 jobs on
// up to 4 idle software slots (repeated configurations included), the
// placement's total predicted seconds is the minimum over every injective
// jobs→slots map.
func TestPlaceMatchesBruteForce(t *testing.T) {
	s := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(12))
	table := uarch.TableIV()
	videos := []string{"v0", "v1", "v2", "v3"}
	for trial := 0; trial < 200; trial++ {
		cols := 1 + rng.Intn(4)
		rows := 1 + rng.Intn(cols)
		free := make([]slot, cols)
		for j := range free {
			spec := backend.ServerSpec{Backend: backend.Software, Config: table[rng.Intn(len(table))]}.FillDefaults()
			free[j] = slot{id: "s" + strconv.Itoa(j), label: spec.Label(), spec: spec}
		}
		batch := make([]*record, rows)
		reports := make([]*perf.Report, rows)
		s.costMu.Lock()
		for i := range batch {
			reports[i] = &perf.Report{Config: "baseline", Seconds: 0.5 + rng.Float64(), Topdown: perf.Topdown{
				FrontEnd: 40 * rng.Float64(), BadSpec: 20 * rng.Float64(),
				MemBound: 30 * rng.Float64(), CoreBound: 30 * rng.Float64(),
			}}
			s.costs[videos[i]] = reports[i]
			batch[i] = &record{seq: uint64(trial*4 + i + 1), task: sched.Task{Video: videos[i]}}
		}
		s.costMu.Unlock()

		predicted := func(i, j int) float64 {
			sec, ok := sched.PredictSeconds(reports[i], free[j].spec, s.accel, 0, 0, 0)
			if !ok {
				t.Fatalf("trial %d: no prediction for warm software cell (%d,%d)", trial, i, j)
			}
			return sec
		}
		var got float64
		used := make([]bool, cols)
		for i, p := range s.place(batch, free) {
			if p.mode != "smart" || p.slot < 0 || used[p.slot] {
				t.Fatalf("trial %d: row %d placed %+v, want smart on a distinct slot", trial, i, p)
			}
			used[p.slot] = true
			got += predicted(i, p.slot)
		}

		best := math.Inf(1)
		taken := make([]bool, cols)
		var search func(i int, sum float64)
		search = func(i int, sum float64) {
			if i == rows {
				best = math.Min(best, sum)
				return
			}
			for j := 0; j < cols; j++ {
				if !taken[j] {
					taken[j] = true
					search(i+1, sum+predicted(i, j))
					taken[j] = false
				}
			}
		}
		search(0, 0)
		if math.Abs(got-best) > 1e-9*best {
			t.Fatalf("trial %d (%dx%d): placement costs %.12f predicted seconds, brute-force minimum is %.12f",
				trial, rows, cols, got, best)
		}
	}
}
