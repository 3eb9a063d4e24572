// Command bench is the repository's end-to-end benchmark: the two things
// people use this repo for — a researcher's characterization sweep through
// core.Sweep*, and a client's transcode jobs through serve.Server.Handler()
// over loopback HTTP — measured as a user sees them, plus a traced run that
// attributes the time to layers. See README.md beside this file.
//
//	go run -C bench .                      all workloads, untraced then traced
//	go run -C bench . -workload W -trace 0 one run; last stdout line is the result JSON
//	go run -C bench . -check-repeat        two untraced sets must agree within the bounds
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var p params
	var traceFlag int
	var checkRepeat bool
	flag.StringVar(&p.workload, "workload", "", "run this one workload (default: all four, untraced then traced)")
	flag.Uint64Var(&p.seed, "seed", 1, "derives task order, content seeds and serve.Config.Seed")
	flag.Float64Var(&p.seconds, "seconds", runSeconds, "measured interval per run; whole rounds run until it has passed")
	flag.IntVar(&traceFlag, "trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&p.outDir, "out", "out", "directory for <workload>.trace.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the harness's own tables define it and exit")
	flag.BoolVar(&checkRepeat, "check-repeat", false, "run the untraced set twice and fail unless the second agrees with the first within each metric's bound")
	flag.Parse()
	p.traced = traceFlag != 0

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *manifest:
		err = printManifest()
	case p.workload != "":
		err = runOne(ctx, p)
	case checkRepeat:
		err = runRepeat(ctx, p)
	default:
		err = runAll(ctx, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the driver contract: one workload, one process, result JSON on
// the last line. The process is the isolation — core's caches are
// package-global and never evict, so a shared process would hand this
// workload the previous one's warm state and heap.
func runOne(ctx context.Context, p params) error {
	w, ok := workloadByName(p.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", p.workload)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), w.gomaxprocs))
	var rec *recorder
	if p.traced {
		rec = newRecorder()
	}
	o, err := w.run(ctx, p, rec)
	if err != nil {
		return err
	}
	set := o.e2e
	if p.traced {
		o.setLayer("trace.spans", float64(len(rec.all())))
		o.layer.fillZero()
		set = o.layer
	}
	o.checks = append(o.checks, o.e2e.errs...)
	if p.traced {
		o.checks = append(o.checks, o.layer.errs...)
	}
	for _, name := range set.missing() {
		o.checks = append(o.checks, "metric never emitted: "+name)
	}
	m := newMeta(p, o.ops)
	if p.traced {
		if err := writeTrace(p.outDir, p.workload, traceFile{Meta: m, EndToEnd: o.e2e.values, PerLayer: o.layer.values, Spans: rec.all()}); err != nil {
			return err
		}
		printLayerShares(rec.all())
	}

	printMetrics(o.e2e)
	if p.traced {
		printMetrics(o.layer)
	}
	for _, k := range sortedKeys(o.notes) {
		fmt.Printf("%-24s %s\n", k, o.notes[k])
	}
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("%-24s %g (%d of %d)\n", "failed_share", share, o.failed, o.attempted)
	for _, c := range o.checks {
		fmt.Println("CHECK FAILED:", c)
	}
	metaJSON, _ := json.Marshal(map[string]meta{"_meta": m})
	fmt.Println(string(metaJSON))

	res := resultLine{Correct: len(o.checks) == 0 && o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: set.values}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d failed operations, %d failed checks", p.workload, o.failed, len(o.checks))
	}
	return nil
}

// runSeconds is the measured interval BENCHMARK.json asks the pipeline to
// pass as -seconds; it is also the flag's default.
const runSeconds = 12

// printManifest renders BENCHMARK.json from the declaration tables, so the
// file at the repository root is generated, not hand-kept
// (go run -C bench . -manifest > BENCHMARK.json; TestManifestMatches).
func printManifest() error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	man := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"},
		RunSeconds: runSeconds, EndToEnd: endToEnd,
	}
	for _, w := range workloads {
		man.Workloads = append(man.Workloads, wl{w.name, w.why})
	}
	for _, d := range perLayer {
		man.PerLayer = append(man.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(man)
}

func printMetrics(set *metricSet) {
	for _, name := range set.order {
		if v, ok := set.values[name]; ok {
			fmt.Printf("%-40s %14.6g %s\n", name, v.Value, v.Unit)
		}
	}
}

// printLayerShares prints where the traced wall time went, by span name,
// as self time — the table a reader checks an end-to-end number against.
func printLayerShares(spans []span) {
	byName := selfByName(spans)
	var total int64
	for _, ns := range byName {
		total += ns
	}
	if total == 0 {
		return
	}
	names := sortedKeys(byName)
	sort.SliceStable(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	fmt.Println("self time by span name:")
	for _, n := range names {
		fmt.Printf("  %-28s %10.1f ms %5.1f%%\n", n, ms(float64(byName[n])), 100*float64(byName[n])/float64(total))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- all workloads ---------------------------------------------------------------------

// childRun is what the parent keeps of one child process: the result line
// and, read back from the report above it, every "name value unit" row and
// the report digest.
type childRun struct {
	resultLine
	rows   map[string]float64
	digest string
}

// child runs one workload in its own process, passing its report through
// to our stdout.
func child(ctx context.Context, p params, workload string, traced bool) (childRun, error) {
	run := childRun{rows: make(map[string]float64)}
	self, err := os.Executable()
	if err != nil {
		return run, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds), "-trace", trace, "-out", p.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println("  " + last)
		}
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) == 3 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				run.rows[f[0]] = v
			}
		}
		if len(f) == 2 && f[0] == "report_digest" {
			run.digest = f[1]
		}
	}
	if err := json.Unmarshal([]byte(last), &run.resultLine); err != nil {
		return run, fmt.Errorf("%s: no result line (%v; run: %v)", workload, err, runErr)
	}
	return run, runErr
}

// runSet runs all four workloads, each in its own child process.
func runSet(ctx context.Context, p params, traced bool) (map[string]childRun, error) {
	out := make(map[string]childRun, len(workloads))
	var firstErr error
	for _, w := range workloads {
		fmt.Printf("== %s (trace %v, seed %d, %gs)\n", w.name, traced, p.seed, p.seconds)
		res, err := child(ctx, p, w.name, traced)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out[w.name] = res
	}
	return out, firstErr
}

// runAll is the one command: the untraced set for the end-to-end numbers,
// the traced set for the per-layer ones, and the difference between the two
// as the tracing overhead.
func runAll(ctx context.Context, p params) error {
	plain, err1 := runSet(ctx, p, false)
	traced, err2 := runSet(ctx, p, true)
	fmt.Println("== summary")
	printSummary(plain)
	// Both sets measure for the same interval, so the overhead shows as
	// throughput lost: untraced ops/s over traced.
	for _, w := range workloads {
		u, t := plain[w.name].rows["ops_per_s"], traced[w.name].rows["ops_per_s"]
		if u > 0 && t > 0 {
			fmt.Printf("%-14s trace_overhead_pct %6.1f %%  (%.4g ops/s untraced, %.4g traced)\n", w.name, 100*(u/t-1), u, t)
		}
	}
	if err1 != nil {
		return err1
	}
	return err2
}

func printSummary(set map[string]childRun) {
	fmt.Printf("%-18s", "metric")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.name)
	}
	fmt.Println()
	for _, d := range endToEnd {
		fmt.Printf("%-18s", d.Name)
		for _, w := range workloads {
			fmt.Printf(" %14.6g", set[w.name].Metrics[d.Name].Value)
		}
		fmt.Printf("  %s\n", d.Unit)
	}
	fmt.Printf("%-18s", "failed_share")
	for _, w := range workloads {
		r := set[w.name]
		fmt.Printf(" %14.6g", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	fmt.Println()
}

// --- check-repeat --------------------------------------------------------------------------

// worseBy is how much worse b is than a, as a share of a, given the
// metric's direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runRepeat is the tool behind "two sets of runs of the same code agree":
// the untraced set twice at the same seed; every end-to-end metric of the
// second must be within its bound of the first, and both must be correct.
func runRepeat(ctx context.Context, p params) error {
	first, err := runSet(ctx, p, false)
	if err != nil {
		return err
	}
	second, err := runSet(ctx, p, false)
	if err != nil {
		return err
	}
	var bad []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := first[w.name].Metrics[d.Name].Value, second[w.name].Metrics[d.Name].Value
			by := worseBy(d, a, b)
			verdict := "ok"
			if by > d.Bound {
				verdict = "WORSE"
				bad = append(bad, fmt.Sprintf("%s/%s", w.name, d.Name))
			}
			fmt.Printf("%-14s %-18s %14.6g -> %14.6g  %+6.1f%% (bound %g%%) %s\n", w.name, d.Name, a, b, 100*by, 100*d.Bound, verdict)
		}
	}
	// Same seed, same code: the simulator's answers must be bit-identical.
	for _, w := range workloads {
		if a, b := first[w.name].digest, second[w.name].digest; a != b {
			bad = append(bad, fmt.Sprintf("%s/report_digest %s -> %s", w.name, a, b))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("check-repeat: second set disagrees with the first on %s", strings.Join(bad, ", "))
	}
	fmt.Println("check-repeat: ok")
	return nil
}
