package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/uarch"
)

// params is one run of one workload.
type params struct {
	workload string
	seed     uint64
	seconds  float64 // measured interval; whole rounds run until it has passed
	traced   bool
	outDir   string
	// tiny shrinks every size (frames, grids, populations, set-ups) so the
	// unit tests can pass all four workloads in a few seconds. It never
	// changes which code paths run or which metrics are emitted.
	tiny bool
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted int
	failed    int      // failed operations: points with Err, jobs not done, refused submits
	checks    []string // failed output checks; any entry makes the run incorrect
	e2e       *metricSet
	layer     *metricSet // nil in an untraced run
	// notes are the human-readable companions of the metrics: sample
	// counts, the tail percentile in use, report_digest, round counts.
	notes map[string]string
	ops   map[string]int // operation counts for _meta
}

func newOutcome(traced bool) *outcome {
	o := &outcome{e2e: newMetricSet(endToEnd), notes: map[string]string{}, ops: map[string]int{}}
	if traced {
		o.layer = newMetricSet(perLayer)
	}
	return o
}

func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

// setLayer emits a per-layer metric in a traced run and is a no-op otherwise.
func (o *outcome) setLayer(name string, v float64) {
	if o.layer != nil {
		o.layer.set(name, v)
	}
}

// repeatSetup runs the set-ups a workload did not need for measuring and
// reports setup_s as the median of all of them. Each set-up starts from
// cold caches (its own content), and because core's caches never evict,
// each leaves its fill behind for good; doing the spare ones after the
// timed region keeps them out of the measured heap and out of the page
// faults a three times larger heap costs on the reference box.
func (o *outcome) repeatSetup(first float64, n int, setup func(i int) (float64, error)) error {
	all := []float64{first}
	for i := 1; i < n; i++ {
		s, err := setup(i)
		if err != nil {
			return err
		}
		all = append(all, s)
	}
	o.e2e.set("setup_s", median(all))
	return nil
}

// workload is one entry of the benchmark. why is the one line BENCHMARK.json
// and the README carry.
type workload struct {
	name string
	why  string
	// gomaxprocs caps the run's parallelism. The load shape must not scale
	// with the host: serve workloads pin two executors themselves and get
	// min(nproc, 4) for the HTTP, dispatch and GC work around them; core.Sweep
	// sizes its pool from GOMAXPROCS and nothing else, so sweeps run at 2.
	gomaxprocs int
	run        func(ctx context.Context, p params, rec *recorder) (*outcome, error)
}

var workloads = []workload{
	{"sweep_warm", "researcher's inner loop: crf x refs grid on five configs with every cache filled in set-up, so live encode into a live simulator is all the work", 2, runSweepWarm},
	{"sweep_cold", "catalog onboarding: never-seen titles, so all seven cache layers miss once per title and the heap grows for the whole run", 2, runSweepCold},
	{"serve_fleet", "service at its highest job rate: small single-part jobs over loopback HTTP to two leased pull workers, so admit, queue, placement and wire overhead are the largest share they can be", 4, runServeFleet},
	{"serve_ladder", "job graph: 2 segments x 3 rungs per job on a mixed priced fleet under the cost objective, so fan-out, masked placement, requeue, stitch and rendition dominate", 4, runServeLadder},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// meta travels with every result so that a 2-core number is never compared
// with a 16-core one.
type meta struct {
	Workload   string         `json:"workload,omitempty"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GitRev     string         `json:"git_rev"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	Ops        map[string]int `json:"ops,omitempty"`
}

func newMeta(p params, ops map[string]int) meta {
	return meta{
		Workload: p.workload, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: gitRev(".."),
		Seed: p.seed, Seconds: p.seconds, Traced: p.traced, Ops: ops,
	}
}

// gitRev reads HEAD of the repository at root (the benchmark runs from
// bench/, so root is ".."), without starting git: a run must not spawn
// processes or read above its checkout, and the pipeline's checkout is not
// a repository at all — there the answer is "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return obs.GitRevFallback
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		raw, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
		if err != nil {
			return ref // packed or unborn: the branch name is still worth recording
		}
		rev = strings.TrimSpace(string(raw))
	}
	return rev
}

// --- process accounting -----------------------------------------------------------

// cpuTime is the process's user + system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windows cuts the timed region into consecutive windows of equal work and
// keeps each window's throughput and CPU cost; the run reports the medians.
// On the reference box a noisy neighbour halves the speed for seconds at a
// time: a total over the region takes that in whole, the median over
// windows ignores it while it covers less than half of them.
type windows struct {
	at      time.Time
	cpu     time.Duration
	perS    []float64 // ops per second of wall
	cpuMsOp []float64 // CPU milliseconds per op
}

func startWindows() *windows { return &windows{at: time.Now(), cpu: cpuTime()} }

// mark closes the window that just completed ops operations.
func (w *windows) mark(ops int) {
	now, cpu := time.Now(), cpuTime()
	w.perS = append(w.perS, float64(ops)/now.Sub(w.at).Seconds())
	w.cpuMsOp = append(w.cpuMsOp, ms(float64(cpu-w.cpu))/float64(ops))
	w.at, w.cpu = now, cpu
}

func (o *outcome) emitWindows(w *windows) {
	o.e2e.set("ops_per_s", median(w.perS))
	o.e2e.set("cpu_ms_per_op", median(w.cpuMsOp))
	o.notes["windows"] = fmt.Sprint(len(w.perS))
}

// goStats reads the runtime's allocation and GC accounting.
type goStats struct {
	mallocs       uint64
	gcCPU, allCPU float64 // seconds
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return goStats{mallocs: ms.Mallocs, gcCPU: samples[0].Value.Float64(), allCPU: samples[1].Value.Float64()}
}

// emitGo reports allocations per op and the GC's share of CPU over the
// timed region (traced runs only).
func (o *outcome) emitGo(before, after goStats, ops int) {
	o.setLayer("go.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(max(ops, 1)))
	if d := after.allCPU - before.allCPU; d > 0 {
		o.setLayer("go.gc_cpu_share", (after.gcCPU-before.gcCPU)/d)
	}
}

// heapMB is what the process retains: live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// --- seeded inputs -------------------------------------------------------------------

// mix derives an independent 64-bit stream value from the run seed.
func mix(seed, v uint64) uint64 {
	x := seed + 0x9E3779B97F4A7C15*(v+1)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// shuffled returns a seed-determined permutation of xs.
func shuffled[T any](seed uint64, xs []T) []T {
	out := append([]T(nil), xs...)
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// --- report digest -------------------------------------------------------------------

// digestEntry is one sweep point's report under its coordinates. It keeps
// the Report only: a core.Point's Stats points into its Encoder, so holding
// the Point would pin the encoder, its reconstructed frames and the point's
// cloned Machine (~3 MB a point) and show up in heap_mb as if the caches
// held it.
type digestEntry struct {
	key string
	rep *perf.Report
}

// reportDigest hashes every point's Insts, Cycles, Topdown and MPKIs in
// coordinate order, so the digest is independent of the order the seed put
// the points in and exact across runs and commits that change only how fast
// the simulator runs.
func reportDigest(entries []digestEntry) string {
	es := append([]digestEntry(nil), entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	h := sha256.New()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, e := range es {
		h.Write([]byte(e.key))
		r := e.rep
		td := r.Topdown
		put(r.Insts, r.Cycles, td.Retiring, td.FrontEnd, td.BadSpec, td.BackEnd, td.MemBound, td.CoreBound,
			r.BranchMPKI, r.L1DMPKI, r.L2MPKI, r.L3MPKI, r.L1IMPKI, r.ITLBMPKI)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func pointKey(title string, cfg uarch.Config, pt core.Point) string {
	return fmt.Sprintf("%s/%s/crf%d/refs%d", title, cfg.Name, pt.CRF, pt.Refs)
}

// --- obs helpers -----------------------------------------------------------------------

// histP50ms reads a latency histogram's median in milliseconds (0 if the
// histogram never fired).
func histP50ms(s obs.Snapshot, name string) float64 {
	h, _ := s.HistogramByName(name)
	return ms(float64(h.P50))
}
