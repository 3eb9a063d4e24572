package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one benchmark metric. The two tables below are the
// single source of truth: BENCHMARK.json at the repository root must list
// exactly these names, units, directions and bounds (TestManifestMatches),
// and every run must emit each name of its table exactly once
// (metricSet.missing).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the repo sees, measured with tracing off.
// Every workload emits every metric, so each is defined for both halves of
// the benchmark: an "op" is one sweep point (sweep_*) or one client job —
// parent, not part — (serve_*); a "request" is one core.SweepCRFRefs call
// (sweep_warm), one title on-boarded across the five configs (sweep_cold)
// or one job from POST sent to result in hand (serve_*).
//
// The bounds come from the measured run-to-run spread on the 2-core
// reference box (BASELINE.json), not from what a quiet machine could
// resolve: its speed drifts by 10-25% over minutes, serve_ladder's timings
// spread by 10-15% between runs of one seed, and a bound is shared by all
// four workloads. Only heap_mb, which repeats to half a percent, can be
// held tight.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"sojourn_p50_ms", "ms", "lower", 0.25},
	{"sojourn_tail_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
}

// cacheLayers are core's seven flightCache names, in pipeline order.
var cacheLayers = []string{"mezzanine", "decoded", "parsed", "snapshot", "analysis", "ana_parsed", "ana_snapshot"}

// stageNames are codec.EncodeStage labels, in stage order.
var stageNames = []string{"lookahead", "me", "transform", "entropy", "deblock"}

// perLayer is the attribution table, measured in the traced run. A metric
// that does not apply to a workload (serve.* on a sweep) is emitted as 0.
// bench/README.md maps each to the end-to-end metric it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "vbench.synth_ms_per_frame", Unit: "ms", Better: "lower"},
		{Name: "codec.mezz_encode_ms_per_title", Unit: "ms", Better: "lower"},
		{Name: "codec.decode_record_ms_per_title", Unit: "ms", Better: "lower"},
		{Name: "codec.analyze_ms_per_title", Unit: "ms", Better: "lower"},
		{Name: "codec.encode_ms_per_point", Unit: "ms", Better: "lower"},
		{Name: "codec.stitch_us_per_rendition", Unit: "us", Better: "lower"},
		{Name: "trace.parse_mevents_per_s", Unit: "1/s", Better: "higher"},
		{Name: "trace.bytes_per_event", Unit: "B", Better: "lower"},
		{Name: "uarch.replay_mevents_per_s", Unit: "1/s", Better: "higher"},
		{Name: "uarch.clone_us", Unit: "us", Better: "lower"},
		{Name: "uarch.live_sim_share", Unit: "share", Better: "lower"},
		{Name: "uarch.sim_minst_per_s", Unit: "1/s", Better: "higher"},
		{Name: "core.cache_mb", Unit: "MB", Better: "lower"},
		{Name: "core.warmup_ms_per_sweep", Unit: "ms", Better: "lower"},
		{Name: "core.point_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "exec.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "exec.utilization_pct", Unit: "%", Better: "higher"},
		{Name: "queue.wait_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "queue.wait_ms_p95", Unit: "ms", Better: "lower"},
		{Name: "queue.roundtrip_ns", Unit: "ns", Better: "lower"},
		{Name: "queue.rejected", Unit: "count", Better: "lower"},
		{Name: "sched.assign_hetero_us", Unit: "us", Better: "lower"},
		{Name: "sched.assign_dynamic_us", Unit: "us", Better: "lower"},
		{Name: "serve.dispatch_us_p50", Unit: "us", Better: "lower"},
		{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
		{Name: "serve.placement_smart_share", Unit: "share", Better: "higher"},
		{Name: "serve.admit_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.service_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.notify_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.fanout_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.stitch_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.rendition_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.requeue_ratio", Unit: "share", Better: "lower"},
		{Name: "serve.part_skew", Unit: "ratio", Better: "lower"},
		{Name: "serve.sum_residual_pct", Unit: "%", Better: "lower"},
		{Name: "serve.sojourn_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.sojourn_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "worker.busy_share", Unit: "share", Better: "higher"},
		{Name: "worker.lease_reassigned", Unit: "count", Better: "lower"},
		{Name: "wire.overhead_ms_per_job", Unit: "ms", Better: "lower"},
		{Name: "wire.assignment_bytes", Unit: "B", Better: "lower"},
		{Name: "wire.result_bytes", Unit: "B", Better: "lower"},
		{Name: "wire.codec_us", Unit: "us", Better: "lower"},
		{Name: "sim.s_per_op", Unit: "s", Better: "lower"},
		{Name: "sim.cost_ucents_per_op", Unit: "ucent", Better: "lower"},
		{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "go.gc_cpu_share", Unit: "share", Better: "lower"},
		{Name: "trace.spans", Unit: "count", Better: "lower"},
	}
	for _, s := range stageNames {
		defs = append(defs, metricDef{Name: "codec.stage_" + s + "_share", Unit: "share", Better: "lower"})
	}
	for _, c := range cacheLayers {
		defs = append(defs, metricDef{Name: "core.cache_hit_ratio." + c, Unit: "share", Better: "higher"})
	}
	return defs
}()

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's measurements against one declaration table.
// Emitting an undeclared name, or a declared name twice, is a bug in the
// harness and is kept as an error the run reports as incorrect.
type metricSet struct {
	defs   map[string]metricDef
	order  []string
	values map[string]value
	errs   []string
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), values: make(map[string]value, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
		m.order = append(m.order, d.Name)
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	d, ok := m.defs[name]
	switch {
	case !ok:
		m.errs = append(m.errs, "undeclared metric "+name)
		return
	case math.IsNaN(v) || math.IsInf(v, 0):
		m.errs = append(m.errs, fmt.Sprintf("metric %s is %v", name, v))
		return
	}
	if _, dup := m.values[name]; dup {
		m.errs = append(m.errs, "metric emitted twice: "+name)
		return
	}
	m.values[name] = value{Value: v, Unit: d.Unit}
}

// fillZero emits 0 for every declared metric not set yet: the per-layer
// metrics of layers a workload does not touch.
func (m *metricSet) fillZero() {
	for _, name := range m.order {
		if _, ok := m.values[name]; !ok {
			m.set(name, 0)
		}
	}
}

// missing lists declared metrics that were never emitted.
func (m *metricSet) missing() []string {
	var out []string
	for _, name := range m.order {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}

// --- order statistics -----------------------------------------------------------

// percentile is the nearest-rank p-th percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile picks the percentile a tail latency is reported at: the
// highest of 99/95/90/75 that still has at least ten samples beyond it
// among n, else the median. Workloads call it with their designed sample
// floor, not the run's actual count, so the choice is fixed per workload
// and two runs of different speed compare the same statistic.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

func ms(ns float64) float64 { return ns / 1e6 }
