// Package obs is the repository's self-telemetry layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms with quantile estimation) plus a Span timer helper.
//
// The paper's whole methodology is measurement — VTune Top-down slots and
// perf counters over an 816-point sweep — and obs applies the same
// discipline to the harness itself: the exec pool, the singleflight decode
// caches and the sweep engine all record what they did, and the numbers
// surface three ways: the expvar/pprof debug endpoint (-debug-addr), the
// end-of-run JSON manifest (-metrics-out), and the -progress summary line.
//
// Everything is safe for concurrent use; the hot-path cost of a counter is
// one atomic add, and a histogram observation is two atomic adds plus a
// CAS-bounded min/max update.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a last-value-wins atomic gauge.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: bucket i covers
// (bound(i-1), bound(i)] with bound(i) = 1024ns << i, so the range runs
// from ~1µs to ~9.5 hours before the unbounded overflow bucket. The bounds
// are fixed (no per-histogram configuration) so that every histogram in a
// snapshot is directly comparable and merging never re-buckets.
const histBuckets = 36

// histBound returns the inclusive upper bound of bucket i in nanoseconds.
func histBound(i int) int64 { return 1024 << uint(i) }

// Histogram is a fixed-bucket latency histogram over int64 nanosecond
// observations (any int64 unit works, but the bucket layout is tuned for
// durations). It tracks count, sum, min and max exactly and estimates
// quantiles by linear interpolation inside the landing bucket. Always
// construct with NewHistogram (or through a Registry): the min/max
// trackers need sentinel initialization.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64 // +1: overflow
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // MaxInt64 until the first observation
	max     atomic.Int64 // MinInt64 until the first observation
}

// NewHistogram returns an empty histogram ready for observations.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < histBuckets && v > histBound(i) {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// Start opens a Span that will record its elapsed time into h on End.
func (h *Histogram) Start() Span { return Span{h: h, start: time.Now()} }

// Span is a lightweight in-flight timer: obtain one with Histogram.Start,
// call End exactly once when the spanned work finishes.
type Span struct {
	h     *Histogram
	start time.Time
}

// End records the elapsed time and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	if s.h != nil {
		s.h.Observe(int64(d))
	}
	return d
}

// Registry is a namespace of metrics. The zero value is not usable; use
// NewRegistry or the package Default. Metric accessors get-or-create, so
// instrumentation sites need no registration ceremony.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every built-in instrumentation
// site records into (one process is one run for all six cmds).
func Default() *Registry { return defaultRegistry }

// Key renders a metric name plus label pairs into the canonical snapshot
// key: name{k1=v1,k2=v2}. Labels are sorted by key so the same label set
// always produces the same metric.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("obs: Key needs key/value label pairs")
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+labels[i+1])
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// Counter returns the named counter, creating it on first use. Optional
// trailing arguments are label key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[k]
	if h == nil {
		h = NewHistogram()
		r.hists[k] = h
	}
	return h
}

// Reset drops every metric. Intended for tests; production code snapshots
// instead of resetting so concurrent writers never lose a metric object.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.hists = make(map[string]*Histogram)
}

// Bucket is one non-empty histogram bucket in a snapshot: Count values
// landed at or below Le nanoseconds (Le < 0 marks the overflow bucket).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	P50     int64    `json:"p50"`
	P95     int64    `json:"p95"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON: map
// keys are the canonical metric keys (encoding/json emits map keys
// sorted, so serialization is stable for a stable metric set).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current values. Writers may race with
// the copy — each metric is read atomically, so every value in the result
// was true at some instant during the call.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Load()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Load()
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

// snapshot freezes one histogram, estimating p50/p95/p99 from the bucket
// counts it read (not from the live histogram, so the quantiles are
// consistent with the reported buckets even under concurrent writers).
func (h *Histogram) snapshot() HistogramSnapshot {
	var counts [histBuckets + 1]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, Sum: h.sum.Load()}
	if total == 0 {
		return s
	}
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	for i, c := range counts {
		if c == 0 {
			continue
		}
		le := int64(-1)
		if i < histBuckets {
			le = histBound(i)
		}
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: c})
	}
	s.P50 = quantile(counts[:], total, s.Min, s.Max, 0.50)
	s.P95 = quantile(counts[:], total, s.Min, s.Max, 0.95)
	s.P99 = quantile(counts[:], total, s.Min, s.Max, 0.99)
	return s
}

// quantile estimates the q-quantile by walking the cumulative bucket
// counts and interpolating linearly inside the landing bucket, clamped to
// the exact observed [min, max].
func quantile(counts []int64, total int64, min, max int64, q float64) int64 {
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo := int64(0)
			if i > 0 {
				lo = histBound(i - 1)
			}
			hi := max
			if i < histBuckets && histBound(i) < max {
				hi = histBound(i)
			}
			if lo < min {
				lo = min
			}
			if hi < lo {
				hi = lo
			}
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			v := float64(lo) + frac*float64(hi-lo)
			return int64(math.Round(v))
		}
		cum = next
	}
	return max
}

// CounterTotal sums every counter whose key equals name or carries name
// with any label set — the cross-label rollup the summary line prints.
func (s Snapshot) CounterTotal(name string) int64 {
	var sum int64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// GaugeTotal sums every gauge whose key equals name or carries name with
// any label set — e.g. queue_depth{queue=...} rolled up to the depth of
// every queue.
func (s Snapshot) GaugeTotal(name string) int64 {
	var sum int64
	for k, v := range s.Gauges {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// HistogramByName returns the snapshot of the named histogram (first label
// variant wins when only a labeled form exists) and whether one was found.
func (s Snapshot) HistogramByName(name string) (HistogramSnapshot, bool) {
	if h, ok := s.Histograms[name]; ok {
		return h, true
	}
	keys := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.HasPrefix(k, name+"{") {
			return s.Histograms[k], true
		}
	}
	return HistogramSnapshot{}, false
}

// FmtDuration renders a nanosecond metric value compactly for log lines.
func FmtDuration(ns int64) string {
	return fmt.Sprint(time.Duration(ns).Round(10 * time.Microsecond))
}
