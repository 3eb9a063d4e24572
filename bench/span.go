package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one request
// (a sweep round, a title, a job) share Trace; Parent is the id of the span
// that caused this one, 0 for a root. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op, so call sites need no branches.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished interval and returns its id for use as a parent.
func (r *recorder) add(trace, name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span whose children are recorded before it ends; end closes
// it. An unclosed span keeps a zero length.
func (r *recorder) begin(trace, name string, parent int) int {
	now := time.Now()
	return r.add(trace, name, parent, now, now)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took, traced or not.
func (r *recorder) timed(trace, name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(trace, name, parent, start, end)
	return end.Sub(start)
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its own interval that its child spans cover. Children may overlap each
// other, nest, arrive in any order, or stick out of the parent; the covered
// part is the length of the union of the children clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals inside [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	ks := append([]span(nil), kids...)
	sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
	var total int64
	edge := lo // everything before edge is already counted
	for _, k := range ks {
		s, e := max(k.Start, edge), min(k.End, hi)
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

// sumResidual is the sum check on one kind of root span: for every root
// span of that name it compares the summed durations of the direct children
// with the root's own duration, and returns the median absolute difference
// as a percentage of the root. Children that tile the root read 0; a gap
// nobody accounts for and an overlap counted twice both push it up.
func sumResidual(spans []span, root string) float64 {
	sums := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			sums[s.Parent] += s.dur()
		}
	}
	var shares []float64
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 && s.dur() > 0 {
			shares = append(shares, 100*math.Abs(float64(sums[s.ID]-s.dur()))/float64(s.dur()))
		}
	}
	return median(shares)
}

// selfByName totals self time per span name: the per-layer share table.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// traceFile is what a traced run leaves in bench/out/<workload>.trace.json.
type traceFile struct {
	Meta     meta             `json:"_meta"`
	EndToEnd map[string]value `json:"end_to_end"` // as measured under tracing; the untraced run is the one that counts
	PerLayer map[string]value `json:"per_layer"`
	Spans    []span           `json:"spans"`
}

func writeTrace(dir, workload string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), raw, 0o644)
}
