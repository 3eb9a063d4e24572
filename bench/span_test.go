package main

import "testing"

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[int]int64
	}{
		{"no children", []span{{ID: 1, Start: 0, End: 100}}, map[int]int64{1: 100}},
		{"disjoint children out of order", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 3, Parent: 1, Start: 60, End: 80},
			{ID: 2, Parent: 1, Start: 10, End: 30},
		}, map[int]int64{1: 60, 2: 20, 3: 20}},
		{"overlapping children count once", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 10, End: 50},
			{ID: 3, Parent: 1, Start: 40, End: 70},
		}, map[int]int64{1: 40, 2: 40, 3: 30}},
		{"child inside a sibling adds nothing", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 10, End: 90},
			{ID: 3, Parent: 1, Start: 20, End: 30},
		}, map[int]int64{1: 20, 2: 80, 3: 10}},
		{"grandchild comes off its parent only", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 10, End: 60},
			{ID: 3, Parent: 2, Start: 20, End: 50},
		}, map[int]int64{1: 50, 2: 20, 3: 30}},
		{"child sticking out is clipped", []span{
			{ID: 1, Start: 50, End: 100},
			{ID: 2, Parent: 1, Start: 0, End: 60},
			{ID: 3, Parent: 1, Start: 90, End: 150},
		}, map[int]int64{1: 30, 2: 60, 3: 60}},
		{"children cover everything", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 0, End: 55},
			{ID: 3, Parent: 1, Start: 50, End: 100},
		}, map[int]int64{1: 0, 2: 55, 3: 50}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for id, want := range c.want {
			if got[id] != want {
				t.Errorf("%s: self time of span %d = %d, want %d", c.name, id, got[id], want)
			}
		}
	}
}

// job builds the span tree emitServeLayers records for one job from the
// five boundaries of a synthetic timeline.
func job(id int, t0, t1, submitted, started, finished, t2 int64) []span {
	return []span{
		{ID: id, Name: "job", Start: t0, End: t2},
		{ID: id + 1, Parent: id, Name: "serve.admit", Start: t0, End: t1},
		{ID: id + 2, Parent: id, Name: "queue.wait", Start: submitted, End: started},
		{ID: id + 3, Parent: id, Name: "serve.service", Start: started, End: finished},
		{ID: id + 4, Parent: id, Name: "serve.notify", Start: finished, End: t2},
	}
}

func TestSumResidual(t *testing.T) {
	// Parts that tile the sojourn exactly.
	if got := sumResidual(job(1, 0, 10, 10, 400, 900, 1000), "job"); got != 0 {
		t.Errorf("tiling timeline: residual %g%%, want 0", got)
	}
	// The POST answers 10 after the job was queued: counted twice, 1% over.
	if got := sumResidual(job(1, 0, 20, 10, 400, 900, 1000), "job"); got != 1 {
		t.Errorf("overlapping admit: residual %g%%, want 1", got)
	}
	// 50 between "finished" and the notify span: nobody accounts for it.
	gap := job(1, 0, 10, 10, 400, 900, 1000)
	gap[4].Start = 950
	if got := sumResidual(gap, "job"); got != 5 {
		t.Errorf("gap before notify: residual %g%%, want 5", got)
	}
	// The median decides: one bad job among three does not fail the check.
	var three []span
	three = append(three, job(1, 0, 10, 10, 400, 900, 1000)...)
	three = append(three, job(11, 0, 10, 10, 400, 900, 1000)...)
	three = append(three, gap...)
	for i := range three[10:] {
		three[10+i].ID += 20
		if three[10+i].Parent != 0 {
			three[10+i].Parent += 20
		}
	}
	if got := sumResidual(three, "job"); got != 0 {
		t.Errorf("median of {0, 0, 5} = %g, want 0", got)
	}
	// Spans of other names and non-root spans are not judged.
	if got := sumResidual([]span{{ID: 1, Name: "round", Start: 0, End: 10}}, "job"); got != 0 {
		t.Errorf("no job spans: residual %g, want 0", got)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	id := r.begin("t", "x", 0)
	r.end(id)
	ran := false
	if d := r.timed("t", "y", id, func() { ran = true }); !ran || d < 0 {
		t.Fatalf("timed on a nil recorder must still run fn (ran=%v, d=%v)", ran, d)
	}
	if got := r.all(); got != nil {
		t.Fatalf("nil recorder returned spans: %v", got)
	}
}

func TestRecorderBeginEnd(t *testing.T) {
	r := newRecorder()
	root := r.begin("t", "root", 0)
	r.timed("t", "kid", root, func() {})
	r.end(root)
	spans := r.all()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[1].End {
		t.Fatalf("unexpected spans: %+v", spans)
	}
}
