package main

import (
	"context"
	"testing"
)

// Every workload, shrunk, traced (the traced run computes both metric
// tables): each declared name must be emitted exactly once, no output check
// may fail and no operation may fail.
func TestWorkloadsEmitEveryMetricOnce(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := params{workload: w.name, seed: 7, seconds: 0.5, traced: true, tiny: true}
			rec := newRecorder()
			o, err := w.run(context.Background(), p, rec)
			if err != nil {
				t.Fatal(err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("attempted %d, failed %d (%s)", o.attempted, o.failed, o.notes["first_failure"])
			}
			for _, c := range o.checks {
				t.Errorf("check failed: %s", c)
			}
			if miss := o.e2e.missing(); len(miss) != 0 {
				t.Errorf("end-to-end metrics never emitted: %v", miss)
			}
			for name, v := range o.e2e.values {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g; every one must be positive on every workload", name, v.Value)
				}
			}
			emitted := len(o.layer.values)
			o.setLayer("trace.spans", float64(len(rec.all())))
			o.layer.fillZero()
			if miss := o.layer.missing(); len(miss) != 0 {
				t.Errorf("per-layer metrics never emitted: %v", miss)
			}
			if errs := append(o.e2e.errs, o.layer.errs...); len(errs) != 0 {
				t.Errorf("metric emitted twice or undeclared: %v", errs)
			}
			if emitted < 20 {
				t.Errorf("only %d per-layer metrics measured before zero-fill", emitted)
			}
			if len(rec.all()) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}
