package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/uarch"
)

// TestAnalysisRunEquivalence is the fidelity guarantee for the shared
// analysis layer at the experiment level: a job that reuses the memoized
// lookahead artifact produces a profile and stats bit-for-bit identical to
// the reference transcode, whose encoder runs its own lookahead. Covered
// across the option families that change what the lookahead does: the
// defaults (AQ + b-adapt 1), b-adapt 2 with trace sampling, and ultrafast.
func TestAnalysisRunEquivalence(t *testing.T) {
	w := tinyWorkload("cricket")
	badapt2 := codec.Defaults()
	badapt2.BAdapt = 2
	badapt2.TraceSampleLog2 = 2
	ultra := codec.Options{RC: codec.RCCRF, CRF: 30, QP: 26, KeyintMax: 250}
	if err := codec.ApplyPreset(&ultra, codec.PresetUltrafast); err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]codec.Options{
		"medium": codec.Defaults(), "badapt2_sampled": badapt2, "ultrafast": ultra,
	} {
		t.Run(name, func(t *testing.T) {
			requireReference(t, Job{Workload: w, Options: opt, Config: uarch.Baseline()})
		})
	}
}

// TestAnalysisSweepDeterminism runs the crf x refs sweep through the shared
// artifact and requires every point's report and stats to match the
// reference transcode of that point — the sweep-level form of the
// determinism.sh CSV gate.
func TestAnalysisSweepDeterminism(t *testing.T) {
	w := tinyWorkload("desktop")
	base := codec.Defaults()
	crfs, refs := []int{23, 41}, []int{1, 4}
	pts := SweepCRFRefs(context.Background(), w, base, uarch.Baseline(), crfs, refs)
	if err := pts.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(crfs)*len(refs) {
		t.Fatalf("got %d points, want %d", len(pts), len(crfs)*len(refs))
	}
	for _, pt := range pts {
		opt := base
		opt.RC = codec.RCCRF
		opt.CRF = pt.CRF
		opt.Refs = pt.Refs
		want := referenceTranscode(t, Job{Workload: w, Options: opt, Config: uarch.Baseline()})
		if !reflect.DeepEqual(pt.Report, want.Report) || !reflect.DeepEqual(pt.Stats, want.Stats) {
			t.Errorf("point crf %d refs %d differs from the uncached reference transcode", pt.CRF, pt.Refs)
		}
	}
}

// TestAnalysisTwoPassBypass pins the guard: two-pass ABR jobs run their own
// lookahead (the artifact cannot reproduce the interleaved first pass) and
// still succeed with the analysis cache nominally enabled.
func TestAnalysisTwoPassBypass(t *testing.T) {
	opt := codec.Defaults()
	opt.RC = codec.RCABR2
	opt.BitrateKbps = 400
	res, err := Run(context.Background(), Job{Workload: tinyWorkload("cricket"), Options: opt, Config: uarch.Baseline()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Insts <= 0 {
		t.Fatalf("degenerate two-pass report: %+v", res.Report)
	}
}

// TestSharedAnalysisCached verifies singleflight identity: two option sets
// with equal analysis params share one artifact, and a param-changing option
// gets its own.
func TestSharedAnalysisCached(t *testing.T) {
	w := tinyWorkload("cat")
	dopt := decoderOptions(codec.Defaults())
	a1, err := defaultEngine.sharedAnalysis(context.Background(), w, dopt, codec.Defaults(), codec.Segment{})
	if err != nil {
		t.Fatal(err)
	}
	crf41 := codec.Defaults()
	crf41.RC = codec.RCCRF
	crf41.CRF = 41
	crf41.Refs = 4
	a2, err := defaultEngine.sharedAnalysis(context.Background(), w, dopt, crf41, codec.Segment{})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("crf/refs-only option change did not share the analysis artifact")
	}
	sampled := codec.Defaults()
	sampled.TraceSampleLog2 = 2
	a3, err := defaultEngine.sharedAnalysis(context.Background(), w, decoderOptions(sampled), sampled, codec.Segment{})
	if err != nil {
		t.Fatal(err)
	}
	if a3 == a1 {
		t.Fatal("distinct analysis params share a cache entry")
	}
}
