package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// TestReplayMachineEquivalence is the fidelity guarantee at the machine
// level: a Machine fed the recorded decode trace reaches bit-for-bit the
// state of a Machine that consumed the decode live.
func TestReplayMachineEquivalence(t *testing.T) {
	w := tinyWorkload("cricket")
	stream, err := Mezzanine(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	for _, dopt := range []codec.DecoderOptions{
		{},
		{TraceSampleLog2: 2},
		{Tune: codec.Tuning{FuseDeblock: true}},
	} {
		live := uarch.NewMachine(uarch.Baseline(), trace.NewImage(nil))
		liveFrames, _, err := codec.NewDecoder(dopt, live).Decode(stream)
		if err != nil {
			t.Fatal(err)
		}

		recFrames, _, events, err := codec.RecordDecode(stream, dopt)
		if err != nil {
			t.Fatal(err)
		}
		replayed := uarch.NewMachine(uarch.Baseline(), trace.NewImage(nil))
		if err := trace.Replay(events, replayed); err != nil {
			t.Fatal(err)
		}

		if !live.Result().Equal(replayed.Result()) {
			t.Fatalf("opts %+v: replayed machine state differs from live decode:\nlive:     %+v\nreplayed: %+v",
				dopt, live.Result(), replayed.Result())
		}
		if len(liveFrames) != len(recFrames) {
			t.Fatalf("opts %+v: frame count differs: %d vs %d", dopt, len(liveFrames), len(recFrames))
		}
		for i := range liveFrames {
			if !reflect.DeepEqual(liveFrames[i], recFrames[i]) {
				t.Fatalf("opts %+v: decoded frame %d differs between live and recording decode", dopt, i)
			}
		}
	}
}

// TestResultLevelConservation checks the simulator's per-level
// bookkeeping on the machine states core hands out: every access below
// the L1s is a miss of the level above it. The L2 serves exactly the L1i
// and L1d misses, every instruction fetch consults the iTLB, the L3 serves
// the L2 misses (and, with the next-line prefetcher, also the lines it
// pushes past an L2 hit), and an L4 serves the L3 misses. Checked on a
// thawed decode snapshot and again after a real encode into it, on every
// configuration.
func TestResultLevelConservation(t *testing.T) {
	ctx, w, dopt := context.Background(), Workload{Video: "cricket", Frames: 4, Scale: 16}, codec.DecoderOptions{}
	eng := NewEngine(DefaultCacheBudget)
	_, info, err := sourceFrames(w)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, cfg uarch.Config, r *uarch.Result) {
		t.Helper()
		if r.L2.Accesses != r.L1I.Misses+r.L1D.Misses {
			t.Errorf("%s: L2 accesses %d, L1i+L1d misses %d", what, r.L2.Accesses, r.L1I.Misses+r.L1D.Misses)
		}
		if r.ITLB.Accesses != r.L1I.Accesses {
			t.Errorf("%s: iTLB accesses %d, L1i accesses %d", what, r.ITLB.Accesses, r.L1I.Accesses)
		}
		if l3, l2 := r.L3.Accesses, r.L2.Misses; l3 < l2 || l3 != l2 && !cfg.NextLinePrefetch {
			t.Errorf("%s: L3 accesses %d, L2 misses %d", what, l3, l2)
		}
		if cfg.L4 != nil && r.L4.Accesses != r.L3.Misses {
			t.Errorf("%s: L4 accesses %d, L3 misses %d", what, r.L4.Accesses, r.L3.Misses)
		}
		if r.L1I.Misses == 0 || r.L1D.Misses == 0 || r.L2.Misses == 0 {
			t.Errorf("%s: an idle level proves nothing: %+v", what, r)
		}
	}
	for _, cfg := range uarch.Extended() {
		snap, err := eng.decodedMachine(ctx, w, dopt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := snap.Machine()
		check(cfg.Name+" after decode", cfg, m.Result())
		input, _, err := eng.DecodedMezzanine(ctx, w, dopt)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := codec.NewEncoder(input[0].Width, input[0].Height, info.FPS, codec.Defaults(), m)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := enc.EncodeAll(input); err != nil {
			t.Fatal(err)
		}
		r := m.Result()
		check(cfg.Name+" after encode", cfg, r)
		t.Logf("%-8s L2 %d = %d L1 misses, L3 %d vs %d L2 misses", cfg.Name, r.L2.Accesses, r.L1I.Misses+r.L1D.Misses, r.L3.Accesses, r.L2.Misses)
	}
}

// referenceTranscode is the oracle every Run equivalence test is pinned
// against: the job's transcode with no cache layer and no shared artifact
// anywhere — the mezzanine is encoded here, decoded live into a fresh
// machine by codec.Decoder, and the encoder runs its own lookahead on the
// same machine. It shares only the codec and simulator primitives with Run.
func referenceTranscode(t *testing.T, job Job) *Result {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	w, err := job.Workload.normalized()
	must(err)
	src, info, err := sourceFrames(w)
	must(err)
	mo, err := mezzanineOptions()
	must(err)
	menc, err := codec.NewEncoder(src[0].Width, src[0].Height, info.FPS, mo, nil)
	must(err)
	mezz, _, err := menc.EncodeAll(src)
	must(err)

	img := job.Image
	if img == nil {
		img = trace.NewImage(nil)
	}
	m := uarch.NewMachine(job.Config, img)
	input, _, err := codec.NewDecoder(decoderOptions(job.Options), m).Decode(mezz)
	must(err)
	if !job.Segment.IsZero() {
		input = input[job.Segment.Start:job.Segment.End]
	}
	enc, err := codec.NewEncoder(input[0].Width, input[0].Height, info.FPS, job.Options, m)
	must(err)
	stream, stats, err := enc.EncodeAll(input)
	must(err)
	return &Result{Report: perf.FromResult(m.Result(), enc.SampleFactor()), Stats: stats, Stream: stream}
}

// requireReference runs job through Run and requires its profile and codec
// stats to be bit-for-bit those of referenceTranscode.
func requireReference(t *testing.T, job Job) *Result {
	t.Helper()
	got, err := Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTranscode(t, job)
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Fatalf("Run report differs from the uncached reference transcode:\nrun: %+v\nref: %+v", got.Report, want.Report)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatal("Run codec stats differ from the uncached reference transcode")
	}
	return got
}

// TestReplayRunEquivalence is the fidelity guarantee of the decode-replay
// layers at the experiment level: the profile of a full transcode whose
// decode half is a cloned snapshot equals a live decode into the job's own
// machine, so every figure stays bit-for-bit unchanged by the cache. The
// two-pass ABR job bypasses the shared analysis artifact, so it exercises
// the bare post-decode snapshot.
func TestReplayRunEquivalence(t *testing.T) {
	w := tinyWorkload("cricket")
	opt := codec.Defaults()
	opt.CRF = 27
	opt.Refs = 2
	requireReference(t, Job{Workload: w, Options: opt, Config: uarch.Baseline()})

	opt.RC = codec.RCABR2
	opt.BitrateKbps = 400
	requireReference(t, Job{Workload: w, Options: opt, Config: uarch.Baseline()})
}

// TestParsedReplayMachineEquivalence pins the parsed fan-out at the
// machine level on a real decode trace: for every Table IV configuration,
// ReplayEvents on the cached parsed view reaches bit-for-bit the state of
// the streaming trace.Replay reference.
func TestParsedReplayMachineEquivalence(t *testing.T) {
	w := tinyWorkload("cricket")
	_, events, err := DecodedMezzanine(context.Background(), w, codec.DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParsedDecodeTrace(context.Background(), w, codec.DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if parsed2, err := ParsedDecodeTrace(context.Background(), w, codec.DecoderOptions{}); err != nil || parsed2 != parsed {
		t.Fatalf("parsed trace not cached: %p vs %p (err %v)", parsed, parsed2, err)
	}
	for _, cfg := range uarch.TableIV() {
		ref := uarch.NewMachine(cfg, trace.NewImage(nil))
		if err := trace.Replay(events, ref); err != nil {
			t.Fatal(err)
		}
		fast := uarch.NewMachine(cfg, trace.NewImage(nil))
		fast.ReplayEvents(parsed)
		if !ref.Result().Equal(fast.Result()) {
			t.Fatalf("%s: parsed replay diverged from streaming replay:\nref:  %+v\nfast: %+v",
				cfg.Name, ref.Result(), fast.Result())
		}
	}
}

// TestParsedRunEquivalence is the fidelity guarantee of the parsed fan-out
// at the experiment level. The custom code image forces Run's per-job
// replay branch (the parsed view driven straight into the job's machine);
// the unique seed forces every cache layer to build cold through the
// default snapshot path.
func TestParsedRunEquivalence(t *testing.T) {
	w := tinyWorkload("cricket")
	opt := codec.Defaults()
	opt.CRF = 29
	opt.Refs = 2
	requireReference(t, Job{Workload: w, Options: opt, Config: uarch.Baseline(), Image: trace.NewImage(nil)})

	cold := w
	cold.Seed = 424242
	requireReference(t, Job{Workload: cold, Options: opt, Config: uarch.Baseline()})
}

// TestDecodedMezzanineCached verifies hits share one build (one event
// buffer) and that every call hands out frames of its own: equal to every
// other call's — pixels, padding, bases, PTS — but distinct, so writing
// into one call's frames changes neither a later call's nor a Run's report.
func TestDecodedMezzanineCached(t *testing.T) {
	ctx, w := context.Background(), tinyWorkload("cat")
	eng := NewEngine(DefaultCacheBudget)
	fa, ea, err := eng.DecodedMezzanine(ctx, w, codec.DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb, eb, err := eng.DecodedMezzanine(ctx, w, codec.DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) == 0 || len(ea) == 0 {
		t.Fatal("empty decode cache entry")
	}
	if &ea[0] != &eb[0] {
		t.Fatal("decoded mezzanine not cached")
	}
	if !reflect.DeepEqual(fa, fb) {
		t.Fatal("two calls' frames differ")
	}
	for i := range fa {
		if fa[i] == fb[i] || &fa[i].Y.Pix[0] == &fb[i].Y.Pix[0] || &fa[i].Cb.Pix[0] == &fb[i].Cb.Pix[0] || &fa[i].Cr.Pix[0] == &fb[i].Cr.Pix[0] {
			t.Fatalf("frame %d: two calls share storage", i)
		}
	}

	job := Job{Workload: w, Options: codec.Defaults(), Config: uarch.Baseline()}
	want, err := NewEngine(DefaultCacheBudget).Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fa {
		for _, p := range []*frame.Plane{&f.Y, &f.Cb, &f.Cr} {
			for i := range p.Pix {
				p.Pix[i] = ^p.Pix[i]
			}
			p.Base++
		}
		f.PTS += len(fa)
	}
	fc, _, err := eng.DecodedMezzanine(ctx, w, codec.DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fc, fb) {
		t.Fatal("writing into one call's frames changed a later call's")
	}
	got, err := eng.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "Run after writing into a call's frames", got, want)

	// A different decoder configuration is a different entry.
	_, ed, err := eng.DecodedMezzanine(ctx, w, codec.DecoderOptions{TraceSampleLog2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if &ed[0] == &ea[0] {
		t.Fatal("distinct decoder options share a cache entry")
	}
}

// TestCacheSingleflight hammers both caches from many goroutines on a cold
// key; under -race this catches stampedes and unsynchronized map access,
// and pointer identity proves everyone got the one shared build.
func TestCacheSingleflight(t *testing.T) {
	w := Workload{Video: "house", Frames: 6, Scale: 8, Seed: 7777} // cold: unique seed
	const callers = 16
	streams := make([][]byte, callers)
	events := make([][]byte, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			s, err := Mezzanine(context.Background(), w)
			if err != nil {
				t.Error(err)
				return
			}
			streams[i] = s
			_, e, err := DecodedMezzanine(context.Background(), w, codec.DecoderOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			events[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if &streams[i][0] != &streams[0][0] {
			t.Fatal("concurrent Mezzanine callers built separate streams")
		}
		if &events[i][0] != &events[0][0] {
			t.Fatal("concurrent DecodedMezzanine callers built separate traces")
		}
	}
}

// TestFlightCacheBuildsOnce checks the singleflight primitive directly: n
// concurrent gets of one cold key run build exactly once.
func TestFlightCacheBuildsOnce(t *testing.T) {
	c := flightCache[string, int]{name: "test", size: func(int) int64 { return 1 }, lru: &budget{limit: 1 << 20}}
	var builds int32
	var mu sync.Mutex
	const callers = 32
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			v, err := c.get(context.Background(), "k", func() (int, error) {
				mu.Lock()
				builds++
				mu.Unlock()
				return 99, nil
			})
			if err != nil || v != 99 {
				t.Errorf("get = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times", builds)
	}
}
