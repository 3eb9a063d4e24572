package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/vbench"
)

// footprintWorkload is the title the retained-bytes figures in DESIGN.md
// §6 and CHANGES.md are stated on: 8 frames of cricket at 160x96.
func footprintWorkload() Workload { return Workload{Video: "cricket", Frames: 8, Scale: 8} }

// TestEveryCacheLayerReportsBytes: on-boarding one title on one
// configuration misses once in each of the seven layers, and every one of
// them must account for what it now retains in core_cache_bytes — the two
// snapshot layers had no size func and reported nothing. A private engine
// makes the title new whatever the rest of the package has run.
func TestEveryCacheLayerReportsBytes(t *testing.T) {
	eng := NewEngine(DefaultCacheBudget)
	layers := layersOf(eng)
	before := cacheCounters("core_cache_bytes", layers)
	if _, err := eng.Run(context.Background(), Job{Workload: footprintWorkload(), Options: codec.Defaults(), Config: uarch.Baseline()}); err != nil {
		t.Fatal(err)
	}
	after := cacheCounters("core_cache_bytes", layers)
	for _, l := range layers {
		if after[l.name] <= before[l.name] {
			t.Errorf("core_cache_bytes{cache=%s} did not grow: %d -> %d", l.name, before[l.name], after[l.name])
		}
		t.Logf("%-12s retains %8d B", l.name, after[l.name]-before[l.name])
	}
}

// TestDecodedPicturesRebuildFrames: the decode layer keeps pictures, not
// frames, which is exact only because the decoder edge-extends every frame
// it outputs. On every catalog video, each frame a live decode outputs
// equals its Picture().Frame() byte for byte, padding included, and so
// does the frame DecodedMezzanine hands out for it.
func TestDecodedPicturesRebuildFrames(t *testing.T) {
	ctx, eng := context.Background(), NewEngine(DefaultCacheBudget)
	for _, name := range vbench.Names() {
		w := Workload{Video: name, Frames: 3, Scale: 16}
		stream, err := eng.Mezzanine(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		live, _, err := codec.NewDecoder(codec.DecoderOptions{}, nil).Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		cached, _, err := eng.DecodedMezzanine(ctx, w, codec.DecoderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cached) != len(live) {
			t.Fatalf("%s: %d cached frames, %d decoded", name, len(cached), len(live))
		}
		for i, f := range live {
			if !reflect.DeepEqual(f.Picture().Frame(), f) {
				t.Fatalf("%s frame %d: Picture().Frame() differs from the decoded frame", name, i)
			}
			if !reflect.DeepEqual(cached[i], f) {
				t.Fatalf("%s frame %d: DecodedMezzanine's frame differs from the decoded frame", name, i)
			}
		}
	}
}

// TestRetainedBuffersAreClipped: the byte buffers the cache keeps past the
// call that built them — a mezzanine stream, a decode's and an analysis'
// recorded events — hold no capacity beyond their length, which is what
// the budget charges.
func TestRetainedBuffersAreClipped(t *testing.T) {
	ctx, w, dopt := context.Background(), footprintWorkload(), codec.DecoderOptions{}
	eng := NewEngine(DefaultCacheBudget)
	stream, err := eng.Mezzanine(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := eng.decoded(ctx, w, dopt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.sharedAnalysis(ctx, w, dopt, codec.Defaults(), codec.Segment{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name string
		buf  []byte
	}{{"mezzanine stream", stream}, {"decode events", dec.events}, {"analysis events", a.Events()}} {
		if len(b.buf) == 0 || cap(b.buf) != len(b.buf) {
			t.Errorf("%s: len %d, cap %d", b.name, len(b.buf), cap(b.buf))
		}
	}
}

// TestSnapshotFootprint pins the sparse snapshot's gain: after a decode the
// frozen form of every configuration's machine is at most a tenth of its
// dense cache arrays (8 bytes a way). (That the thawed machine carries on
// bit-identically is TestReplayRunEquivalence's business.)
func TestSnapshotFootprint(t *testing.T) {
	ctx, w, dopt := context.Background(), footprintWorkload(), codec.DecoderOptions{}
	eng := NewEngine(DefaultCacheBudget)
	for _, cfg := range uarch.Extended() {
		snap, err := eng.decodedMachine(ctx, w, dopt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ways := cfg.ITLBEntries
		for _, p := range []*uarch.CacheParams{&cfg.L1I, &cfg.L1D, &cfg.L2, &cfg.L3, cfg.L4} {
			if p != nil {
				ways += p.Size / p.Line
			}
		}
		dense, got := 8*ways, snap.SizeBytes()
		t.Logf("%-8s snapshot %7d B, dense keys %8d B (%.1f%%)", cfg.Name, got, dense, 100*float64(got)/float64(dense))
		if got <= 0 || got > dense/10 {
			t.Errorf("%s: snapshot retains %d B, want at most a tenth of the %d B of dense keys", cfg.Name, got, dense)
		}
	}
}

// TestSnapshotLayersShareLevels: a title's five decode and five analysis
// snapshots share the frozen cache levels their configurations cannot
// tell apart, so building them grows the heap by well under what the same
// ten machines retain frozen apart. The title's upstream layers are built
// first, and the default layout's fetch table (one per process), so that
// only the ten snapshots land between the two heap readings; the control
// thaws each of them and freezes it again without siblings, which copies
// every level its snapshot shares. A heap reading collects twice, so that
// what sync.Pools held at the first reading is gone from the second too.
func TestSnapshotLayersShareLevels(t *testing.T) {
	ctx, w, dopt := context.Background(), footprintWorkload(), codec.DecoderOptions{}
	eng := NewEngine(DefaultCacheBudget)
	a, err := eng.sharedAnalysis(ctx, w, dopt, codec.Defaults(), codec.Segment{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ParsedDecodeTrace(ctx, w, dopt); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.parsedAnalysisTrace(ctx, w, dopt, a); err != nil {
		t.Fatal(err)
	}
	heapAfterGC := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	uarch.NewMachine(uarch.Baseline(), defaultImage) // the process's fetch table of the default layout
	before := heapAfterGC()
	var shared []*uarch.Snapshot
	for _, cfg := range uarch.TableIV() {
		dec, err := eng.decodedMachine(ctx, w, dopt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ana, err := eng.analysisMachine(ctx, w, dopt, cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		shared = append(shared, dec, ana)
	}
	grown := heapAfterGC() - before

	var thawed []*uarch.Machine
	for _, s := range shared {
		thawed = append(thawed, s.Machine())
	}
	before = heapAfterGC()
	var apart []*uarch.Snapshot
	for _, m := range thawed {
		apart = append(apart, m.Snapshot())
	}
	control := heapAfterGC() - before
	runtime.KeepAlive(eng)
	runtime.KeepAlive(thawed)
	runtime.KeepAlive(apart)
	t.Logf("ten snapshots grew the heap by %d B, frozen apart by %d B (%.1f%%)", grown, control, 100*float64(grown)/float64(control))
	if grown > control*6/10 {
		t.Errorf("ten sibling snapshots grew the heap by %d B, frozen apart %d B: want at most 60%%", grown, control)
	}
}

// TestParsedViewAliasesEvents: the two parsed layers retain no copy of
// the trace they parse. The cached decode EventBuf views the decoded
// entry's recorded events and the cached lookahead EventBuf the analysis
// artifact's, byte for byte, and neither is charged more than those bytes.
func TestParsedViewAliasesEvents(t *testing.T) {
	ctx, w, dopt := context.Background(), footprintWorkload(), codec.DecoderOptions{}
	eng := NewEngine(DefaultCacheBudget)
	_, events, err := eng.DecodedMezzanine(ctx, w, dopt)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := eng.ParsedDecodeTrace(ctx, w, dopt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.sharedAnalysis(ctx, w, dopt, codec.Defaults(), codec.Segment{})
	if err != nil {
		t.Fatal(err)
	}
	anaParsed, err := eng.parsedAnalysisTrace(ctx, w, dopt, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		layer  string
		b      *trace.EventBuf
		events []byte
	}{{"parsed", parsed, events}, {"ana_parsed", anaParsed, a.Events()}} {
		got := c.b.Bytes()
		t.Logf("%-10s %d events in %d B (%.2f B/event), charged %d B", c.layer, c.b.Len(), len(c.events),
			float64(len(c.events))/float64(c.b.Len()), c.b.SizeBytes())
		if c.b.Len() == 0 || len(got) != len(c.events) || &got[0] != &c.events[0] {
			t.Errorf("%s: EventBuf of %d events does not view the %d recorded bytes it was parsed from", c.layer, c.b.Len(), len(c.events))
		}
		if c.b.SizeBytes() > len(c.events)+64 {
			t.Errorf("%s: charged %d B for a %d-byte trace", c.layer, c.b.SizeBytes(), len(c.events))
		}
	}
}
