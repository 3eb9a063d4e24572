package uarch

import (
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/trace"
	"repro/internal/vbench"
)

// replayWorkload records a synthetic but realistic event mix: every kind,
// several functions, addresses with reuse and streaming, biased branches
// and short loops.
func replayWorkload() []byte {
	rec := trace.NewRecorder()
	rng := rand.New(rand.NewSource(7))
	fns := []trace.FuncID{trace.FnSAD, trace.FnSATD, trace.FnDecMC, trace.FnDecIDCT, trace.FnDeblock, trace.FnDecParse}
	base := uint64(0x1_0000_0000)
	for i := 0; i < 20000; i++ {
		fn := fns[rng.Intn(len(fns))]
		switch rng.Intn(8) {
		case 0:
			rec.Ops(fn, 1+rng.Intn(64))
		case 1:
			rec.Load(fn, base+uint64(rng.Intn(1<<22)), 1+rng.Intn(256))
		case 2:
			rec.Store(fn, base+uint64(rng.Intn(1<<22)), 1+rng.Intn(128))
		case 3:
			rec.Load2D(fn, base+uint64(rng.Intn(1<<22)), 16, 16, 1920)
		case 4:
			rec.Store2D(fn, base+uint64(rng.Intn(1<<22)), 8, 8, 1920)
		case 5:
			rec.Branch(fn, trace.BranchID(rng.Intn(64)), rng.Intn(3) > 0)
		case 6:
			rec.Loop(fn, trace.BranchID(rng.Intn(64)), 1+rng.Intn(32))
		case 7:
			rec.Call(fn)
		}
	}
	return append([]byte(nil), rec.Bytes()...)
}

// decodeTrace records the decode trace of a real mezzanine: eight frames of
// cricket at scale 8, encoded with the mezzanine's settings (veryfast at
// CQP 12) and decoded with the default decoder options.
func decodeTrace(tb testing.TB) []byte {
	tb.Helper()
	info, err := vbench.ByName("cricket")
	if err != nil {
		tb.Fatal(err)
	}
	src := vbench.NewSource(info, vbench.SourceOptions{Scale: 8})
	frames := make([]*frame.Frame, 8)
	for i := range frames {
		frames[i] = src.Frame(i)
	}
	opt := codec.Options{RC: codec.RCCQP, QP: 12, CRF: 23, KeyintMax: 250}
	if err := codec.ApplyPreset(&opt, codec.PresetVeryfast); err != nil {
		tb.Fatal(err)
	}
	enc, err := codec.NewEncoder(frames[0].Width, frames[0].Height, info.FPS, opt, nil)
	if err != nil {
		tb.Fatal(err)
	}
	stream, _, err := enc.EncodeAll(frames)
	if err != nil {
		tb.Fatal(err)
	}
	_, _, events, err := codec.RecordDecode(stream, codec.DecoderOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return events
}

// TestReplayEventsEquivalence is the fast-path fidelity gate: on a
// synthetic mix of every event kind and on a real encode trace, for all
// six configurations, a machine driven by the devirtualized ReplayEvents
// loop must land on exactly the counters of the pinned event-by-event
// trace.Replay reference. The buffer is replayed twice so hidden state
// (fetch cursors, predictor history, cache LRU and MRU) that diverged in
// round one would surface as a counter difference in round two.
func TestReplayEventsEquivalence(t *testing.T) {
	for _, tr := range []struct {
		name string
		buf  []byte
	}{{"synthetic", replayWorkload()}, {"encode", encodeTrace(t).Bytes()}} {
		parsed, err := trace.Parse(tr.buf)
		if err != nil {
			t.Fatal(err)
		}
		img := trace.NewImage(nil)
		for _, cfg := range Extended() {
			ref := NewMachine(cfg, img)
			fast := NewMachine(cfg, img)
			for round := 0; round < 2; round++ {
				if err := trace.Replay(tr.buf, ref); err != nil {
					t.Fatal(err)
				}
				fast.ReplayEvents(parsed)
				if r, f := ref.Result(), fast.Result(); !r.Equal(f) {
					t.Fatalf("%s on %s round %d: ReplayEvents diverged:\n ref  %+v\n fast %+v", tr.name, cfg.Name, round, r, f)
				}
			}
		}
	}
}

// BenchmarkReplayEvents replays a real decode trace into a fresh machine:
// through the Sink interface with every varint checked (streaming), and
// through the devirtualized loop over the parsed view (view).
func BenchmarkReplayEvents(b *testing.B) {
	buf := decodeTrace(b)
	parsed, err := trace.Parse(buf)
	if err != nil {
		b.Fatal(err)
	}
	img := trace.NewImage(nil)
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewMachine(Baseline(), img)
			if err := trace.Replay(buf, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewMachine(Baseline(), img)
			m.ReplayEvents(parsed)
		}
	})
}
