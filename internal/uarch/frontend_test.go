package uarch

import (
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/trace"
	"repro/internal/vbench"
)

// encodeTrace records the instrumentation trace of a real encode: four
// frames of the cricket proxy through the default options.
func encodeTrace(tb testing.TB) *trace.EventBuf {
	tb.Helper()
	info, err := vbench.ByName("cricket")
	if err != nil {
		tb.Fatal(err)
	}
	src := vbench.NewSource(info, vbench.SourceOptions{Scale: 16})
	frames := make([]*frame.Frame, 4)
	for i := range frames {
		frames[i] = src.Frame(i)
	}
	rec := trace.NewRecorder()
	enc, err := codec.NewEncoder(frames[0].Width, frames[0].Height, info.FPS, codec.Defaults(), rec)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := enc.EncodeAll(frames); err != nil {
		tb.Fatal(err)
	}
	parsed, err := trace.Parse(rec.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	return parsed
}

// replayOne is ReplayEvents' dispatch for a single event.
func replayOne(m *Machine, e *trace.Event) {
	switch e.Kind {
	case trace.EvOps:
		m.Ops(e.Fn, int(e.A))
	case trace.EvLoad:
		m.Load(e.Fn, e.Addr, int(e.A))
	case trace.EvStore:
		m.Store(e.Fn, e.Addr, int(e.A))
	case trace.EvLoad2D:
		m.Load2D(e.Fn, e.Addr, int(e.A), int(e.B), int(e.C))
	case trace.EvStore2D:
		m.Store2D(e.Fn, e.Addr, int(e.A), int(e.B), int(e.C))
	case trace.EvBranch:
		m.Branch(e.Fn, e.Site, e.Taken)
	case trace.EvLoop:
		m.Loop(e.Fn, e.Site, int(e.A))
	case trace.EvCall:
		m.Call(e.Fn)
	}
}

// lookupEveryFetch feeds one event to m with run batching defeated. The
// remembered line and page are forgotten before every fetch walk, so each
// walk starts with an iTLB and an L1i lookup; a 2-D event is unrolled into
// the per-row events it is defined as, so the walks of its rows are covered
// too. Within one walk consecutive fetches are from different lines anyway,
// and with m.pOffset zeroed by the caller a "page" is a single address, so
// they are from different pages as well. The test checks that m looked
// every fetch up in both structures by its run counts staying zero.
func lookupEveryFetch(m *Machine, e *trace.Event) {
	rows, row := 1, *e
	switch e.Kind {
	case trace.EvLoad2D:
		rows, row.Kind = int(e.B), trace.EvLoad
	case trace.EvStore2D:
		rows, row.Kind = int(e.B), trace.EvStore
	}
	for j := 0; j < rows; j++ {
		m.iLine, m.iPage = 0, 0
		replayOne(m, &row)
		row.Addr += uint64(e.C)
	}
}

// TestFrontEndRunBatchingEquivalence: counting repeat fetches instead of
// looking them up must not move any counter. A real encode trace goes into
// a machine as production drives it and into one that looks every fetch
// up, for all six configurations on two code layouts, and the two are
// compared every 1000 events. Mid-stream — after a fetch, so a line is
// remembered and the counts are live — the batched machine is cloned from
// several goroutines at once, the way sweep workers clone a shared
// snapshot: cloning must leave the source untouched (scripts/ci.sh runs
// this under -race, which turns any write to it into a failure) and the
// clones must finish on the reference's counters.
func TestFrontEndRunBatchingEquivalence(t *testing.T) {
	evs := encodeTrace(t).Events()
	// The compiler layout starts functions on line boundaries; the packed
	// one aligns them to 16 bytes, so two functions can share a line.
	packed := make(map[trace.FuncID]bool)
	for fn := trace.FuncID(1); fn < trace.NumFuncs; fn++ {
		packed[fn] = true
	}
	compiler := trace.NewImage(nil)
	for _, layout := range []struct {
		name string
		img  *trace.Image
	}{{"compiler", compiler}, {"packed", compiler.Relayout(nil, packed)}} {
		for _, cfg := range Extended() {
			t.Run(cfg.Name+"/"+layout.name, func(t *testing.T) {
				checkRunBatching(t, cfg, layout.img, evs)
			})
		}
	}
}

func checkRunBatching(t *testing.T, cfg Config, img *trace.Image, evs []trace.Event) {
	ref := NewMachine(cfg, img)
	ref.pOffset = 0
	batched := []*Machine{NewMachine(cfg, img)} // the original, then its clones
	for i := range evs {
		if i == len(evs)/2 {
			src := batched[0]
			if src.iLine == 0 || src.lineRuns == 0 || src.pageRuns == 0 {
				t.Fatalf("no fetch batched in %d events", i)
			}
			before := *src.Result()
			var clones [3]*Machine
			var wg sync.WaitGroup
			for c := range clones {
				wg.Add(1)
				go func() {
					defer wg.Done()
					clones[c] = src.Clone()
				}()
			}
			wg.Wait()
			if after := src.Result(); !after.Equal(&before) {
				t.Fatalf("Clone changed its source:\n before %+v\n after  %+v", before, *after)
			}
			batched = append(batched, clones[:]...)
		}
		lookupEveryFetch(ref, &evs[i])
		for _, m := range batched {
			replayOne(m, &evs[i])
		}
		if i%1000 != 0 && i != len(evs)-1 {
			continue
		}
		want := ref.Result()
		for j, m := range batched {
			if got := m.Result(); !got.Equal(want) {
				t.Fatalf("event %d: batched machine %d (0 = original, then its clones) diverged:\n want %+v\n got  %+v", i, j, want, got)
			}
		}
	}
	if ref.lineRuns != 0 || ref.pageRuns != 0 {
		t.Fatalf("the reference machine skipped %d L1i and %d iTLB lookups", ref.lineRuns, ref.lineRuns+ref.pageRuns)
	}
	got := batched[0]
	t.Logf("%d events, %d fetches: %d L1i and %d iTLB lookups skipped", len(evs),
		got.Result().L1I.Accesses, got.lineRuns, got.lineRuns+got.pageRuns)
}
