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

// event is one captured Sink call; eventLog is the Sink that captures them,
// so the tests can step machines through a trace one event at a time.
type event struct {
	kind    trace.EventKind
	fn      trace.FuncID
	addr    uint64
	site    trace.BranchID
	a, b, c int
	taken   bool
}

type eventLog []event

func (l *eventLog) Ops(fn trace.FuncID, n int) {
	*l = append(*l, event{kind: trace.EvOps, fn: fn, a: n})
}
func (l *eventLog) Load(fn trace.FuncID, addr uint64, bytes int) {
	*l = append(*l, event{kind: trace.EvLoad, fn: fn, addr: addr, a: bytes})
}
func (l *eventLog) Store(fn trace.FuncID, addr uint64, bytes int) {
	*l = append(*l, event{kind: trace.EvStore, fn: fn, addr: addr, a: bytes})
}
func (l *eventLog) Load2D(fn trace.FuncID, addr uint64, w, h, stride int) {
	*l = append(*l, event{kind: trace.EvLoad2D, fn: fn, addr: addr, a: w, b: h, c: stride})
}
func (l *eventLog) Store2D(fn trace.FuncID, addr uint64, w, h, stride int) {
	*l = append(*l, event{kind: trace.EvStore2D, fn: fn, addr: addr, a: w, b: h, c: stride})
}
func (l *eventLog) Branch(fn trace.FuncID, site trace.BranchID, taken bool) {
	*l = append(*l, event{kind: trace.EvBranch, fn: fn, site: site, taken: taken})
}
func (l *eventLog) Loop(fn trace.FuncID, site trace.BranchID, iters int) {
	*l = append(*l, event{kind: trace.EvLoop, fn: fn, site: site, a: iters})
}
func (l *eventLog) Call(fn trace.FuncID) { *l = append(*l, event{kind: trace.EvCall, fn: fn}) }

// replayOne is ReplayEvents' dispatch for a single event.
func replayOne(m *Machine, e *event) {
	switch e.kind {
	case trace.EvOps:
		m.Ops(e.fn, e.a)
	case trace.EvLoad:
		m.Load(e.fn, e.addr, e.a)
	case trace.EvStore:
		m.Store(e.fn, e.addr, e.a)
	case trace.EvLoad2D:
		m.Load2D(e.fn, e.addr, e.a, e.b, e.c)
	case trace.EvStore2D:
		m.Store2D(e.fn, e.addr, e.a, e.b, e.c)
	case trace.EvBranch:
		m.Branch(e.fn, e.site, e.taken)
	case trace.EvLoop:
		m.Loop(e.fn, e.site, e.a)
	case trace.EvCall:
		m.Call(e.fn)
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
func lookupEveryFetch(m *Machine, e *event) {
	rows, row := 1, *e
	switch e.kind {
	case trace.EvLoad2D:
		rows, row.kind = e.b, trace.EvLoad
	case trace.EvStore2D:
		rows, row.kind = e.b, trace.EvStore
	}
	for j := 0; j < rows; j++ {
		m.iLine, m.iPage = 0, 0
		replayOne(m, &row)
		row.addr += uint64(e.c)
	}
}

// TestFrontEndRunBatchingEquivalence: counting repeat fetches instead of
// looking them up must not move any counter. A real encode trace goes into
// a machine as production drives it and into one that looks every fetch
// up, for all six configurations on two code layouts, and the two are
// compared every 1000 events. Mid-stream — after a fetch, so a line is
// remembered and the counts are live — the batched machine is frozen into
// a Snapshot, and several goroutines at once each clone the machine and
// thaw the snapshot, the way sweep workers thaw a shared one: neither may
// write to its source (scripts/ci.sh runs this under -race, which turns
// any write into a failure), and the clones and their thawed twins must
// all finish on the reference's counters.
func TestFrontEndRunBatchingEquivalence(t *testing.T) {
	var evs eventLog
	if err := trace.Replay(encodeTrace(t).Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
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

func checkRunBatching(t *testing.T, cfg Config, img *trace.Image, evs []event) {
	ref := NewMachine(cfg, img)
	ref.pOffset = 0
	batched := []*Machine{NewMachine(cfg, img)} // the original, then its clones, then their thawed twins
	for i := range evs {
		if i == len(evs)/2 {
			src := batched[0]
			if src.iLine == 0 || src.lineRuns == 0 || src.pageRuns == 0 {
				t.Fatalf("no fetch batched in %d events", i)
			}
			before := *src.Result()
			snap := src.Snapshot()
			var clones, thawed [3]*Machine
			var wg sync.WaitGroup
			for c := range clones {
				wg.Add(1)
				go func() {
					defer wg.Done()
					clones[c] = src.Clone()
					thawed[c] = snap.Machine()
				}()
			}
			wg.Wait()
			if after := src.Result(); !after.Equal(&before) {
				t.Fatalf("Clone or Snapshot changed its source:\n before %+v\n after  %+v", before, *after)
			}
			batched = append(append(batched, clones[:]...), thawed[:]...)
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
				t.Fatalf("event %d: batched machine %d (0 = original, 1-3 its clones, 4-6 thawed from its snapshot) diverged:\n want %+v\n got  %+v", i, j, want, got)
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

// TestSnapshotsShareEqualLevels drives the five Table IV machines with one
// encode trace and snapshots each with the ones before it as siblings. No
// core parameter or predictor changes the address stream, so baseline,
// be_op2 and bs_op hold one L1i, L1d, L2, L3 and iTLB; be_op1 (other
// L1d/L2/L3, an L4) still shares the L1i and iTLB, and fe_op (other
// L1i/iTLB) the L1d. The snapshots are thawed concurrently — the shared
// levels are read by several thaws at once (scripts/ci.sh runs this under
// -race) — and each thawed machine must replay the trace again onto the
// counters of the machine it was frozen from.
func TestSnapshotsShareEqualLevels(t *testing.T) {
	parsed := encodeTrace(t)
	img := trace.NewImage(nil)
	cfgs := TableIV()
	machines := make([]*Machine, len(cfgs))
	snaps := make(map[string]*Snapshot)
	var like []*Snapshot
	for i, cfg := range cfgs {
		machines[i] = NewMachine(cfg, img)
		machines[i].ReplayEvents(parsed)
		s := machines[i].Snapshot(like...)
		snaps[cfg.Name] = s
		like = append(like, s)
	}
	const l1i, l1d, l2, l3, itlb = 0, 1, 2, 3, 5
	names := [...]string{"l1i", "l1d", "l2", "l3", "l4", "itlb"}
	for _, c := range []struct {
		a, b   string
		shared []int
	}{
		{"baseline", "be_op2", []int{l1i, l1d, l2, l3, itlb}},
		{"baseline", "bs_op", []int{l1i, l1d, l2, l3, itlb}},
		{"baseline", "be_op1", []int{l1i, itlb}},
		{"baseline", "fe_op", []int{l1d}},
	} {
		a, b := snaps[c.a], snaps[c.b]
		for _, lvl := range c.shared {
			if a.levels[lvl] != b.levels[lvl] {
				t.Errorf("%s and %s hold separate copies of the %s", c.a, c.b, names[lvl])
			}
		}
	}
	if snaps["baseline"].levels[l1i] == snaps["fe_op"].levels[l1i] {
		t.Errorf("baseline and fe_op share an L1i of different geometry")
	}
	var wg sync.WaitGroup
	thawed := make([]*Machine, len(cfgs))
	for i, s := range like {
		wg.Add(1)
		go func() {
			defer wg.Done()
			thawed[i] = s.Machine()
			thawed[i].ReplayEvents(parsed)
		}()
	}
	wg.Wait()
	for i, m := range machines {
		m.ReplayEvents(parsed)
		if want, got := m.Result(), thawed[i].Result(); !got.Equal(want) {
			t.Errorf("%s: thawed from a sharing snapshot, diverged on replay:\n want %+v\n got  %+v", cfgs[i].Name, want, got)
		}
	}
}

// benchSink keeps the benchmarked copies alive past the optimizer.
var benchSink *Machine

// benchCopies prices handing a job its own machine in a warmed state — one
// that has consumed a real encode trace, so the outer cache levels hold a
// few thousand lines in their hundred thousand ways, as a cached snapshot's
// do. be_op1 adds the 2 MiB of L4 keys to what a dense copy moves.
func benchCopies(b *testing.B, copier func(*Machine) func() *Machine) {
	b.Helper()
	parsed := encodeTrace(b)
	for _, cfg := range []Config{Baseline(), BeOp1()} {
		b.Run(cfg.Name, func(b *testing.B) {
			m := NewMachine(cfg, trace.NewImage(nil))
			m.ReplayEvents(parsed)
			next := copier(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = next()
			}
		})
	}
}

// BenchmarkMachineClone is the dense copy the snapshot caches made per job
// before they held Snapshots; BenchmarkSnapshotThaw is what they do now.
func BenchmarkMachineClone(b *testing.B) {
	benchCopies(b, func(m *Machine) func() *Machine { return m.Clone })
}

func BenchmarkSnapshotThaw(b *testing.B) {
	benchCopies(b, func(m *Machine) func() *Machine { return m.Snapshot().Machine })
}
