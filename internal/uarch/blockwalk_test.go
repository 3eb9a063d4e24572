package uarch

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// rowWalkRef is the data-side walk blockWalk replaced, one row of it: a
// counter bump per line, float counters per row and a full fetch call.
func rowWalkRef(m *Machine, fn trace.FuncID, addr uint64, bytes int, write bool) {
	if bytes <= 0 {
		return
	}
	first := addr &^ 63
	last := (addr + uint64(bytes) - 1) &^ 63
	for line := first; line <= last; line += 64 {
		hit := m.l1d.Access(line)
		if write {
			m.stores++
			m.storeRetire(line, hit)
		} else {
			m.loads++
			if !hit {
				m.loadMiss(line)
			}
		}
	}
	n := int(last-first)/64 + 1
	m.insts += float64(n)
	m.uops += float64(n)
	m.fetch(fn, n)
}

// TestBlockWalkMatchesRowLoads: a 2-D event must leave the machine exactly
// where the h Load (or Store) calls it stands for leave it — the trace.Sink
// contract — and where the replaced call-per-line walk left it. Three
// machines take one seeded stream of block events mixed with the Ops and
// Calls that move fetch cursors between them: one as 2-D events, one as
// per-row Load/Store, one through rowWalkRef. Geometry is hostile on
// purpose: empty and negative extents, zero and negative strides, rows of
// 1 to 40 lines, a function with no hot bytes, one whose span ends in the
// middle of a line, and cursors parked a byte or a row's fetch before
// their span wraps. Results and front-end state are compared after every
// event.
func TestBlockWalkMatchesRowLoads(t *testing.T) {
	packed := make(map[trace.FuncID]bool)
	for fn := trace.FuncID(1); fn < trace.NumFuncs; fn++ {
		packed[fn] = true
	}
	compiler := trace.NewImage(nil)
	packedImg := compiler.Relayout(nil, packed)
	packedImg.Regions[trace.FnMC].HotBytes = 0    // FnNone is the compiler layout's
	packedImg.Regions[trace.FnSAD].HotBytes = 200 // a span that ends mid-line: the cursor can wrap without leaving it
	for _, layout := range []struct {
		name string
		img  *trace.Image
	}{{"compiler", compiler}, {"packed", packedImg}} {
		for _, cfg := range Extended() {
			t.Run(cfg.Name+"/"+layout.name, func(t *testing.T) {
				checkBlockWalk(t, cfg, layout.img)
			})
		}
	}
}

func checkBlockWalk(t *testing.T, cfg Config, img *trace.Image) {
	rng := rand.New(rand.NewSource(22))
	block, rows, ref := NewMachine(cfg, img), NewMachine(cfg, img), NewMachine(cfg, img)
	all := []*Machine{block, rows, ref}
	fns := []trace.FuncID{trace.FnNone, trace.FnMC, trace.FnInterp, trace.FnSubpel, trace.FnSAD, trace.FnAnalyse}
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	for i := 0; i < 6000; i++ {
		fn := fns[rng.Intn(len(fns))]
		switch rng.Intn(8) {
		case 0:
			n := pick(1, 7, 120, 5000)
			for _, m := range all {
				m.Ops(fn, n)
			}
		case 1:
			for _, m := range all {
				m.Call(fn)
			}
		case 2:
			// Park the cursor where the next row's fetch ends one byte
			// short of the span's end, exactly on it, or past it.
			back := pick(1, 4, 5, 8)
			for _, m := range all {
				if span := m.fmeta[fn].span; span > 0 {
					m.fetchAt[fn] = span - back
				}
			}
		default:
			// A small resident region, so most rows hit, and a far one.
			addr := 0x100000000 + uint64(rng.Intn(1<<14))
			if rng.Intn(4) == 0 {
				addr += uint64(rng.Intn(1 << 26))
			}
			w := pick(-3, 0, 1, 4, 8, 9, 16, 17, 17, 17, 64, 65, 700, 40*64)
			h := pick(-1, 0, 1, 4, 8, 9, 17, 17, 17, 20)
			stride := pick(-384, 0, 1, 64, 384, 384, 4096)
			write := rng.Intn(3) == 0
			if write {
				block.Store2D(fn, addr, w, h, stride)
			} else {
				block.Load2D(fn, addr, w, h, stride)
			}
			for j := 0; j < h; j++ {
				rowAddr := addr + uint64(j*stride)
				if write {
					rows.Store(fn, rowAddr, w)
				} else {
					rows.Load(fn, rowAddr, w)
				}
				rowWalkRef(ref, fn, rowAddr, w, write)
			}
		}
		want := block.Result()
		for k, m := range all[1:] {
			if got := m.Result(); !got.Equal(want) {
				t.Fatalf("event %d: machine %d (1 = per-row Load/Store, 2 = rowWalkRef) diverged from the block walk:\n block %+v\n rows  %+v", i, k+1, want, got)
			}
			if m.fetchAt != block.fetchAt || m.iLine != block.iLine || m.iPage != block.iPage ||
				m.lineRuns != block.lineRuns || m.pageRuns != block.pageRuns {
				t.Fatalf("event %d: machine %d's front-end state diverged from the block walk's", i, k+1)
			}
		}
	}
	if block.lineRuns == 0 || block.Result().L1D.Misses == 0 {
		t.Fatalf("stream never batched a fetch (%d) or never missed the L1d", block.lineRuns)
	}
}
