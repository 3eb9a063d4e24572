// Package branch implements structural branch-direction predictors: a
// bimodal table, a gshare global predictor, the Pentium-M-style hybrid that
// Sniper uses as its default, and TAGE. Predictors see the real
// data-dependent outcome streams of the instrumented codec, so their
// mispredict counts respond to content complexity and encoder parameters
// the way hardware counters do.
package branch

import (
	"maps"
	"unsafe"
)

// Predictor predicts conditional branch directions. PredictUpdate performs
// the predict-then-train step for one dynamic branch and reports whether
// the prediction was correct. LoopExit models a counted loop executing
// `iters` iterations at the given site and returns the number of
// mispredicts charged (the interesting one is the exit).
type Predictor interface {
	Name() string
	PredictUpdate(pc uint64, taken bool) bool
	LoopExit(pc uint64, iters int) int
	Reset()
	// Clone returns an independent deep copy of the predictor, including
	// all trained table and history state.
	Clone() Predictor
	// SizeBytes is the heap the trained state occupies: the tables, plus an
	// estimate for the loop detector's map (an entry's key and value bytes,
	// rounded up to a power of two for the buckets' overhead).
	SizeBytes() int
}

// Stats tracks aggregate accuracy.
type Stats struct {
	Branches   uint64
	Mispredict uint64
}

// --- two-bit counter helpers -------------------------------------------------

func ctrTaken(c uint8) bool { return c >= 2 }

func ctrUpdate(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// hashPC folds a branch address into a table index.
func hashPC(pc uint64, bits uint) uint64 {
	h := pc * 0x9E3779B97F4A7C15
	return (h >> (64 - bits))
}

// --- bimodal ------------------------------------------------------------------

// Bimodal is a per-site two-bit-counter table.
type Bimodal struct {
	table []uint8
	bits  uint
}

// NewBimodal builds a bimodal predictor with 2^bits counters.
func NewBimodal(bits uint) *Bimodal {
	b := &Bimodal{table: make([]uint8, 1<<bits), bits: bits}
	b.Reset()
	return b
}

func (b *Bimodal) Name() string { return "bimodal" }

func (b *Bimodal) SizeBytes() int { return len(b.table) }

func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 2 // weakly taken
	}
}

// Clone deep-copies the counter table.
func (b *Bimodal) Clone() Predictor {
	n := *b
	n.table = append([]uint8(nil), b.table...)
	return &n
}

func (b *Bimodal) PredictUpdate(pc uint64, taken bool) bool {
	i := hashPC(pc, b.bits)
	pred := ctrTaken(b.table[i])
	b.table[i] = ctrUpdate(b.table[i], taken)
	return pred == taken
}

// LoopExit without trip-count tracking mispredicts every exit of a loop
// longer than the counter can express.
func (b *Bimodal) LoopExit(pc uint64, iters int) int {
	if iters <= 1 {
		// Degenerate loop: behaves like a not-taken branch that bimodal
		// usually gets right once trained.
		if !b.PredictUpdate(pc, false) {
			return 1
		}
		return 0
	}
	// Saturated-taken counters always miss the exit.
	i := hashPC(pc, b.bits)
	b.table[i] = 3
	return 1
}

// --- gshare -------------------------------------------------------------------

// GShare XORs a global history register with the address.
type GShare struct {
	table []uint8
	bits  uint
	hist  uint64
}

// NewGShare builds a gshare predictor with 2^bits counters.
func NewGShare(bits uint) *GShare {
	g := &GShare{table: make([]uint8, 1<<bits), bits: bits}
	g.Reset()
	return g
}

func (g *GShare) Name() string { return "gshare" }

func (g *GShare) SizeBytes() int { return len(g.table) }

func (g *GShare) Reset() {
	for i := range g.table {
		g.table[i] = 2
	}
	g.hist = 0
}

// Clone deep-copies the counter table and history register.
func (g *GShare) Clone() Predictor {
	n := *g
	n.table = append([]uint8(nil), g.table...)
	return &n
}

func (g *GShare) index(pc uint64) uint64 {
	return (hashPC(pc, g.bits) ^ (g.hist & ((1 << g.bits) - 1)))
}

func (g *GShare) PredictUpdate(pc uint64, taken bool) bool {
	i := g.index(pc)
	pred := ctrTaken(g.table[i])
	g.table[i] = ctrUpdate(g.table[i], taken)
	g.hist <<= 1
	if taken {
		g.hist |= 1
	}
	return pred == taken
}

func (g *GShare) LoopExit(pc uint64, iters int) int {
	// Global history can capture short fixed trip counts.
	if iters <= 8 {
		miss := 0
		for k := 0; k < iters; k++ {
			if !g.PredictUpdate(pc, k < iters-1) {
				miss++
			}
		}
		if miss > 1 {
			miss = 1
		}
		return miss
	}
	g.hist = (g.hist << 4) | 0xF
	return 1
}

// --- Pentium-M hybrid -----------------------------------------------------------

// PentiumM approximates the Pentium M predictor: a bimodal table backed by
// a global predictor with a chooser, plus a loop detector that captures
// fixed trip counts up to its counter width (64 iterations).
type PentiumM struct {
	bim    *Bimodal
	gsh    *GShare
	choose []uint8
	bits   uint
	loops  map[uint64]int // last trip count per site
}

// NewPentiumM builds the hybrid with default table sizes.
func NewPentiumM() *PentiumM {
	// Table sizes reflect the Pentium M's modest budget; aliasing in these
	// small tables is the main accuracy gap against TAGE.
	p := &PentiumM{
		bim:    NewBimodal(9),
		gsh:    NewGShare(10),
		choose: make([]uint8, 1<<9),
		bits:   9,
		loops:  make(map[uint64]int),
	}
	for i := range p.choose {
		p.choose[i] = 2
	}
	return p
}

func (p *PentiumM) Name() string { return "pentium_m" }

func (p *PentiumM) SizeBytes() int {
	return p.bim.SizeBytes() + p.gsh.SizeBytes() + len(p.choose) + 32*len(p.loops)
}

func (p *PentiumM) Reset() {
	p.bim.Reset()
	p.gsh.Reset()
	for i := range p.choose {
		p.choose[i] = 2
	}
	p.loops = make(map[uint64]int)
}

// Clone deep-copies both component predictors, the chooser and the loop
// detector.
func (p *PentiumM) Clone() Predictor {
	n := *p
	n.bim = p.bim.Clone().(*Bimodal)
	n.gsh = p.gsh.Clone().(*GShare)
	n.choose = append([]uint8(nil), p.choose...)
	n.loops = maps.Clone(p.loops)
	return &n
}

func (p *PentiumM) PredictUpdate(pc uint64, taken bool) bool {
	// Flattened: the chooser and the bimodal table share p.bits, so one
	// multiply-hash serves both, and both component updates are inlined on
	// their tables directly — the arithmetic is exactly Bimodal.PredictUpdate
	// and GShare.PredictUpdate, minus the per-branch call overhead and the
	// repeated hashing. This runs once per dynamic branch of the workload.
	h := pc * 0x9E3779B97F4A7C15
	i := h >> (64 - p.bits)
	useG := ctrTaken(p.choose[i])
	bi := h >> (64 - p.bim.bits)
	okB := ctrTaken(p.bim.table[bi]) == taken
	p.bim.table[bi] = ctrUpdate(p.bim.table[bi], taken)
	gi := (h >> (64 - p.gsh.bits)) ^ (p.gsh.hist & ((1 << p.gsh.bits) - 1))
	okG := ctrTaken(p.gsh.table[gi]) == taken
	p.gsh.table[gi] = ctrUpdate(p.gsh.table[gi], taken)
	p.gsh.hist <<= 1
	if taken {
		p.gsh.hist |= 1
	}
	// Train the chooser toward whichever component was right.
	if okG != okB {
		p.choose[i] = ctrUpdate(p.choose[i], okG)
	}
	if useG {
		return okG
	}
	return okB
}

// LoopExit: the loop detector captures stable trip counts up to 64.
func (p *PentiumM) LoopExit(pc uint64, iters int) int {
	last, seen := p.loops[pc]
	p.loops[pc] = iters
	if iters <= 64 && seen && last == iters {
		return 0
	}
	if iters <= 2 {
		// Short loops resolve through the regular predictor most times.
		return 0
	}
	return 1
}

// --- TAGE ----------------------------------------------------------------------

// tageEntry is one tagged component entry.
type tageEntry struct {
	tag    uint16
	ctr    int8 // -4..3, taken when >= 0
	useful uint8
}

// TAGE implements a compact TAGE predictor: a bimodal base plus four tagged
// tables with geometrically increasing history lengths.
type TAGE struct {
	base   *Bimodal
	tables [4][]tageEntry
	hlens  [4]uint
	bits   uint
	hist   uint64
	loops  map[uint64][4]int // recent trip counts per site
	tick   uint8
}

// NewTAGE builds the predictor with 2^11-entry tagged tables and history
// lengths 8/16/32/64.
func NewTAGE() *TAGE {
	t := &TAGE{
		base:  NewBimodal(12),
		hlens: [4]uint{8, 16, 32, 64},
		bits:  11,
		loops: make(map[uint64][4]int),
	}
	for i := range t.tables {
		t.tables[i] = make([]tageEntry, 1<<t.bits)
	}
	return t
}

func (t *TAGE) Name() string { return "tage" }

func (t *TAGE) SizeBytes() int {
	return t.base.SizeBytes() + len(t.tables)*len(t.tables[0])*int(unsafe.Sizeof(tageEntry{})) + 64*len(t.loops)
}

func (t *TAGE) Reset() {
	t.base.Reset()
	for i := range t.tables {
		for j := range t.tables[i] {
			t.tables[i][j] = tageEntry{}
		}
	}
	t.hist = 0
	t.loops = make(map[uint64][4]int)
}

// Clone deep-copies the base table, all tagged components, the global
// history and the loop detector.
func (t *TAGE) Clone() Predictor {
	n := *t
	n.base = t.base.Clone().(*Bimodal)
	for i := range t.tables {
		n.tables[i] = append([]tageEntry(nil), t.tables[i]...)
	}
	n.loops = maps.Clone(t.loops)
	return &n
}

func (t *TAGE) foldedHist(n uint) uint64 {
	h := t.hist & ((1 << n) - 1)
	return h ^ (h >> 7) ^ (h >> 13)
}

func (t *TAGE) index(pc uint64, comp int) uint64 {
	return (hashPC(pc, t.bits) ^ t.foldedHist(t.hlens[comp])) & ((1 << t.bits) - 1)
}

func (t *TAGE) tag(pc uint64, comp int) uint16 {
	return uint16((pc>>2 ^ uint64(comp)<<9 ^ t.foldedHist(t.hlens[comp])*3) & 0x3FF)
}

// PredictUpdate follows the TAGE algorithm: longest matching component
// provides the prediction; allocation on mispredict.
//
// Flattened table access: t.hist only advances at the very end, so the
// per-component folded histories — and therefore every index and tag — are
// invariant across the predict, update and allocate steps. They are
// computed once up front instead of re-derived at each t.index/t.tag call
// (the streaming form re-folds the history up to eleven times per branch).
func (t *TAGE) PredictUpdate(pc uint64, taken bool) bool {
	hp := hashPC(pc, t.bits)
	mask := uint64(1)<<t.bits - 1
	var ix [4]uint64
	var tgs [4]uint16
	for c := 0; c < 4; c++ {
		f := t.foldedHist(t.hlens[c])
		ix[c] = (hp ^ f) & mask
		tgs[c] = uint16((pc>>2 ^ uint64(c)<<9 ^ f*3) & 0x3FF)
	}

	provider := -1
	var pi uint64
	pred := false
	for c := 3; c >= 0; c-- {
		i := ix[c]
		if t.tables[c][i].tag == tgs[c] {
			provider = c
			pi = i
			pred = t.tables[c][i].ctr >= 0
			break
		}
	}
	if provider < 0 {
		i := hashPC(pc, 12)
		pred = ctrTaken(t.base.table[i])
	}
	correct := pred == taken

	// Update provider (or base).
	if provider >= 0 {
		e := &t.tables[provider][pi]
		if taken {
			if e.ctr < 3 {
				e.ctr++
			}
		} else if e.ctr > -4 {
			e.ctr--
		}
		if correct && e.useful < 3 {
			e.useful++
		}
	} else {
		i := hashPC(pc, 12)
		t.base.table[i] = ctrUpdate(t.base.table[i], taken)
	}

	// Allocate a longer-history entry on mispredict.
	if !correct && provider < 3 {
		for c := provider + 1; c < 4; c++ {
			e := &t.tables[c][ix[c]]
			if e.useful == 0 {
				e.tag = tgs[c]
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				break
			}
			// Gradually age useful bits so allocation cannot starve.
			t.tick++
			if t.tick == 0 {
				e.useful--
			}
		}
	}

	t.hist <<= 1
	if taken {
		t.hist |= 1
	}
	return correct
}

// LoopExit: long histories let TAGE capture trip counts up to its history
// length, and its allocation policy tolerates a small working set of
// alternating trip counts per site.
func (t *TAGE) LoopExit(pc uint64, iters int) int {
	prev := t.loops[pc]
	t.loops[pc] = [4]int{iters, prev[0], prev[1], prev[2]}
	if iters <= 2 {
		return 0
	}
	if iters <= 512 && (iters == prev[0] || iters == prev[1] || iters == prev[2] || iters == prev[3]) {
		return 0
	}
	return 1
}

// New constructs a predictor by configuration name ("pentium_m", "tage",
// "bimodal", "gshare"). Unknown names fall back to pentium_m.
func New(name string) Predictor {
	switch name {
	case "tage":
		return NewTAGE()
	case "bimodal":
		return NewBimodal(12)
	case "gshare":
		return NewGShare(12)
	default:
		return NewPentiumM()
	}
}
