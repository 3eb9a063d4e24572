package uarch

import (
	"sync"
	"unsafe"

	"repro/internal/trace"
	"repro/internal/uarch/branch"
	"repro/internal/uarch/cache"
)

// Machine simulates one core running the instrumented transcoder. It
// implements trace.Sink: the codec drives it event by event, and the
// machine's structural caches and predictors plus its interval-model stall
// accounting turn the event stream into cycles and counters.
//
// The cycle model follows interval simulation (Carlson et al., the
// mechanism behind Sniper): a width-limited dispatch base plus additive
// penalty intervals for front-end misses, branch-mispredict flushes, and
// MLP-adjusted memory stalls, with structural back-pressure terms for the
// ROB, the reservation stations and the store buffer.
type Machine struct {
	cfg   Config
	img   *trace.Image
	fmeta *[trace.NumFuncs]fetchMeta // derived from img's regions; immutable, shared (fetchTable)

	l1i  *cache.Cache
	l1d  *cache.Cache
	l2   *cache.Cache
	l3   *cache.Cache
	l4   *cache.Cache // nil if not configured
	itlb *cache.Cache
	pred branch.Predictor

	// Fetch state: per-function cyclic cursor within the hot span.
	curFn   trace.FuncID
	fetchAt [trace.NumFuncs]int

	// Front-end run batching. iLine and iPage identify the L1i line and the
	// page of the previous icacheAccess (its address with the offset bits
	// set; zero before the first fetch). Only icacheAccess touches the L1i
	// and the iTLB, so that line and that page (a line lies within one page)
	// are still the most recent way of their sets, and another fetch from
	// them is a hit that changes nothing but the structure's access total. Such fetches are not looked
	// up, only counted: lineRuns skipped both structures, pageRuns the iTLB
	// alone. Result adds the counts to the totals.
	iOffset, pOffset   uint64 // offset bits of an L1i line, of a page
	iLine, iPage       uint64
	lineRuns, pageRuns uint64

	// Counters.
	insts  float64
	uops   float64
	loads  float64
	stores float64

	branches   float64
	mispredict float64
	takenBr    float64

	feCycles   float64 // fetch-miss + redirect bubbles
	bsCycles   float64 // mispredict flushes
	memCycles  float64 // data-miss stalls (MLP adjusted)
	coreCycles float64 // RS + SB structural stalls

	robStall float64 // resource-stall cycle counters (Fig. 5 f/g/h)
	rsStall  float64
	sbStall  float64

	// MLP cluster tracking.
	lastMissAt  float64 // insts at last L1D miss
	missCluster int

	// Store-buffer occupancy model.
	sbOcc       float64
	lastStoreAt float64

	// Next-line prefetcher state: last miss line and run length of the
	// ascending stream.
	pfLastLine uint64
	pfRun      int
	pfHits     float64
}

// fetchMeta caches the per-function fetch geometry derived from the
// immutable code image, so the fetch hot loop reads flat precomputed
// fields instead of re-deriving span and dilution per call.
type fetchMeta struct {
	addr    uint64
	span    int // FetchSpan()
	rounded int // span rounded up to a 64-byte line multiple
	hot     int // HotBytes
	// dilute[i] is the diluted fetch footprint of i instructions:
	// min(span, i*4*span/hot) — exactly the reference arithmetic in
	// fetchSlow. For i >= len(dilute), i*4 >= hot, so the footprint is
	// provably span (floor(a*span/hot) >= span ⇔ a >= hot). nil when the
	// region has no hot bytes.
	dilute []int32
}

// maxDiluteEntries bounds a single dilution table; instruction counts past
// the table fall back to the reference division.
const maxDiluteEntries = 1 << 14

func buildFetchMeta(img *trace.Image) *[trace.NumFuncs]fetchMeta {
	var fms [trace.NumFuncs]fetchMeta
	for fn := trace.FuncID(0); fn < trace.NumFuncs; fn++ {
		r := img.Region(fn)
		span := r.FetchSpan()
		fm := &fms[fn]
		fm.addr = r.Addr
		fm.span = span
		fm.rounded = (span + 63) &^ 63
		fm.hot = r.HotBytes
		if span <= 0 || r.HotBytes <= 0 {
			continue
		}
		n := (r.HotBytes + 3) / 4
		if n > maxDiluteEntries {
			n = maxDiluteEntries
		}
		tab := make([]int32, n)
		for i := range tab {
			b := i * 4 * span / r.HotBytes
			if b > span {
				b = span
			}
			tab[i] = int32(b)
		}
		fm.dilute = tab
	}
	return &fms
}

// fetchTables memoizes buildFetchMeta by code layout: the tables are a pure
// function of the image's regions, and a process runs a handful of layouts
// (the default image and each AutoFDO relayout), so every machine of one
// layout — each snapshot a title's decode and analysis layers retain —
// shares one table.
var fetchTables sync.Map // [trace.NumFuncs]trace.Region -> *[trace.NumFuncs]fetchMeta

// fetchTable returns the shared fetch tables of img's layout.
func fetchTable(img *trace.Image) *[trace.NumFuncs]fetchMeta {
	if t, ok := fetchTables.Load(img.Regions); ok {
		return t.(*[trace.NumFuncs]fetchMeta)
	}
	t, _ := fetchTables.LoadOrStore(img.Regions, buildFetchMeta(img))
	return t.(*[trace.NumFuncs]fetchMeta)
}

// NewMachine builds a machine for the given configuration and code image.
func NewMachine(cfg Config, img *trace.Image) *Machine {
	m := &Machine{cfg: cfg, img: img, fmeta: fetchTable(img)}
	m.l1i = cache.New(cfg.L1I.cacheConfig("l1i"))
	m.l1d = cache.New(cfg.L1D.cacheConfig("l1d"))
	m.l2 = cache.New(cfg.L2.cacheConfig("l2"))
	m.l3 = cache.New(cfg.L3.cacheConfig("l3"))
	if cfg.L4 != nil {
		m.l4 = cache.New(cfg.L4.cacheConfig("l4"))
	}
	m.itlb = cache.NewTLB("itlb", cfg.ITLBEntries, 4, 4096)
	m.pred = branch.New(cfg.Predictor)
	m.iOffset, m.pOffset = m.l1i.OffsetMask(), m.itlb.OffsetMask()
	return m
}

// Clone returns an independent deep copy of the machine: counters, fetch
// cursors, cache and TLB contents, and trained predictor state. The code
// image is shared (it is immutable after construction). m is only read.
// State that is kept — core's per-title caches — is held as a Snapshot
// instead, a tenth of the bytes and no slower to turn into a machine.
func (m *Machine) Clone() *Machine {
	n := *m
	for _, c := range n.levels() {
		if *c != nil {
			*c = (*c).Clone()
		}
	}
	n.pred = m.pred.Clone()
	return &n
}

var _ trace.Sink = (*Machine)(nil)

// Snapshot is the immutable retained form of a Machine, the value core's
// snapshot caches hold: it has no Sink methods, so the only way to feed a
// cached state further events is to thaw a private Machine from it.
// Counters, fetch cursors and the line/page-run state are kept by value,
// the caches frozen to their valid lines (cache.Frozen), the predictor
// cloned; the code image is shared with the machine, and the fetch tables
// with every machine of its layout (fetchTable). A frozen level may also be
// shared with sibling snapshots whose level is in the same state
// (Machine.Snapshot's like).
type Snapshot struct {
	m      Machine // cache pointers nil, pred private to the snapshot
	levels [6]*cache.Frozen
}

// levels lists the machine's cache pointers in Snapshot.levels order.
func (m *Machine) levels() [6]**cache.Cache {
	return [6]**cache.Cache{&m.l1i, &m.l1d, &m.l2, &m.l3, &m.l4, &m.itlb}
}

// Snapshot freezes the machine's current state. m is only read. Each cache
// level that is in the same state as that level of one of like is shared
// with it rather than copied: no core parameter or predictor changes the
// address stream, so machines that replayed one trace on configurations
// differing only there freeze to the same caches.
func (m *Machine) Snapshot(like ...*Snapshot) *Snapshot {
	s := &Snapshot{m: *m}
	s.m.pred = m.pred.Clone()
	sib := make([]*cache.Frozen, len(like))
	for i, c := range s.m.levels() {
		if *c != nil {
			for j, l := range like {
				sib[j] = l.levels[i]
			}
			s.levels[i], *c = (*c).Freeze(sib...), nil
		}
	}
	return s
}

// Machine thaws an independent live machine in exactly the snapshot's
// state. s is only read: sweep workers thaw one snapshot concurrently.
func (s *Snapshot) Machine() *Machine {
	m := s.m
	m.pred = s.m.pred.Clone()
	for i, c := range m.levels() {
		if f := s.levels[i]; f != nil {
			*c = f.Thaw()
		}
	}
	return &m
}

// SizeBytes is the heap the snapshot retains beyond the code image and the
// per-layout fetch tables: the fixed part, the predictor and the frozen
// caches. A level shared with a sibling is counted in full by each
// snapshot that holds it, so a sum of SizeBytes bounds the heap from above.
func (s *Snapshot) SizeBytes() int {
	n := int(unsafe.Sizeof(*s)) + s.m.pred.SizeBytes()
	for _, f := range s.levels {
		if f != nil {
			n += f.SizeBytes()
		}
	}
	return n
}

// --- instruction side ---------------------------------------------------------

// Ops models n ALU micro-ops executing in fn: dispatch bandwidth plus the
// instruction-fetch stream walking the function's hot span.
func (m *Machine) Ops(fn trace.FuncID, n int) {
	m.insts += float64(n)
	m.uops += float64(n)
	m.fetch(fn, n)
}

// Call models a fetch redirect into fn.
func (m *Machine) Call(fn trace.FuncID) {
	m.curFn = fn
	m.insts += 2
	m.uops += 2
	m.icacheAccess(m.fmeta[fn].addr + uint64(m.fetchAt[fn]))
}

// fetch walks the fetch cursor of fn across its span, touching each new
// 64-byte line in the L1i/iTLB. In an unpacked (pre-FDO) layout the hot
// instructions are diluted across the whole function body, inflating the
// touched footprint by Total/Hot.
//
// This is the hot-loop form: the dilution division is a table lookup, and
// the two modulo reductions become conditional subtractions, valid because
// off ∈ [0, span) and bytes ∈ [0, span] bound every operand below twice
// its modulus. Degenerate operands (negative instruction counts from a
// hostile trace, or counts past the dilution table) fall back to
// fetchSlow, the pinned reference arithmetic.
func (m *Machine) fetch(fn trace.FuncID, instrs int) {
	fm := &m.fmeta[fn]
	span := fm.span
	if span <= 0 {
		return
	}
	var bytes int
	if fm.hot > 0 {
		if uint(instrs) >= uint(len(fm.dilute)) {
			m.fetchSlow(fm, fn, instrs)
			return
		}
		bytes = int(fm.dilute[instrs])
	} else {
		bytes = instrs * 4
		if bytes > span {
			bytes = span // further fetch revisits lines touched this call
		}
	}
	off := m.fetchAt[fn]
	if off < 0 || bytes < 0 {
		m.fetchSlow(fm, fn, instrs)
		return
	}
	first := off / 64
	last := (off + bytes) / 64
	rounded := fm.rounded
	for l := first; l <= last; l++ {
		lineOff := l * 64
		if lineOff >= rounded {
			lineOff -= rounded
		}
		m.icacheAccess(fm.addr + uint64(lineOff))
	}
	at := off + bytes
	if at >= span {
		at -= span
	}
	m.fetchAt[fn] = at
}

// fetchSlow is the reference fetch arithmetic (modulo reductions and the
// dilution division), kept verbatim for operands outside the fast path's
// proven bounds.
func (m *Machine) fetchSlow(fm *fetchMeta, fn trace.FuncID, instrs int) {
	span := fm.span
	bytes := instrs * 4
	if fm.hot > 0 {
		// Dilution: n hot instructions cover n*4*(span/hot) bytes of the
		// layout (2x when hot/cold code interleaves, 1x after FDO packing).
		bytes = bytes * span / fm.hot
	}
	if bytes > span {
		bytes = span
	}
	off := m.fetchAt[fn]
	first := off / 64
	last := (off + bytes) / 64
	for l := first; l <= last; l++ {
		lineOff := (l * 64) % ((span + 63) &^ 63)
		m.icacheAccess(fm.addr + uint64(lineOff))
	}
	m.fetchAt[fn] = (off + bytes) % span
}

// icacheAccess performs one instruction-line lookup: iTLB then L1i, with
// misses escalating down the hierarchy and charging fetch-bubble cycles.
// A fetch from the line the previous call fetched from is only counted.
func (m *Machine) icacheAccess(addr uint64) {
	if addr|m.iOffset == m.iLine {
		m.lineRuns++
		return
	}
	m.icacheLookup(addr)
}

// icacheLookup is icacheAccess for a fetch that left the previous line; one
// that stayed on the previous page counts its iTLB hit and looks up the L1i
// alone.
func (m *Machine) icacheLookup(addr uint64) {
	m.iLine = addr | m.iOffset
	if page := addr | m.pOffset; page == m.iPage {
		m.pageRuns++
	} else {
		m.iPage = page
		if !m.itlb.Access(addr) {
			m.feCycles += 18 // page walk
		}
	}
	if m.l1i.Access(addr) {
		return
	}
	m.feCycles += m.outerLatency(addr)
}

// outerLatency runs a line that missed its L1 through L2, L3 and the L4 if
// there is one — instruction and data lines share them — and returns the
// latency of the level that had it.
func (m *Machine) outerLatency(line uint64) float64 {
	switch {
	case m.l2.Access(line):
		return float64(m.cfg.LatL2)
	case m.l3.Access(line):
		return float64(m.cfg.LatL3)
	case m.l4 != nil && m.l4.Access(line):
		return float64(m.cfg.LatL4)
	}
	return float64(m.cfg.LatMem)
}

// --- data side ------------------------------------------------------------------

// Load models a contiguous read.
func (m *Machine) Load(fn trace.FuncID, addr uint64, bytes int) {
	m.blockWalk(fn, addr, bytes, 1, 0, false)
}

// Store models a contiguous write.
func (m *Machine) Store(fn trace.FuncID, addr uint64, bytes int) {
	m.blockWalk(fn, addr, bytes, 1, 0, true)
}

// Load2D models a 2-D block read (w x h pixels, rows `stride` apart): h Load
// calls in one walk.
func (m *Machine) Load2D(fn trace.FuncID, addr uint64, w, h, stride int) {
	m.blockWalk(fn, addr, w, h, stride, false)
}

// Store2D models a 2-D block write: h Store calls in one walk.
func (m *Machine) Store2D(fn trace.FuncID, addr uint64, w, h, stride int) {
	m.blockWalk(fn, addr, w, h, stride, true)
}

// blockWalk is the one data-side walk: each of h rows touches every line of
// its w bytes as one memory uop per line, then sends those uops through
// fetch/dispatch. Within a row the order stays data accesses, insts, fetch:
// an L1i miss and an L1d miss share L2/L3, and loadMiss reads m.insts for
// MLP clustering. uops, loads and stores are read by nothing before Result,
// so they are counted in an integer and added once (float sums of integers
// below 2^53 are exact in any order). The common row hits the L1d and
// fetches from the line the previous row fetched from; that fetch is done
// inline — cursor forward by dilute[n], short of runEnd, one lineRuns —
// which is all m.fetch would do. TestBlockWalkMatchesRowLoads pins the walk
// against per-row Load/Store calls and the call-per-line walk it replaced,
// TestFrontEndRunBatchingEquivalence against a machine that looks every
// fetch up.
func (m *Machine) blockWalk(fn trace.FuncID, addr uint64, w, h, stride int, write bool) {
	if w <= 0 {
		return
	}
	fm, cursor := &m.fmeta[fn], &m.fetchAt[fn]
	runEnd := m.lineRunEnd(fm, *cursor)
	memOps := 0
	for j := 0; j < h; j++ {
		rowAddr := addr + uint64(j*stride)
		first := rowAddr &^ 63
		last := (rowAddr + uint64(w) - 1) &^ 63
		for line := first; line <= last; line += 64 {
			hit := m.l1d.Access(line)
			if write {
				m.storeRetire(line, hit)
			} else if !hit {
				m.loadMiss(line)
			}
		}
		n := int(last-first)>>6 + 1 // a multiple of 64, so the shift divides exactly
		memOps += n
		m.insts += float64(n)
		if uint(n) < uint(len(fm.dilute)) {
			if at := *cursor + int(fm.dilute[n]); at < runEnd {
				*cursor = at
				m.lineRuns++
				continue
			}
		}
		m.fetch(fn, n)
		runEnd = m.lineRunEnd(fm, *cursor)
	}
	m.uops += float64(memOps)
	if write {
		m.stores += float64(memOps)
	} else {
		m.loads += float64(memOps)
	}
}

// lineRunEnd bounds the cursor positions a fetch of fm's function can move
// to from off as a line run: short of leaving the line the previous fetch
// came from and short of wrapping the span. Zero if off is not on that line.
func (m *Machine) lineRunEnd(fm *fetchMeta, off int) int {
	if off < 0 || (fm.addr+uint64(off&^63))|m.iOffset != m.iLine {
		return 0
	}
	return min(fm.span, (off|63)+1)
}

// loadMiss runs a load that missed the L1d through the outer hierarchy and
// charges MLP-adjusted stall cycles.
func (m *Machine) loadMiss(line uint64) {
	// Next-line stream prefetcher: after two consecutive ascending-line
	// misses, the following lines of the stream are assumed in flight and
	// their latency is covered by the prefetcher (they still allocate).
	if m.cfg.NextLinePrefetch {
		if line == m.pfLastLine+64 {
			m.pfRun++
		} else if line != m.pfLastLine {
			m.pfRun = 0
		}
		m.pfLastLine = line
		if m.pfRun >= 2 {
			m.pfHits++
			m.l2.Access(line)
			m.l3.Access(line)
			return // latency hidden by the prefetch stream
		}
	}
	lat := m.outerLatency(line)

	// Memory-level parallelism: misses close together in the instruction
	// stream overlap, bounded by scheduler capacity.
	if m.insts-m.lastMissAt < float64(m.cfg.ROBSize)/2 {
		m.missCluster++
	} else {
		m.missCluster = 1
	}
	m.lastMissAt = m.insts
	maxMLP := m.cfg.RSSize / 9
	if maxMLP < 2 {
		maxMLP = 2
	}
	conc := m.missCluster
	if conc > maxMLP {
		conc = maxMLP
		// Cluster overflow backs up into the reservation stations.
		rs := 2.0
		if m.cfg.IssueAtDispatch {
			rs = 1.0
		}
		m.rsStall += rs
		m.coreCycles += rs
	}
	stall := lat / float64(conc)
	m.memCycles += stall

	// ROB-full portion: the out-of-order window hides ROBSize/width cycles
	// of each miss; the remainder stalls retirement with a full ROB.
	hidden := float64(m.cfg.ROBSize) / float64(m.cfg.WidthUops)
	if lat > hidden {
		m.robStall += (lat - hidden) / float64(conc)
	}
}

// storeRetire models a write whose L1d lookup hit or missed: write-allocate
// traffic plus store-buffer occupancy. Stores stall the pipeline only when
// the buffer fills.
func (m *Machine) storeRetire(line uint64, hit bool) {
	cost := 0.5 // cycles of buffer residency for an L1 hit
	if !hit {
		cost = m.outerLatency(line) / 4 // write-allocate fills overlap heavily
	}
	// Drain: the buffer retires entries while instructions flow.
	elapsed := m.insts - m.lastStoreAt
	m.lastStoreAt = m.insts
	m.sbOcc -= elapsed * 0.4
	if m.sbOcc < 0 {
		m.sbOcc = 0
	}
	m.sbOcc += cost
	if m.sbOcc > storeBufferEntries {
		over := m.sbOcc - storeBufferEntries
		m.sbStall += over
		m.coreCycles += over
		m.sbOcc = storeBufferEntries
	}
}

// storeBufferEntries is fixed across Table IV configurations (the paper
// varies ROB and RS only).
const storeBufferEntries = 42

// --- control side -----------------------------------------------------------------

// Branch models one dynamic data-dependent conditional branch.
func (m *Machine) Branch(fn trace.FuncID, site trace.BranchID, taken bool) {
	m.insts++
	m.uops++
	m.branches++
	r := m.img.Region(fn)
	pc := r.Addr + uint64(site)*16
	// AutoFDO direction canonicalization: the optimized layout flips the
	// polarity of strongly biased branches so the common path falls
	// through; the fetch bubble charged for taken branches disappears.
	effTaken := taken
	if r.Packed && m.img.BranchCanonical(fn, site) {
		effTaken = !taken
	}
	if effTaken {
		m.takenBr++
		m.feCycles += 0.8 // fetch redirect bubble
	}
	if !m.pred.PredictUpdate(pc, taken) {
		m.mispredict++
		m.bsCycles += float64(m.cfg.BranchPenalty)
	}
}

// Loop models a counted loop: iters backedge branches plus the trip-count
// exit prediction.
func (m *Machine) Loop(fn trace.FuncID, site trace.BranchID, iters int) {
	if iters <= 0 {
		return
	}
	m.insts += float64(iters)
	m.uops += float64(iters)
	m.branches += float64(iters)
	m.takenBr += float64(iters - 1)
	r := m.img.Region(fn)
	pc := r.Addr + uint64(site)*16 + 8
	miss := m.pred.LoopExit(pc, iters)
	m.mispredict += float64(miss)
	m.bsCycles += float64(miss) * float64(m.cfg.BranchPenalty)
}
