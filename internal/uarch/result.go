package uarch

import "repro/internal/uarch/cache"

// Result carries the raw counter state of a finished simulation. All
// quantities are in sampled-trace units; callers scale by the trace sample
// factor when estimating absolute time (rates like MPKI and slot fractions
// are scale-free).
type Result struct {
	Config string

	Insts  float64
	Uops   float64
	Loads  float64
	Stores float64

	Branches    float64
	Mispredicts float64
	TakenBr     float64

	// Cycle components of the interval model.
	BaseCycles float64 // uops / width: useful dispatch
	FECycles   float64
	BSCycles   float64
	MemCycles  float64
	CoreCycles float64

	// Resource-stall cycle counters (Fig. 5 e-h).
	ROBStall float64
	RSStall  float64
	SBStall  float64

	L1I, L1D, L2, L3, L4 cache.Stats
	ITLB                 cache.Stats

	WidthUops int
	FreqGHz   float64
}

// Result snapshots the machine counters.
func (m *Machine) Result() *Result {
	r := &Result{
		Config:      m.cfg.Name,
		Insts:       m.insts,
		Uops:        m.uops,
		Loads:       m.loads,
		Stores:      m.stores,
		Branches:    m.branches,
		Mispredicts: m.mispredict,
		TakenBr:     m.takenBr,
		BaseCycles:  m.uops / float64(m.cfg.WidthUops),
		FECycles:    m.feCycles,
		BSCycles:    m.bsCycles,
		MemCycles:   m.memCycles,
		CoreCycles:  m.coreCycles,
		ROBStall:    m.robStall,
		RSStall:     m.rsStall,
		SBStall:     m.sbStall,
		L1I:         m.l1i.Stats(),
		L1D:         m.l1d.Stats(),
		L2:          m.l2.Stats(),
		L3:          m.l3.Stats(),
		ITLB:        m.itlb.Stats(),
		WidthUops:   m.cfg.WidthUops,
		FreqGHz:     m.cfg.FreqGHz,
	}
	if m.l4 != nil {
		r.L4 = m.l4.Stats()
	}
	// Hits icacheAccess counted without a lookup.
	r.L1I.Accesses += m.lineRuns
	r.ITLB.Accesses += m.lineRuns + m.pageRuns
	return r
}

// Cycles returns total simulated cycles (sampled units).
func (r *Result) Cycles() float64 {
	return r.BaseCycles + r.FECycles + r.BSCycles + r.MemCycles + r.CoreCycles
}

// Seconds estimates wall-clock execution time given the trace sample
// factor.
func (r *Result) Seconds(sampleFactor float64) float64 {
	return r.Cycles() * sampleFactor / (r.FreqGHz * 1e9)
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 {
	c := r.Cycles()
	if c == 0 {
		return 0
	}
	return r.Insts / c
}

// DRAMBytes estimates main-memory traffic: last-level misses times the line
// size (64 B). With an L4, its misses are the DRAM traffic.
func (r *Result) DRAMBytes() float64 {
	misses := r.L3.Misses
	if r.L4.Accesses > 0 {
		misses = r.L4.Misses
	}
	return float64(misses) * 64
}

// Equal reports whether two results are bit-for-bit identical: every
// counter, every cache level, every stall component. It backs the replay
// fidelity guarantee — a machine fed a recorded trace must reach exactly
// the state of a machine fed the live event stream.
func (r *Result) Equal(o *Result) bool {
	if r == nil || o == nil {
		return r == o
	}
	return *r == *o
}

// Add accumulates another result into r (same configuration), used to merge
// the decode and encode halves of a transcode.
func (r *Result) Add(o *Result) {
	r.Insts += o.Insts
	r.Uops += o.Uops
	r.Loads += o.Loads
	r.Stores += o.Stores
	r.Branches += o.Branches
	r.Mispredicts += o.Mispredicts
	r.TakenBr += o.TakenBr
	r.BaseCycles += o.BaseCycles
	r.FECycles += o.FECycles
	r.BSCycles += o.BSCycles
	r.MemCycles += o.MemCycles
	r.CoreCycles += o.CoreCycles
	r.ROBStall += o.ROBStall
	r.RSStall += o.RSStall
	r.SBStall += o.SBStall
	addStats(&r.L1I, o.L1I)
	addStats(&r.L1D, o.L1D)
	addStats(&r.L2, o.L2)
	addStats(&r.L3, o.L3)
	addStats(&r.L4, o.L4)
	addStats(&r.ITLB, o.ITLB)
}

func addStats(dst *cache.Stats, src cache.Stats) {
	dst.Accesses += src.Accesses
	dst.Misses += src.Misses
}
