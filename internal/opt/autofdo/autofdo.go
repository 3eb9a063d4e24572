// Package autofdo models AutoFDO, the feedback-directed optimization tool
// the paper applies to FFmpeg (§III-D1). The real tool collects a sampled
// execution profile with perf, then recompiles: hot functions are split
// from their cold tails and packed together, and biased branches are
// reordered so the common path falls through. Both effects are reproduced
// here against the synthetic code image: Collector gathers the profile
// from a training run (it is a trace.Sink, like the simulator), and
// Profile.Apply produces the re-laid-out image whose smaller hot footprint
// and canonicalized branches the simulator then measures.
package autofdo

import (
	"sort"

	"repro/internal/codec"
	"repro/internal/trace"
)

// siteStats accumulates outcomes of one static branch site.
type siteStats struct {
	taken uint64
	total uint64
}

// Profile is the execution profile of a training run.
type Profile struct {
	fnWeight [trace.NumFuncs]float64
	branches map[uint32]*siteStats
}

// Collector gathers a Profile. It implements trace.Sink so a training
// encode can run against it exactly as it runs against the simulator.
type Collector struct {
	p Profile
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{p: Profile{branches: make(map[uint32]*siteStats)}}
}

// Profile returns the collected profile.
func (c *Collector) Profile() *Profile { return &c.p }

var _ trace.Sink = (*Collector)(nil)

func key(fn trace.FuncID, site trace.BranchID) uint32 {
	return uint32(fn)<<16 | uint32(site)
}

// Ops accumulates instruction weight.
func (c *Collector) Ops(fn trace.FuncID, n int) { c.p.fnWeight[fn] += float64(n) }

// Load adds memory-instruction weight.
func (c *Collector) Load(fn trace.FuncID, _ uint64, bytes int) {
	c.p.fnWeight[fn] += float64(bytes/64 + 1)
}

// Store adds memory-instruction weight.
func (c *Collector) Store(fn trace.FuncID, _ uint64, bytes int) {
	c.p.fnWeight[fn] += float64(bytes/64 + 1)
}

// Load2D adds block-access weight.
func (c *Collector) Load2D(fn trace.FuncID, _ uint64, w, h, _ int) {
	c.p.fnWeight[fn] += float64(w*h/64 + h)
}

// Store2D adds block-access weight.
func (c *Collector) Store2D(fn trace.FuncID, _ uint64, w, h, _ int) {
	c.p.fnWeight[fn] += float64(w*h/64 + h)
}

// Branch records a conditional outcome.
func (c *Collector) Branch(fn trace.FuncID, site trace.BranchID, taken bool) {
	c.p.fnWeight[fn]++
	s := c.p.branches[key(fn, site)]
	if s == nil {
		s = &siteStats{}
		c.p.branches[key(fn, site)] = s
	}
	s.total++
	if taken {
		s.taken++
	}
}

// Loop records loop iterations (all weight, strongly biased taken).
func (c *Collector) Loop(fn trace.FuncID, site trace.BranchID, iters int) {
	c.p.fnWeight[fn] += float64(iters)
	s := c.p.branches[key(fn, site)]
	if s == nil {
		s = &siteStats{}
		c.p.branches[key(fn, site)] = s
	}
	s.total += uint64(iters)
	s.taken += uint64(iters - 1)
}

// Call records an invocation.
func (c *Collector) Call(fn trace.FuncID) { c.p.fnWeight[fn] += 2 }

// Train runs a training transcode of stream — decode, then re-encode with
// opt — against a Collector and returns the optimized default code image
// (Apply with default Options). Callers pass the mezzanine of the workload
// they will run, so the image is trained on the job it optimizes.
func Train(stream []byte, opt codec.Options) (*trace.Image, error) {
	col := NewCollector()
	frames, info, err := codec.NewDecoder(codec.DecoderOptions{}, col).Decode(stream)
	if err != nil {
		return nil, err
	}
	enc, err := codec.NewEncoder(frames[0].Width, frames[0].Height, info.FPS, opt, col)
	if err != nil {
		return nil, err
	}
	if _, _, err := enc.EncodeAll(frames); err != nil {
		return nil, err
	}
	return col.Profile().Apply(trace.NewImage(nil), Options{}), nil
}

// Options tune the optimizer; zero values give AutoFDO defaults.
type Options struct {
	// HotCoverage is the cumulative weight fraction packed hot (default
	// 0.99, AutoFDO's default working-set threshold).
	HotCoverage float64
	// BiasThreshold is the minimum outcome bias for direction
	// canonicalization (default 0.85).
	BiasThreshold float64
	// MinSamples is the minimum site sample count considered (default 64).
	MinSamples uint64
}

func (o *Options) defaults() {
	if o.HotCoverage == 0 {
		o.HotCoverage = 0.99
	}
	if o.BiasThreshold == 0 {
		o.BiasThreshold = 0.85
	}
	if o.MinSamples == 0 {
		o.MinSamples = 64
	}
}

// Apply re-lays-out the code image according to the profile: hot functions
// are ordered by weight and hot/cold-split (packed), and strongly
// taken-biased branch sites are canonicalized to fall through. The input
// image is not modified.
func (p *Profile) Apply(img *trace.Image, opts Options) *trace.Image {
	opts.defaults()

	type fw struct {
		fn trace.FuncID
		w  float64
	}
	var fns []fw
	var total float64
	for fn := trace.FuncID(1); fn < trace.NumFuncs; fn++ {
		fns = append(fns, fw{fn, p.fnWeight[fn]})
		total += p.fnWeight[fn]
	}
	sort.SliceStable(fns, func(i, j int) bool { return fns[i].w > fns[j].w })

	order := make([]trace.FuncID, 0, len(fns))
	packed := make(map[trace.FuncID]bool)
	var cum float64
	for _, f := range fns {
		order = append(order, f.fn)
		if f.w > 0 && cum < opts.HotCoverage*total {
			packed[f.fn] = true
		}
		cum += f.w
	}

	out := img.Relayout(order, packed)
	for k, s := range p.branches {
		if s.total < opts.MinSamples {
			continue
		}
		bias := float64(s.taken) / float64(s.total)
		if bias >= opts.BiasThreshold {
			out.SetCanonical(trace.FuncID(k>>16), trace.BranchID(k&0xFFFF))
		}
	}
	return out
}
