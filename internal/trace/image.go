package trace

import "maps"

// Region describes where one function's code lives in the (synthetic)
// binary image and how much of it is hot.
//
// TotalBytes is the full footprint of the compiled function. HotBytes is
// the size of the basic blocks that actually execute in steady state. In an
// unoptimized layout the hot blocks are interleaved with cold error/setup
// code, so the instruction fetch stream for the hot loop is *diluted* across
// the whole TotalBytes span. Feedback-directed optimization (AutoFDO) splits
// hot from cold and packs the hot blocks contiguously, shrinking the fetch
// footprint to HotBytes. This is exactly the mechanism by which AutoFDO
// reduces L1i and iTLB misses on real binaries.
type Region struct {
	Fn         FuncID
	Addr       uint64 // start address in the image
	TotalBytes int
	HotBytes   int
	Packed     bool // true once FDO has split hot/cold for this function
}

// FetchSpan returns the byte span the steady-state fetch stream of this
// function walks. When packed (after FDO hot/cold splitting) it is exactly
// the hot bytes. Unpacked, hot basic blocks are interleaved with cold code
// at block granularity, roughly doubling the cache-line footprint the hot
// path touches (capped by the function's total size).
func (r *Region) FetchSpan() int {
	if r.Packed {
		return r.HotBytes
	}
	span := 2 * r.HotBytes
	if span > r.TotalBytes {
		span = r.TotalBytes
	}
	return span
}

// Image is the synthetic binary layout: one Region per FuncID, placed at
// concrete addresses. The simulator fetches instructions from these address
// ranges, so layout decisions (ordering, hot/cold splitting) have measurable
// i-cache and iTLB consequences.
type Image struct {
	Regions [NumFuncs]Region
	Size    uint64 // total image size in bytes
	// canonical marks branch sites whose direction FDO flipped so the hot
	// path falls through (basic-block reordering).
	canonical map[uint32]bool
}

func branchKey(fn FuncID, site BranchID) uint32 {
	return uint32(fn)<<16 | uint32(site)
}

// BranchCanonical reports whether FDO canonicalized the branch at (fn,
// site) to fall through on its common path.
func (img *Image) BranchCanonical(fn FuncID, site BranchID) bool {
	return img.canonical[branchKey(fn, site)]
}

// SetCanonical marks a branch site as direction-canonicalized.
func (img *Image) SetCanonical(fn FuncID, site BranchID) {
	if img.canonical == nil {
		img.canonical = make(map[uint32]bool)
	}
	img.canonical[branchKey(fn, site)] = true
}

// codeBase is the virtual address where the text segment starts. It is kept
// disjoint from the data heap used for frame buffers.
const codeBase = 0x400000

// funcFootprint gives each hot function a realistic compiled size
// (totalBytes) and steady-state hot-loop size (hotBytes). Sizes are loosely
// modeled on the corresponding x264 object code: leaf pixel kernels are
// small and tight; analysis drivers are large with long cold tails.
var funcFootprint = [NumFuncs]struct{ total, hot int }{
	FnSAD:       {1536, 256},
	FnSATD:      {3072, 640},
	FnVariance:  {768, 192},
	FnMEDia:     {4096, 768},
	FnMEHex:     {5120, 1024},
	FnMEUMH:     {9216, 2048},
	FnMEESA:     {3584, 512},
	FnSubpel:    {7168, 1536},
	FnInterp:    {6144, 1024},
	FnIntraPred: {8192, 1792},
	FnAnalyse:   {16384, 3072},
	FnLookahead: {6144, 1024},
	FnFDCT:      {2560, 512},
	FnQuant:     {2048, 384},
	FnTrellis:   {10240, 2304},
	FnIQuant:    {1536, 320},
	FnIDCT:      {2560, 512},
	FnMC:        {2048, 384},
	FnDeblock:   {12288, 2560},
	FnCAVLC:     {11264, 2304},
	FnBitWriter: {1280, 256},
	FnRC:        {5120, 896},
	FnDecParse:  {9216, 1920},
	FnDecMC:     {4096, 768},
	FnDecIDCT:   {2560, 512},
	FnDecPred:   {4096, 896},
	FnDriver:    {8192, 1536},
}

// NewImage builds the default (compiler-ordered) code image. `order` gives
// the function placement order; pass nil for the default declaration order,
// which — like a real build — interleaves hot and cold functions.
func NewImage(order []FuncID) *Image {
	if order == nil {
		order = make([]FuncID, 0, NumFuncs-1)
		for f := FuncID(1); f < NumFuncs; f++ {
			order = append(order, f)
		}
	}
	img := &Image{}
	addr := uint64(codeBase)
	for _, f := range order {
		fp := funcFootprint[f]
		if fp.total == 0 {
			continue
		}
		img.Regions[f] = Region{Fn: f, Addr: addr, TotalBytes: fp.total, HotBytes: fp.hot}
		addr += uint64(fp.total)
		// Real linkers align functions; padding also spreads the image over
		// more iTLB pages, which FDO later undoes for the hot set.
		addr = (addr + 63) &^ 63
	}
	img.Size = addr - codeBase
	return img
}

// Clone returns a deep copy of the image.
func (img *Image) Clone() *Image {
	cp := *img
	cp.canonical = maps.Clone(img.canonical)
	return &cp
}

// Region returns the region for fn.
func (img *Image) Region(fn FuncID) *Region { return &img.Regions[fn] }

// Relayout rebuilds the image placing functions in the given order and
// packing (hot/cold-splitting) every function in `packed`. This is the
// primitive AutoFDO uses: hot functions first, contiguous, each reduced to
// its hot footprint; cold remainder is moved out of the fetch path.
func (img *Image) Relayout(order []FuncID, packed map[FuncID]bool) *Image {
	out := &Image{canonical: maps.Clone(img.canonical)}
	addr := uint64(codeBase)
	seen := make(map[FuncID]bool, NumFuncs)
	place := func(f FuncID) {
		if seen[f] || funcFootprint[f].total == 0 {
			return
		}
		seen[f] = true
		r := img.Regions[f]
		r.Addr = addr
		r.Packed = packed[f]
		out.Regions[f] = r
		addr += uint64(r.FetchSpan())
		addr = (addr + 15) &^ 15 // FDO uses tighter alignment for hot code
	}
	for _, f := range order {
		place(f)
	}
	for f := FuncID(1); f < NumFuncs; f++ {
		place(f)
	}
	out.Size = addr - codeBase
	return out
}
