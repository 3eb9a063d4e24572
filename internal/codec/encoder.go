package codec

import (
	"fmt"

	"repro/internal/codec/bits"
	"repro/internal/codec/transform"
	"repro/internal/frame"
	"repro/internal/trace"
)

// streamMagic begins every bitstream ("RVC1": Repro Video Codec 1).
const streamMagic = 0x52564331

// ErrNoFrames is returned when an encode is requested with no input.
var ErrNoFrames = fmt.Errorf("codec: no frames to encode")

// Encoder encodes a sequence of frames. One Encoder encodes one stream;
// create a fresh one per EncodeAll call.
type Encoder struct {
	opt    Options
	w, h   int
	fps    int
	tr     tracer
	bw     *bits.Writer
	rc     *rateControl
	mvf0   *mvField
	mvf1   *mvField
	dbs    *deblockState
	dpb    []*frame.Frame // reconstructed anchors, most recent first
	recon  *frame.Frame   // current frame's reconstruction
	nextVA uint64         // bump allocator for traced buffer addresses
	pool   []*frame.Frame // retired reconstruction buffers for reuse
	qpPrev int
	// basePTS is the first input frame's PTS. Segment encodes hand EncodeAll
	// a mid-clip frame range whose PTS values are absolute clip positions
	// (so frame headers survive stitching); rate-control bookkeeping indexed
	// by display order subtracts the base.
	basePTS int

	// Motion-search candidate deduplication (see me.go).
	visited  []uint32
	visitGen uint32

	// mb is the macroblock under construction. encodeMB resets and reuses
	// it, so the ~2KB coefficient record is not heap-allocated per
	// macroblock; nothing retains the pointer across macroblocks (neighbour
	// state is copied out into mvField/deblockState).
	mb macroblock

	// analysis, when set, replaces the lookahead and variance computation
	// with the shared per-video artifact (see analysis.go).
	analysis *Analysis

	// Per-stage latency accounting (see stage.go): stage holds the
	// nanoseconds not yet reported, and is only touched while a
	// StageObserver is attached.
	stageObs StageObserver
	stage    [NumEncodeStages]int64
}

// NewEncoder builds an encoder for w x h @ fps video with the given options
// and trace sink (nil for no instrumentation).
func NewEncoder(w, h, fps int, opt Options, sink trace.Sink) (*Encoder, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if w <= 0 || h <= 0 || w%16 != 0 || h%16 != 0 {
		return nil, fmt.Errorf("codec: dimensions %dx%d must be positive multiples of 16", w, h)
	}
	if fps <= 0 {
		return nil, fmt.Errorf("codec: fps %d must be positive", fps)
	}
	mbw, mbh := w/16, h/16
	e := &Encoder{
		opt:     opt,
		w:       w,
		h:       h,
		fps:     fps,
		tr:      newTracer(sink, opt.TraceSampleLog2),
		bw:      bits.NewWriter(),
		rc:      newRateControl(&opt, w, h, fps),
		mvf0:    newMVField(mbw, mbh),
		mvf1:    newMVField(mbw, mbh),
		dbs:     newDeblockState(mbw, mbh),
		nextVA:  0x1_0000_0000,
		visited: make([]uint32, (2*visitR+1)*(2*visitR+1)),
	}
	// The options struct embedded in the rate controller must alias e.opt.
	e.rc.opt = &e.opt
	return e, nil
}

// SampleFactor reports the trace-sampling multiplier in effect.
func (e *Encoder) SampleFactor() float64 { return e.tr.SampleFactor() }

// allocVA reserves a traced virtual-address range for a frame buffer.
func (e *Encoder) allocVA(f *frame.Frame) {
	f.SetBase(e.nextVA)
	e.nextVA += (uint64(f.ByteSize()) + 4095) &^ 4095
}

// getRecon returns a reconstruction buffer, reusing retired ones. Like
// x264's picture pool, buffer reuse keeps the encoder's steady-state
// footprint at refs+2 frames instead of growing per frame — without it,
// every frame's first touches would be compulsory cache misses and the
// cache-capacity effects the experiments study would drown in cold traffic.
func (e *Encoder) getRecon() *frame.Frame {
	if n := len(e.pool); n > 0 {
		f := e.pool[n-1]
		e.pool = e.pool[:n-1]
		return f
	}
	f := frame.New(e.w, e.h)
	e.allocVA(f)
	return f
}

// recycle returns a no-longer-referenced buffer to the pool.
func (e *Encoder) recycle(f *frame.Frame) {
	e.pool = append(e.pool, f)
}

// EncodeAll encodes the sequence and returns the bitstream and statistics.
// In two-pass ABR mode the sequence is genuinely encoded twice — the first
// pass gathers complexity statistics, and both passes' work reaches the
// trace sink, doubling the measured cost exactly as 2-pass transcoding
// doubles it in production.
func (e *Encoder) EncodeAll(frames []*frame.Frame) ([]byte, *Stats, error) {
	if len(frames) == 0 {
		return nil, nil, ErrNoFrames
	}
	e.basePTS = frames[0].PTS
	for _, f := range frames {
		if f.Width != e.w || f.Height != e.h {
			return nil, nil, fmt.Errorf("codec: frame %d is %dx%d, encoder is %dx%d",
				f.PTS, f.Width, f.Height, e.w, e.h)
		}
		if f.Y.Base == 0 {
			e.allocVA(f)
		}
	}

	if e.opt.RC == RCABR2 {
		// Pass 1: constant QP probe collecting per-frame bits.
		p1opt := e.opt
		p1opt.RC = RCCQP
		p1opt.QP = e.rc.pass1QP
		p1, err := NewEncoder(e.w, e.h, e.fps, p1opt, e.tr.sink)
		if err != nil {
			return nil, nil, err
		}
		p1.tr = e.tr // share sampling state so pass-1 work is charged too
		_, p1stats, err := p1.EncodeAll(frames)
		if err != nil {
			return nil, nil, fmt.Errorf("codec: 2-pass first pass: %w", err)
		}
		e.tr = p1.tr
		e.rc.pass1Bits = make([]int64, len(p1stats.Frames))
		for _, fs := range p1stats.Frames {
			e.rc.pass1Bits[fs.PTS-e.basePTS] = fs.Bits
		}
	}

	var lc *lookaheadCosts
	if e.analysis != nil {
		// Shared analysis: the artifact's recorded events stand in for the
		// lookahead's emission (the caller already fed them to the sink), so
		// only the cost tables and the tracer's post-lookahead sampling
		// state are taken here. Frame-type decisions are recomputed — they
		// are pure arithmetic over the costs and may depend on options
		// (scenecut, keyint, B policy) outside the artifact's key.
		var err error
		if lc, err = e.analysisCosts(frames); err != nil {
			return nil, nil, err
		}
	} else {
		t0 := e.stageStart()
		lc = e.runLookahead(frames)
		e.stageEnd(StageLookahead, t0)
		e.flushStages()
	}
	types := e.decideTypes(frames, lc)

	// A per-call value, not encoder state: the returned *Stats must not pin
	// the encoder (recon frames, tracer) or change under a later EncodeAll.
	stats := &Stats{Width: e.w, Height: e.h, FPS: e.fps}

	writeSeqHeader(e.bw, seqHeader{
		mbw: e.w / 16, mbh: e.h / 16, fps: e.fps, frames: len(frames),
		deblock: e.opt.Deblock, deblockA: e.opt.DeblockA, deblockB: e.opt.DeblockB,
		dct8x8: e.opt.DCT8x8,
	})

	// Coding order: anchors first, then the B frames they close.
	var pendingB []int
	encodeOne := func(i int, t FrameType) {
		var list1 *frame.Frame
		list0 := e.dpb
		if t == FrameB {
			if len(e.dpb) < 2 {
				t = FrameP // not enough anchors; degrade
			} else {
				list1 = e.dpb[0]
				list0 = e.dpb[1:]
			}
		}
		if t != FrameI && len(list0) == 0 {
			t = FrameI
		}
		stats.Frames = append(stats.Frames, e.encodeFrame(frames[i], t, list0, list1))
	}
	for i, t := range types {
		if t == FrameB {
			pendingB = append(pendingB, i)
			continue
		}
		encodeOne(i, t)
		for _, b := range pendingB {
			encodeOne(b, FrameB)
		}
		pendingB = pendingB[:0]
	}
	// Trailing B frames with no closing anchor degrade to P.
	for _, b := range pendingB {
		encodeOne(b, FrameP)
	}

	out := e.bw.Bytes()
	var psnrSum float64
	for i := range stats.Frames {
		stats.TotalBits += stats.Frames[i].Bits
		psnrSum += stats.Frames[i].PSNR
	}
	stats.AveragePSNR = psnrSum / float64(len(stats.Frames))
	return out, stats, nil
}

// pushAnchor inserts a reconstructed anchor at the head of the DPB,
// recycling the anchor that falls out of reference range.
func (e *Encoder) pushAnchor(rec *frame.Frame) {
	e.dpb = append([]*frame.Frame{rec}, e.dpb...)
	if len(e.dpb) > 16 {
		e.recycle(e.dpb[16])
		e.dpb = e.dpb[:16]
	}
}

// encodeFrame encodes one picture and returns its statistics.
func (e *Encoder) encodeFrame(src *frame.Frame, t FrameType, list0 []*frame.Frame, list1 *frame.Frame) FrameStats {
	startBits := e.bw.BitsWritten()
	frameQP := e.rc.frameQP(t, src.PTS-e.basePTS)
	e.traceRC()
	e.rc.beginFrame(startBits)

	rec := e.getRecon()
	rec.PTS = src.PTS
	e.recon = rec
	e.mvf0.reset()
	e.mvf1.reset()
	e.qpPrev = frameQP

	// Frame header.
	e.bw.AlignByte()
	e.bw.WriteUE(uint32(t))
	e.bw.WriteUE(uint32(src.PTS))
	e.bw.WriteUE(uint32(frameQP))
	nRefs := e.opt.Refs
	if t == FrameI {
		nRefs = 0
	} else if nRefs > len(list0) {
		nRefs = len(list0)
	}
	e.bw.WriteUE(uint32(nRefs))

	mbw, mbh := e.w/16, e.h/16
	intraMB, interMB, skipMB := 0, 0, 0
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			e.tr.nextMB()
			e.tr.call(trace.FnDriver)
			e.tr.ops(trace.FnDriver, 80)
			switch mb := e.encodeMB(src, t, list0, list1, mx, my, frameQP); mb.kind {
			case kindIntra:
				intraMB++
			case kindInter:
				interMB++
			default:
				skipMB++
			}
		}
		e.tr.loop(trace.FnDriver, siteRowLoop, mbw)
		e.rc.endRow(my+1, mbh, e.bw.BitsWritten())
		// Fused deblocking: filter the previous row while its pixels are
		// still cache-resident (Graphite loop fusion).
		if e.opt.Deblock && e.opt.Tune.FuseDeblock && my > 0 {
			e.deblockRow(rec, my-1)
		}
	}
	if e.opt.Deblock {
		if e.opt.Tune.FuseDeblock {
			e.deblockRow(rec, mbh-1)
		} else {
			for my := 0; my < mbh; my++ {
				e.deblockRow(rec, my)
			}
		}
	}
	rec.ExtendEdges()

	psnr := frame.PSNR(src, rec)
	if t != FrameB {
		e.pushAnchor(rec)
	} else {
		// B reconstructions are never referenced again.
		e.recycle(rec)
	}

	bitsUsed := e.bw.BitsWritten() - startBits
	e.rc.postFrame(bitsUsed)
	e.flushStages()
	return FrameStats{
		PTS:     src.PTS,
		Type:    t,
		QP:      frameQP,
		Bits:    bitsUsed,
		PSNR:    psnr,
		IntraMB: intraMB,
		InterMB: interMB,
		SkipMB:  skipMB,
	}
}

// encodeMB analyses, reconstructs and writes one macroblock: mode
// decision, reconstruction, entropy coding, and the neighbour bookkeeping
// that feeds MV prediction and deblocking.
func (e *Encoder) encodeMB(src *frame.Frame, t FrameType, list0 []*frame.Frame, list1 *frame.Frame, mx, my, frameQP int) *macroblock {
	mb := &e.mb
	*mb = macroblock{x: mx * 16, y: my * 16}

	// Macroblock quantizer: AQ spatial offset plus CBR row feedback.
	variance := e.mbVariance(src, mx, my)
	mb.qp = e.rc.mbQP(frameQP, variance, e.opt.AQMode > 0)
	lambda := lambdaFor(mb.qp)

	// Mode decision.
	t0 := e.stageStart()
	isIntraFrame := t == FrameI
	var inter interChoice
	if !isIntraFrame {
		inter = e.analyseInter(&src.Y, mx, my, list0, list1, mb.qp)
	}
	var intra intraChoice
	if isIntraFrame || !inter.skip {
		intra = e.analyseIntra(&src.Y, &e.recon.Y, mb.x, mb.y, lambda)
	}
	switch {
	case isIntraFrame:
		mb.kind = kindIntra
		mb.intra = intra
	case inter.skip:
		mb.kind = kindSkip
		mb.partMode = part16x16
		mb.refIdx = 0
		mb.dir = inter.dir
		mb.mvs = inter.mvs
		mb.mvsL1 = inter.mvsL1
	default:
		// Intra competes with inter inside P/B frames. At trellis level 2
		// the comparison is RD-based: both candidates are transformed and
		// trellis-quantized, and the full rate+distortion decides.
		useIntra := intra.cost < inter.cost
		if e.opt.Trellis >= 2 && intra.cost < inter.cost*3/2 && inter.cost < intra.cost*3/2 {
			useIntra = e.rdCompareIntra(src, mb, &intra, &inter, list0, list1)
		}
		e.tr.branch(trace.FnAnalyse, siteModeCmp, useIntra)
		if useIntra {
			mb.kind = kindIntra
			mb.intra = intra
		} else {
			mb.kind = kindInter
			mb.partMode = inter.partMode
			mb.sub4x4 = inter.sub4x4
			mb.refIdx = inter.refIdx
			mb.dir = inter.dir
			mb.mvs = inter.mvs
			mb.mvsL1 = inter.mvsL1
		}
	}
	e.stageEnd(StageME, t0)

	// Reconstruction and residual computation.
	t1 := e.stageStart()
	e.reconstructMB(src, mb, list0, list1)
	e.stageEnd(StageTransform, t1)

	// Entropy coding.
	t2 := e.stageStart()
	startBits := e.bw.BitsWritten()
	e.writeMB(mb, t)
	e.bitWriterTrace(startBits)
	e.stageEnd(StageEntropy, t2)

	e.setMVField(mx, my, mb, list1 != nil)
	qpForDeblock := mb.qp
	if mb.kind == kindSkip {
		qpForDeblock = e.qpPrev
	}
	e.dbs.set(mx, my, qpForDeblock, mb.kind)
	return mb
}

// mbVariance returns the luma activity of macroblock (mx, my) when adaptive
// quantization is active.
func (e *Encoder) mbVariance(src *frame.Frame, mx, my int) float64 {
	if e.opt.AQMode <= 0 {
		return 0
	}
	x, y := mx*16, my*16
	if v, ok := e.analysisVariance(src.PTS, mx, my); ok {
		// Cached map: emit the exact events the computation would have
		// (byte-stable traces), skip the arithmetic.
		e.tr.varianceEvents(&src.Y, x, y, 16, 16)
		return v
	}
	return e.tr.blockVariance(&src.Y, x, y, 16, 16)
}

// setMVField publishes the macroblock's transmitted vectors for neighbour
// prediction. Only *transmitted* vectors may influence later predictions,
// or encoder and decoder would diverge: an L1-only B macroblock contributes
// nothing to the L0 field.
func (e *Encoder) setMVField(mx, my int, mb *macroblock, hasL1 bool) {
	coded := mb.kind != kindIntra
	l0 := MV{}
	if coded && mb.dir != dirL1 {
		l0 = mb.mvs[0]
	}
	e.mvf0.set(mx, my, l0, coded && mb.dir != dirL1)
	if hasL1 {
		l1 := MV{}
		if coded && mb.dir != dirL0 {
			l1 = mb.mvsL1[0]
		}
		e.mvf1.set(mx, my, l1, coded && mb.dir != dirL0)
	}
}

// deblockRow filters one reconstructed macroblock row with the master
// tracer, charging the deblock latency stage.
func (e *Encoder) deblockRow(rec *frame.Frame, my int) {
	t0 := e.stageStart()
	deblockMBRow(&e.tr, trace.FnDeblock, rec, e.dbs, my, e.opt.DeblockA, e.opt.DeblockB)
	e.stageEnd(StageDeblock, t0)
}

// reconstructMB stages the final prediction, codes the residual and writes
// the reconstruction for one macroblock.
func (e *Encoder) reconstructMB(src *frame.Frame, mb *macroblock, list0 []*frame.Frame, list1 *frame.Frame) {
	deadzone := int32(transform.DeadzoneInter)
	if mb.kind == kindIntra {
		deadzone = transform.DeadzoneIntra
	}
	trellis := e.opt.Trellis >= 1
	lambda := int32(lambdaFor(mb.qp))

	// Luma.
	switch {
	case mb.kind == kindIntra && mb.intra.use4x4:
		// Sequential 4x4 intra: each block is predicted from already
		// reconstructed neighbours.
		var pred block
		for by := 0; by < 4; by++ {
			for bx := 0; bx < 4; bx++ {
				bi := by*4 + bx
				e.tr.predIntra(trace.FnIntraPred, &e.recon.Y, mb.x+bx*4, mb.y+by*4, 4, 4, mode4Set[mb.intra.modes4[bi]], &pred)
				nz := e.tr.codeResidual4x4(&src.Y, &e.recon.Y, mb.x+bx*4, mb.y+by*4, &pred, 0, 0,
					mb.qp, deadzone, trellis, lambda, &mb.coefs[bi])
				mb.nzc[bi] = uint8(nz)
			}
		}
	default:
		var pred16 block
		if mb.kind == kindIntra {
			e.tr.predIntra(trace.FnIntraPred, &e.recon.Y, mb.x, mb.y, 16, 16, mb.intra.mode16, &pred16)
		} else {
			e.predictInterLuma(mb, list0, list1, &pred16)
		}
		switch {
		case mb.kind == kindSkip:
			e.tr.copyPredToRec(&e.recon.Y, mb.x, mb.y, &pred16)
		case e.opt.DCT8x8:
			mb.dct8 = true
			for g := 0; g < 4; g++ {
				gx, gy := (g%2)*8, (g/2)*8
				nz := e.tr.codeResidual8x8(&src.Y, &e.recon.Y, mb.x+gx, mb.y+gy, &pred16, gx, gy,
					mb.qp, deadzone, &mb.coefs8[g])
				mb.nzc8[g] = uint8(nz)
			}
		default:
			for _, o := range residualOrder(e.opt.Tune.InterchangeResidual) {
				bx, by := o[0], o[1]
				bi := by*4 + bx
				nz := e.tr.codeResidual4x4(&src.Y, &e.recon.Y, mb.x+bx*4, mb.y+by*4, &pred16, bx*4, by*4,
					mb.qp, deadzone, trellis, lambda, &mb.coefs[bi])
				mb.nzc[bi] = uint8(nz)
			}
		}
	}

	// Chroma (8x8 per plane, four 4x4 blocks each).
	cqp := chromaQP(mb.qp)
	for plane := 0; plane < 2; plane++ {
		srcC, recC := &src.Cb, &e.recon.Cb
		if plane == 1 {
			srcC, recC = &src.Cr, &e.recon.Cr
		}
		var predC block
		if mb.kind == kindIntra {
			e.tr.predIntra(trace.FnIntraPred, recC, mb.x/2, mb.y/2, 8, 8, intraDC, &predC)
		} else {
			predictInterChromaInto(&e.tr, trace.FnInterp, mb, list0, list1, plane, &predC)
		}
		if mb.kind == kindSkip {
			e.tr.copyPredToRec(recC, mb.x/2, mb.y/2, &predC)
			continue
		}
		for by := 0; by < 2; by++ {
			for bx := 0; bx < 2; bx++ {
				ci := 16 + plane*4 + by*2 + bx
				nz := e.tr.codeResidual4x4(srcC, recC, mb.x/2+bx*4, mb.y/2+by*4, &predC, bx*4, by*4,
					cqp, deadzone, false, lambda, &mb.coefs[ci])
				mb.nzc[ci] = uint8(nz)
			}
		}
	}

	// Coded block pattern: 4 luma 8x8 groups + 2 chroma planes.
	if mb.kind != kindSkip {
		mb.cbp = 0
		for g := 0; g < 4; g++ {
			if mb.dct8 {
				if mb.nzc8[g] > 0 {
					mb.cbp |= 1 << uint(g)
				}
				continue
			}
			gx, gy := (g%2)*2, (g/2)*2
			if mb.nzc[gy*4+gx] > 0 || mb.nzc[gy*4+gx+1] > 0 ||
				mb.nzc[(gy+1)*4+gx] > 0 || mb.nzc[(gy+1)*4+gx+1] > 0 {
				mb.cbp |= 1 << uint(g)
			}
		}
		for plane := 0; plane < 2; plane++ {
			base := 16 + plane*4
			if mb.nzc[base] > 0 || mb.nzc[base+1] > 0 || mb.nzc[base+2] > 0 || mb.nzc[base+3] > 0 {
				mb.cbp |= 1 << uint(4+plane)
			}
		}
	}
}

// chromaQP maps the luma quantizer to the chroma quantizer (capped, as in
// H.264, so chroma keeps more fidelity at high QP).
func chromaQP(qp int) int {
	if qp > 30 {
		return 30 + (qp-30)*2/3
	}
	return qp
}

// rdCompareIntra decides intra-vs-inter by full rate-distortion when
// trellis 2 is active: both candidates are predicted, transformed and
// trellis-quantized, and the SSD + lambda*bits totals are compared. The
// heavy extra work is exactly why trellis 2 presets transcode slower.
func (e *Encoder) rdCompareIntra(src *frame.Frame, mb *macroblock, intra *intraChoice, inter *interChoice, list0 []*frame.Frame, list1 *frame.Frame) bool {
	lambda := int64(lambdaFor(mb.qp)) * int64(lambdaFor(mb.qp)) / 4 // SSD-domain lambda
	var predI, predP block
	e.tr.predIntra(trace.FnIntraPred, &e.recon.Y, mb.x, mb.y, 16, 16, intra.mode16, &predI)
	trial := macroblock{x: mb.x, y: mb.y, qp: mb.qp, kind: kindInter,
		partMode: inter.partMode, sub4x4: inter.sub4x4, refIdx: inter.refIdx,
		dir: inter.dir, mvs: inter.mvs, mvsL1: inter.mvsL1}
	e.predictInterLuma(&trial, list0, list1, &predP)
	costI := e.rdCostLuma(src, mb.x, mb.y, &predI, mb.qp, transform.DeadzoneIntra)
	costP := e.rdCostLuma(src, mb.x, mb.y, &predP, mb.qp, transform.DeadzoneInter) + lambda*int64(mvBits(inter.mvs[0]))
	return costI < costP
}

// rdCostLuma measures SSD + lambda*coefficient-bits of coding the 16x16
// luma block against the staged prediction, without touching the
// reconstruction plane.
func (e *Encoder) rdCostLuma(src *frame.Frame, x, y int, pred *block, qp int, deadzone int32) int64 {
	lambda := int64(lambdaFor(qp)) * int64(lambdaFor(qp)) / 4
	var total int64
	var res, freq transform.Block
	for by := 0; by < 4; by++ {
		for bx := 0; bx < 4; bx++ {
			for j := 0; j < 4; j++ {
				srow := src.Y.RowFrom(x+bx*4, y+by*4+j, 4)
				prow := pred.row(by*4 + j)[bx*4 : bx*4+4]
				for i := 0; i < 4; i++ {
					res[j*4+i] = int32(srow[i]) - int32(prow[i])
				}
			}
			transform.FDCT(&res, &freq)
			e.tr.call(trace.FnTrellis)
			e.tr.ops(trace.FnTrellis, 220)
			e.tr.load2D(trace.FnTrellis, &src.Y, x+bx*4, y+by*4, 4, 4)
			nz := transform.TrellisQuant(&freq, qp, deadzone, int32(lambdaFor(qp)))
			bitsEst := int64(4)
			deq := freq
			transform.Dequant(&deq, qp)
			var spatial transform.Block
			transform.IDCT(&deq, &spatial)
			for j := 0; j < 4; j++ {
				srow := src.Y.RowFrom(x+bx*4, y+by*4+j, 4)
				prow := pred.row(by*4 + j)[bx*4 : bx*4+4]
				for i := 0; i < 4; i++ {
					rec := int32(prow[i]) + spatial[j*4+i]
					d := int64(int32(srow[i]) - int32(clampU8(rec)))
					total += d * d
				}
			}
			if nz > 0 {
				for _, c := range freq {
					if c != 0 {
						bitsEst += int64(bits.SEBits(c)) + 2
					}
				}
			}
			total += lambda * bitsEst
		}
	}
	return total
}

// writeMB emits the macroblock syntax (residuals included).
func (e *Encoder) writeMB(mb *macroblock, t FrameType) {
	bw := e.bw
	e.tr.call(trace.FnCAVLC)
	e.tr.ops(trace.FnCAVLC, 60)

	if t == FrameI {
		if mb.intra.use4x4 {
			bw.WriteUE(1)
			for _, m := range mb.intra.modes4 {
				bw.WriteBits(uint32(m), 2)
			}
		} else {
			bw.WriteUE(0)
			bw.WriteBits(uint32(mb.intra.mode16), 2)
		}
	} else {
		switch mb.kind {
		case kindSkip:
			bw.WriteUE(0)
			return // skip carries no further syntax
		case kindInter:
			bw.WriteUE(1)
			e.writeInterSyntax(mb, t)
		case kindIntra:
			bw.WriteUE(2)
			if mb.intra.use4x4 {
				bw.WriteBit(true)
				for _, m := range mb.intra.modes4 {
					bw.WriteBits(uint32(m), 2)
				}
			} else {
				bw.WriteBit(false)
				bw.WriteBits(uint32(mb.intra.mode16), 2)
			}
		}
	}

	bw.WriteSE(int32(mb.qp - e.qpPrev))
	e.qpPrev = mb.qp
	bw.WriteUE(mb.cbp)

	// Residuals: luma groups flagged in cbp, then chroma planes.
	for g := 0; g < 4; g++ {
		if mb.cbp&(1<<uint(g)) == 0 {
			continue
		}
		if mb.dct8 {
			e.writeResidualBlock8(&mb.coefs8[g], int(mb.nzc8[g]))
			continue
		}
		gx, gy := (g%2)*2, (g/2)*2
		for _, bi := range [4]int{gy*4 + gx, gy*4 + gx + 1, (gy+1)*4 + gx, (gy+1)*4 + gx + 1} {
			e.writeResidualBlock(&mb.coefs[bi], int(mb.nzc[bi]))
		}
	}
	for plane := 0; plane < 2; plane++ {
		if mb.cbp&(1<<uint(4+plane)) == 0 {
			continue
		}
		base := 16 + plane*4
		for k := 0; k < 4; k++ {
			e.writeResidualBlock(&mb.coefs[base+k], int(mb.nzc[base+k]))
		}
	}
}

// writeInterSyntax emits partitioning, references and motion vectors.
func (e *Encoder) writeInterSyntax(mb *macroblock, t FrameType) {
	bw := e.bw
	if t == FrameB {
		bw.WriteUE(uint32(mb.dir))
		bw.WriteUE(uint32(part16x16)) // B restricted to 16x16 in this codec
		if mb.dir != dirL1 {
			bw.WriteUE(uint32(mb.refIdx))
			mvp := e.mvf0.predict(mb.x/16, mb.y/16)
			bw.WriteSE(mb.mvs[0].X - mvp.X)
			bw.WriteSE(mb.mvs[0].Y - mvp.Y)
		}
		if mb.dir != dirL0 {
			mvp := e.mvf1.predict(mb.x/16, mb.y/16)
			bw.WriteSE(mb.mvsL1[0].X - mvp.X)
			bw.WriteSE(mb.mvsL1[0].Y - mvp.Y)
		}
		return
	}
	bw.WriteUE(uint32(mb.partMode))
	if mb.partMode == part8x8 {
		for _, s := range mb.sub4x4 {
			bw.WriteBit(s)
		}
	}
	bw.WriteUE(uint32(mb.refIdx))
	mvpred := e.mvf0.predict(mb.x/16, mb.y/16)
	writePart := func(px, py int) {
		cell := (py/4)*4 + px/4
		mv := mb.mvs[cell]
		bw.WriteSE(mv.X - mvpred.X)
		bw.WriteSE(mv.Y - mvpred.Y)
		mvpred = mv
	}
	if mb.partMode == part8x8 {
		for i, g := range partGeom[part8x8] {
			if mb.sub4x4[i] {
				for k := 0; k < 4; k++ {
					writePart(g[0]+(k%2)*4, g[1]+(k/2)*4)
				}
			} else {
				writePart(g[0], g[1])
			}
		}
	} else {
		for _, g := range partGeom[mb.partMode] {
			writePart(g[0], g[1])
		}
	}
}
