package codec

import (
	"fmt"
	"sort"

	"repro/internal/codec/bits"
	"repro/internal/codec/transform"
	"repro/internal/frame"
	"repro/internal/trace"
)

// Decoder decodes bitstreams produced by Encoder. Decoding is the first,
// deterministic half of a transcode; like the encoder it is instrumented,
// charging its work to the FnDec* trace functions.
type Decoder struct {
	tr      tracer
	br      *bits.Reader
	tune    Tuning
	w, h    int
	fps     int
	deblock bool
	dct8    bool
	dA, dB  int
	mvf0    *mvField
	mvf1    *mvField
	dbs     *deblockState
	dpb     []*frame.Frame
	nextVA  uint64
	qpPrev  int
}

// DecoderOptions configure decode-side instrumentation and loop tuning.
type DecoderOptions struct {
	TraceSampleLog2 int
	Tune            Tuning
}

// NewDecoder builds a decoder with the given trace sink (nil disables
// instrumentation).
func NewDecoder(opt DecoderOptions, sink trace.Sink) *Decoder {
	return &Decoder{
		tr:     newTracer(sink, opt.TraceSampleLog2),
		tune:   opt.Tune,
		nextVA: 0x8_0000_0000,
	}
}

// RecordDecode decodes a stream while capturing the decoder's event stream
// into a trace.Recorder, returning the frames, the stream info and the
// recorded buffer. Replaying the buffer into any trace.Sink re-drives
// exactly the events a live decode with the same options would have
// emitted — the foundation of core's decoded-mezzanine cache.
func RecordDecode(stream []byte, opt DecoderOptions) ([]*frame.Frame, *Info, []byte, error) {
	rec := trace.NewRecorder()
	frames, info, err := NewDecoder(opt, rec).Decode(stream)
	if err != nil {
		return nil, nil, nil, err
	}
	return frames, info, rec.Bytes(), nil
}

// FrameMeta describes one coded picture as parsed from the stream.
type FrameMeta struct {
	PTS  int
	Type FrameType
	QP   int
	Bits int64
}

// Info describes a parsed sequence header plus per-frame coding metadata
// (in coding order), the information a stream analyzer reports.
type Info struct {
	Width, Height, FPS, Frames int
	Coded                      []FrameMeta
}

// Decode parses and reconstructs the whole stream, returning frames in
// display order.
func (d *Decoder) Decode(stream []byte) ([]*frame.Frame, *Info, error) {
	d.br = bits.NewReader(stream)
	magic, err := d.br.ReadBits(32)
	if err != nil || magic != streamMagic {
		return nil, nil, errBitstream("bad magic")
	}
	mbw, err := d.readUE()
	if err != nil {
		return nil, nil, err
	}
	mbh, err := d.readUE()
	if err != nil {
		return nil, nil, err
	}
	fps, err := d.readUE()
	if err != nil {
		return nil, nil, err
	}
	nFrames, err := d.readUE()
	if err != nil {
		return nil, nil, err
	}
	if mbw == 0 || mbh == 0 || mbw > 1024 || mbh > 1024 {
		return nil, nil, errBitstream("implausible dimensions")
	}
	// A conforming stream carries at least one picture, and each coded
	// frame consumes at least one bit, so the declared count can never
	// exceed the bits remaining — reject before sizing any allocation.
	if nFrames == 0 || int64(nFrames) > int64(len(stream))*8 {
		return nil, nil, errBitstream("implausible frame count")
	}
	d.w, d.h, d.fps = mbw*16, mbh*16, fps
	db, err := d.br.ReadBit()
	if err != nil {
		return nil, nil, err
	}
	d.deblock = db
	if db {
		a, err := d.br.ReadSE()
		if err != nil {
			return nil, nil, err
		}
		b, err := d.br.ReadSE()
		if err != nil {
			return nil, nil, err
		}
		d.dA, d.dB = int(a), int(b)
	}
	dct8, err := d.br.ReadBit()
	if err != nil {
		return nil, nil, err
	}
	d.dct8 = dct8
	d.mvf0 = newMVField(mbw, mbh)
	d.mvf1 = newMVField(mbw, mbh)
	d.dbs = newDeblockState(mbw, mbh)

	info := &Info{Width: d.w, Height: d.h, FPS: d.fps, Frames: nFrames}
	out := make([]*frame.Frame, 0, nFrames)
	for k := 0; k < nFrames; k++ {
		start := d.br.BitsRead()
		f, t, qp, err := d.decodeFrame()
		if err != nil {
			return nil, nil, fmt.Errorf("frame %d: %w", k, err)
		}
		out = append(out, f)
		info.Coded = append(info.Coded, FrameMeta{
			PTS: f.PTS, Type: t, QP: qp, Bits: d.br.BitsRead() - start,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PTS < out[j].PTS })
	return out, info, nil
}

func (d *Decoder) readUE() (int, error) {
	v, err := d.br.ReadUE()
	return int(v), err
}

// traceParse charges bitstream consumption between two cursor positions.
func (d *Decoder) traceParse(startBits int64) {
	read := d.br.BitsRead() - startBits
	if read <= 0 || !d.tr.on {
		return
	}
	d.tr.ops(trace.FnDecParse, int(read/3)+6)
	d.tr.load(trace.FnDecParse, bitstreamBase+uint64(startBits/8), int(read/8)+1)
}

func (d *Decoder) decodeFrame() (*frame.Frame, FrameType, int, error) {
	fail := func(err error) (*frame.Frame, FrameType, int, error) {
		return nil, FrameI, 0, err
	}
	d.br.AlignByte()
	t64, err := d.readUE()
	if err != nil {
		return fail(err)
	}
	if t64 > int(FrameB) {
		return fail(errBitstream("bad frame type"))
	}
	t := FrameType(t64)
	pts, err := d.readUE()
	if err != nil {
		return fail(err)
	}
	frameQP, err := d.readUE()
	if err != nil {
		return fail(err)
	}
	if _, err := d.readUE(); err != nil { // nRefs: informational
		return fail(err)
	}

	rec := frame.New(d.w, d.h)
	rec.PTS = pts
	rec.SetBase(d.nextVA)
	d.nextVA += (uint64(rec.ByteSize()) + 4095) &^ 4095
	d.mvf0.reset()
	d.mvf1.reset()
	d.qpPrev = frameQP

	var list0 []*frame.Frame
	var list1 *frame.Frame
	switch t {
	case FrameP:
		list0 = d.dpb
		if len(list0) == 0 {
			return fail(errBitstream("P frame with empty reference list"))
		}
	case FrameB:
		if len(d.dpb) < 2 {
			return fail(errBitstream("B frame without two anchors"))
		}
		list1 = d.dpb[0]
		list0 = d.dpb[1:]
	}

	mbw, mbh := d.w/16, d.h/16
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			d.tr.nextMB()
			d.tr.call(trace.FnDecParse)
			if err := d.decodeMB(rec, t, list0, list1, mx, my); err != nil {
				return fail(fmt.Errorf("mb (%d,%d): %w", mx, my, err))
			}
		}
		if d.deblock && d.tune.FuseDeblock && my > 0 {
			deblockMBRow(&d.tr, trace.FnDeblock, rec, d.dbs, my-1, d.dA, d.dB)
		}
	}
	if d.deblock {
		if d.tune.FuseDeblock {
			deblockMBRow(&d.tr, trace.FnDeblock, rec, d.dbs, mbh-1, d.dA, d.dB)
		} else {
			for my := 0; my < mbh; my++ {
				deblockMBRow(&d.tr, trace.FnDeblock, rec, d.dbs, my, d.dA, d.dB)
			}
		}
	}
	rec.ExtendEdges()
	if t != FrameB {
		d.dpb = append([]*frame.Frame{rec}, d.dpb...)
		if len(d.dpb) > dpbSize {
			d.dpb = d.dpb[:dpbSize]
		}
	}
	return rec, t, frameQP, nil
}

// decodeMB parses and reconstructs one macroblock.
func (d *Decoder) decodeMB(rec *frame.Frame, t FrameType, list0 []*frame.Frame, list1 *frame.Frame, mx, my int) error {
	startBits := d.br.BitsRead()
	mb := &macroblock{x: mx * 16, y: my * 16}

	if t == FrameI {
		use4, err := d.readUE()
		if err != nil {
			return err
		}
		mb.kind = kindIntra
		if use4 == 1 {
			mb.intra.use4x4 = true
			for i := range mb.intra.modes4 {
				v, err := d.br.ReadBits(2)
				if err != nil {
					return err
				}
				mb.intra.modes4[i] = uint8(v)
			}
		} else {
			v, err := d.br.ReadBits(2)
			if err != nil {
				return err
			}
			mb.intra.mode16 = int(v)
		}
	} else {
		kind, err := d.readUE()
		if err != nil {
			return err
		}
		switch kind {
		case 0: // skip
			mb.kind = kindSkip
			mb.partMode = part16x16
			mvp := d.mvf0.predict(mx, my)
			setAll(&mb.mvs, mvp)
			if t == FrameB {
				mb.dir = dirBI
				setAll(&mb.mvsL1, d.mvf1.predict(mx, my))
			} else {
				mb.dir = dirL0
			}
			mb.qp = d.qpPrev
			d.traceParse(startBits)
			return d.reconstructDecodedMB(rec, mb, list0, list1, mx, my)
		case 1: // inter
			mb.kind = kindInter
			if err := d.parseInterSyntax(mb, t, mx, my, len(list0)); err != nil {
				return err
			}
		case 2: // intra in P/B
			mb.kind = kindIntra
			use4, err := d.br.ReadBit()
			if err != nil {
				return err
			}
			if use4 {
				mb.intra.use4x4 = true
				for i := range mb.intra.modes4 {
					v, err := d.br.ReadBits(2)
					if err != nil {
						return err
					}
					mb.intra.modes4[i] = uint8(v)
				}
			} else {
				v, err := d.br.ReadBits(2)
				if err != nil {
					return err
				}
				mb.intra.mode16 = int(v)
			}
		default:
			return errBitstream("bad mb kind")
		}
	}

	qpd, err := d.br.ReadSE()
	if err != nil {
		return err
	}
	mb.qp = clampInt(d.qpPrev+int(qpd), 0, transform.MaxQP)
	d.qpPrev = mb.qp
	cbp, err := d.br.ReadUE()
	if err != nil {
		return err
	}
	if cbp > 63 {
		return errBitstream("bad cbp")
	}
	mb.cbp = cbp

	mb.dct8 = d.dct8 && !(mb.kind == kindIntra && mb.intra.use4x4)
	for g := 0; g < 4; g++ {
		if mb.cbp&(1<<uint(g)) == 0 {
			continue
		}
		if mb.dct8 {
			nz, err := d.readResidualBlock8(&mb.coefs8[g])
			if err != nil {
				return err
			}
			mb.nzc8[g] = uint8(nz)
			continue
		}
		gx, gy := (g%2)*2, (g/2)*2
		for _, bi := range [4]int{gy*4 + gx, gy*4 + gx + 1, (gy+1)*4 + gx, (gy+1)*4 + gx + 1} {
			nz, err := d.readResidualBlock(&mb.coefs[bi])
			if err != nil {
				return err
			}
			mb.nzc[bi] = uint8(nz)
		}
	}
	for plane := 0; plane < 2; plane++ {
		if mb.cbp&(1<<uint(4+plane)) == 0 {
			continue
		}
		base := 16 + plane*4
		for k := 0; k < 4; k++ {
			nz, err := d.readResidualBlock(&mb.coefs[base+k])
			if err != nil {
				return err
			}
			mb.nzc[base+k] = uint8(nz)
		}
	}
	d.traceParse(startBits)
	return d.reconstructDecodedMB(rec, mb, list0, list1, mx, my)
}

// parseInterSyntax reads partitioning, references and motion vectors.
func (d *Decoder) parseInterSyntax(mb *macroblock, t FrameType, mx, my, nList0 int) error {
	if t == FrameB {
		dir, err := d.readUE()
		if err != nil {
			return err
		}
		if dir > dirBI {
			return errBitstream("bad B direction")
		}
		mb.dir = dir
		if _, err := d.readUE(); err != nil { // partMode, always 16x16 for B
			return err
		}
		if dir != dirL1 {
			ref, err := d.readUE()
			if err != nil {
				return err
			}
			if ref >= nList0 {
				return errBitstream("refIdx out of range")
			}
			mb.refIdx = ref
			mvp := d.mvf0.predict(mx, my)
			dx, err := d.br.ReadSE()
			if err != nil {
				return err
			}
			dy, err := d.br.ReadSE()
			if err != nil {
				return err
			}
			setAll(&mb.mvs, MV{mvp.X + dx, mvp.Y + dy})
		}
		if dir != dirL0 {
			mvp := d.mvf1.predict(mx, my)
			dx, err := d.br.ReadSE()
			if err != nil {
				return err
			}
			dy, err := d.br.ReadSE()
			if err != nil {
				return err
			}
			setAll(&mb.mvsL1, MV{mvp.X + dx, mvp.Y + dy})
		}
		return nil
	}

	pm, err := d.readUE()
	if err != nil {
		return err
	}
	if pm > part8x8 {
		return errBitstream("bad partition mode")
	}
	mb.partMode = pm
	if pm == part8x8 {
		for i := range mb.sub4x4 {
			s, err := d.br.ReadBit()
			if err != nil {
				return err
			}
			mb.sub4x4[i] = s
		}
	}
	ref, err := d.readUE()
	if err != nil {
		return err
	}
	if ref >= nList0 {
		return errBitstream("refIdx out of range")
	}
	mb.refIdx = ref
	mvpred := d.mvf0.predict(mx, my)
	readPart := func(px, py, pw, ph int) error {
		dx, err := d.br.ReadSE()
		if err != nil {
			return err
		}
		dy, err := d.br.ReadSE()
		if err != nil {
			return err
		}
		mv := MV{mvpred.X + dx, mvpred.Y + dy}
		mb.setMV(0, px, py, pw, ph, mv)
		mvpred = mv
		return nil
	}
	if pm == part8x8 {
		for i, g := range partGeom[part8x8] {
			if mb.sub4x4[i] {
				for k := 0; k < 4; k++ {
					if err := readPart(g[0]+(k%2)*4, g[1]+(k/2)*4, 4, 4); err != nil {
						return err
					}
				}
			} else if err := readPart(g[0], g[1], g[2], g[3]); err != nil {
				return err
			}
		}
	} else {
		for _, g := range partGeom[pm] {
			if err := readPart(g[0], g[1], g[2], g[3]); err != nil {
				return err
			}
		}
	}
	return nil
}

// reconstructDecodedMB mirrors the encoder's reconstruction exactly.
func (d *Decoder) reconstructDecodedMB(rec *frame.Frame, mb *macroblock, list0 []*frame.Frame, list1 *frame.Frame, mx, my int) error {
	// Luma prediction + residual.
	switch {
	case mb.kind == kindIntra && mb.intra.use4x4:
		var pred block
		for by := 0; by < 4; by++ {
			for bx := 0; bx < 4; bx++ {
				bi := by*4 + bx
				d.tr.predIntra(trace.FnDecPred, &rec.Y, mb.x+bx*4, mb.y+by*4, 4, 4, mode4Set[mb.intra.modes4[bi]], &pred)
				d.addResidual4x4(&rec.Y, mb.x+bx*4, mb.y+by*4, &pred, 0, 0, mb.qp, &mb.coefs[bi], mb.nzc[bi] > 0)
			}
		}
	default:
		var pred16 block
		if mb.kind == kindIntra {
			d.tr.predIntra(trace.FnDecPred, &rec.Y, mb.x, mb.y, 16, 16, mb.intra.mode16, &pred16)
		} else {
			predictInterLumaInto(&d.tr, trace.FnDecMC, mb, list0, list1, &pred16)
		}
		switch {
		case mb.kind == kindSkip:
			d.tr.copyPredToRec(&rec.Y, mb.x, mb.y, &pred16)
		case mb.dct8:
			for g := 0; g < 4; g++ {
				gx, gy := (g%2)*8, (g/2)*8
				coded := mb.cbp&(1<<uint(g)) != 0 && mb.nzc8[g] > 0
				d.addResidual8x8(&rec.Y, mb.x+gx, mb.y+gy, &pred16, gx, gy, mb.qp, &mb.coefs8[g], coded)
			}
		default:
			for by := 0; by < 4; by++ {
				for bx := 0; bx < 4; bx++ {
					bi := by*4 + bx
					coded := mb.cbp&(1<<uint((by/2)*2+bx/2)) != 0 && mb.nzc[bi] > 0
					d.addResidual4x4(&rec.Y, mb.x+bx*4, mb.y+by*4, &pred16, bx*4, by*4, mb.qp, &mb.coefs[bi], coded)
				}
			}
		}
	}

	// Chroma.
	cqp := chromaQP(mb.qp)
	for plane := 0; plane < 2; plane++ {
		recC := &rec.Cb
		if plane == 1 {
			recC = &rec.Cr
		}
		var predC block
		if mb.kind == kindIntra {
			d.tr.predIntra(trace.FnDecPred, recC, mb.x/2, mb.y/2, 8, 8, intraDC, &predC)
		} else {
			predictInterChromaInto(&d.tr, trace.FnDecMC, mb, list0, list1, plane, &predC)
		}
		if mb.kind == kindSkip {
			d.tr.copyPredToRec(recC, mb.x/2, mb.y/2, &predC)
			continue
		}
		codedPlane := mb.cbp&(1<<uint(4+plane)) != 0
		for by := 0; by < 2; by++ {
			for bx := 0; bx < 2; bx++ {
				ci := 16 + plane*4 + by*2 + bx
				d.addResidual4x4(recC, mb.x/2+bx*4, mb.y/2+by*4, &predC, bx*4, by*4, cqp, &mb.coefs[ci], codedPlane && mb.nzc[ci] > 0)
			}
		}
	}

	// Neighbour bookkeeping, matching the encoder exactly: only
	// transmitted vectors enter the prediction fields.
	coded := mb.kind != kindIntra
	l0 := MV{}
	if coded && mb.dir != dirL1 {
		l0 = mb.mvs[0]
	}
	d.mvf0.set(mx, my, l0, coded && mb.dir != dirL1)
	if list1 != nil {
		l1 := MV{}
		if coded && mb.dir != dirL0 {
			l1 = mb.mvsL1[0]
		}
		d.mvf1.set(mx, my, l1, coded && mb.dir != dirL0)
	}
	d.dbs.set(mx, my, mb.qp, mb.kind)
	return nil
}

// addResidual8x8 reconstructs one 8x8 luma block (the --8x8dct path).
func (d *Decoder) addResidual8x8(rec *frame.Plane, x, y int, pred *block, predOx, predOy, qp int, coef *transform.Block8, coded bool) {
	if !coded {
		for j := 0; j < 8; j++ {
			prow := pred.row(predOy + j)[predOx : predOx+8]
			for i := 0; i < 8; i++ {
				rec.Set(x+i, y+j, prow[i])
			}
		}
		d.tr.store2D(trace.FnDecIDCT, rec, x, y, 8, 8)
		return
	}
	deq := *coef
	transform.Dequant8(&deq, qp)
	var spatial transform.Block8
	transform.IDCT8(&deq, &spatial)
	d.tr.call(trace.FnDecIDCT)
	d.tr.ops(trace.FnDecIDCT, 96)
	for j := 0; j < 8; j++ {
		prow := pred.row(predOy + j)[predOx : predOx+8]
		for i := 0; i < 8; i++ {
			rec.Set(x+i, y+j, clampU8(int32(prow[i])+spatial[j*8+i]))
		}
	}
	d.tr.store2D(trace.FnDecIDCT, rec, x, y, 8, 8)
}

// addResidual4x4 reconstructs one 4x4 block from its prediction and (if
// coded) dequantized coefficients — the decoder half of codeResidual4x4.
func (d *Decoder) addResidual4x4(rec *frame.Plane, x, y int, pred *block, predOx, predOy, qp int, coef *transform.Block, coded bool) {
	if !coded {
		for j := 0; j < 4; j++ {
			prow := pred.row(predOy + j)[predOx : predOx+4]
			for i := 0; i < 4; i++ {
				rec.Set(x+i, y+j, prow[i])
			}
		}
		d.tr.store2D(trace.FnDecIDCT, rec, x, y, 4, 4)
		return
	}
	deq := *coef
	transform.Dequant(&deq, qp)
	var spatial transform.Block
	transform.IDCT(&deq, &spatial)
	d.tr.call(trace.FnDecIDCT)
	d.tr.ops(trace.FnDecIDCT, 36)
	for j := 0; j < 4; j++ {
		prow := pred.row(predOy + j)[predOx : predOx+4]
		for i := 0; i < 4; i++ {
			rec.Set(x+i, y+j, clampU8(int32(prow[i])+spatial[j*4+i]))
		}
	}
	d.tr.store2D(trace.FnDecIDCT, rec, x, y, 4, 4)
}
