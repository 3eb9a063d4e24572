package trace

// Pre-parsed trace representation.
//
// Replay decodes the varint stream once per sink: a sweep that replays one
// decode trace into N machine configurations pays N full varint decodes and
// N×events virtual Sink dispatches. Parse performs the decode exactly once
// into two flat columns; ReplayParsed then fans the events out to any
// number of consumers with a plain slice walk, and
// uarch.Machine.ReplayEvents walks the columns with no interface call at
// all. Replay remains the pinned reference semantics — every consumer of
// the parsed form must be observationally identical to it, which the
// equivalence and fuzz tests in parse_test.go enforce.

// EventBuf is a parsed trace in columnar form: the recorded tag byte of
// every event (kind in the top three bits, FuncID in the low five) and one
// operand column holding, event after event, exactly the operands that
// kind carries — addresses delta-resolved, everything 64 bits wide, so
// parsing never loses information relative to Replay:
//
//	Ops              n
//	Load/Store       addr, bytes
//	Load2D/Store2D   addr, w, h, stride
//	Branch           site<<1 | taken
//	Loop             site, iters
//	Call             (no operands)
//
// A decode trace averages about 1.4 operands an event, 12 bytes against
// the 40 of a fixed-width record. The zero value is empty and ready for
// ParseFrom.
type EventBuf struct {
	tags []byte
	ops  []uint64
}

// Len returns the number of parsed events.
func (b *EventBuf) Len() int { return len(b.tags) }

// Columns returns the tag and operand columns for an in-place walk
// (ReplayParsed is the model). The EventBuf retains ownership: read-only,
// valid until the next ParseFrom into this buffer.
func (b *EventBuf) Columns() (tags []byte, ops []uint64) { return b.tags, b.ops }

// SizeBytes reports the columns' capacity footprint, for cache accounting.
func (b *EventBuf) SizeBytes() int { return cap(b.tags) + 8*cap(b.ops) }

// Reset empties the buffer, keeping the columns for reuse.
func (b *EventBuf) Reset() { b.tags, b.ops = b.tags[:0], b.ops[:0] }

// Parse decodes a buffer produced by Recorder into a fresh EventBuf whose
// columns are exactly as long as the trace needs: the caches hold parsed
// traces for the life of the process, so append's growth slack goes back
// to the collector with the scratch columns.
func Parse(buf []byte) (*EventBuf, error) {
	var b EventBuf
	if err := ParseFrom(buf, &b); err != nil {
		return nil, err
	}
	return &EventBuf{
		tags: append(make([]byte, 0, len(b.tags)), b.tags...),
		ops:  append(make([]uint64, 0, len(b.ops)), b.ops...),
	}, nil
}

// ParseFrom decodes buf into dst, reusing dst's columns. On error dst holds
// the events decoded before the corruption, and the error carries the byte
// offset and event index exactly as Replay would report them.
func ParseFrom(buf []byte, dst *EventBuf) error {
	dst.Reset()
	p := replayReader{buf: buf}
	for p.pos < len(buf) {
		tag := buf[p.pos]
		p.pos++
		switch EventKind(tag >> 5) {
		case EvOps:
			n, err := p.int("operand")
			if err != nil {
				return err
			}
			dst.ops = append(dst.ops, uint64(n))
		case EvLoad, EvStore:
			addr, err := p.addr()
			if err != nil {
				return err
			}
			bytes, err := p.int("operand")
			if err != nil {
				return err
			}
			dst.ops = append(dst.ops, addr, uint64(bytes))
		case EvLoad2D, EvStore2D:
			addr, err := p.addr()
			if err != nil {
				return err
			}
			w, err := p.int("operand")
			if err != nil {
				return err
			}
			h, err := p.int("operand")
			if err != nil {
				return err
			}
			stride, err := p.int("operand")
			if err != nil {
				return err
			}
			dst.ops = append(dst.ops, addr, uint64(w), uint64(h), uint64(stride))
		case EvBranch:
			v, err := p.uint("branch operand")
			if err != nil {
				return err
			}
			dst.ops = append(dst.ops, v)
		case EvLoop:
			site, err := p.uint("loop site")
			if err != nil {
				return err
			}
			iters, err := p.int("operand")
			if err != nil {
				return err
			}
			dst.ops = append(dst.ops, site, uint64(iters))
		case EvCall:
			// no operands
		}
		dst.tags = append(dst.tags, tag)
		p.event++
	}
	return nil
}

// ReplayParsed re-drives a parsed trace into sink, in recording order. It
// is observationally identical to Replay on the buffer the EventBuf was
// parsed from; parsing already validated the encoding, so there is no
// error to return.
func ReplayParsed(b *EventBuf, sink Sink) {
	o := b.ops
	for _, tag := range b.tags {
		fn := FuncID(tag & 0x1f)
		switch EventKind(tag >> 5) {
		case EvOps:
			sink.Ops(fn, int(o[0]))
			o = o[1:]
		case EvLoad:
			sink.Load(fn, o[0], int(o[1]))
			o = o[2:]
		case EvStore:
			sink.Store(fn, o[0], int(o[1]))
			o = o[2:]
		case EvLoad2D:
			sink.Load2D(fn, o[0], int(o[1]), int(o[2]), int(o[3]))
			o = o[4:]
		case EvStore2D:
			sink.Store2D(fn, o[0], int(o[1]), int(o[2]), int(o[3]))
			o = o[4:]
		case EvBranch:
			sink.Branch(fn, BranchID(o[0]>>1), o[0]&1 == 1)
			o = o[1:]
		case EvLoop:
			sink.Loop(fn, BranchID(o[0]), int(o[1]))
			o = o[2:]
		case EvCall:
			sink.Call(fn)
		}
	}
}

// ReplayMulti replays a recorded buffer into every sink, decoding each
// event exactly once. Each sink observes the same call sequence Replay
// would deliver; sinks are driven one after another in argument order,
// each over the complete stream.
func ReplayMulti(buf []byte, sinks ...Sink) error {
	var b EventBuf
	if err := ParseFrom(buf, &b); err != nil {
		return err
	}
	for _, s := range sinks {
		ReplayParsed(&b, s)
	}
	return nil
}
