package trace

import (
	"encoding/binary"
	"fmt"
)

// Recorder is a Sink that captures the event stream into a compact flat
// buffer so it can be re-driven later with Replay. A transcode's decode
// half is byte-identical across every job that shares a workload and
// decoder options; recording it once and replaying the buffer into each
// job's machine turns an O(decode) cost into an O(events) memcpy-like scan.
//
// Encoding: one tag byte per event — kind in the top three bits, FuncID in
// the low five — followed by the operands as varints. Addresses are
// delta-encoded (zigzag of the difference from the previous address, in
// emission order) because consecutive accesses are near each other; all
// other integer operands are zigzag varints so any int round-trips exactly.
type Recorder struct {
	buf      []byte
	lastAddr uint64
	events   int
}

// EventKind identifies one Sink method in the recorded encoding. Kinds are
// packed into the tag byte's top three bits; they are exported so a
// Cursor's consumer (uarch.Machine.ReplayEvents) can dispatch on an
// event's kind without an interface call per event.
type EventKind uint8

const (
	EvOps EventKind = iota
	EvLoad
	EvStore
	EvLoad2D
	EvStore2D
	EvBranch
	EvLoop
	EvCall
)

// The tag byte gives FuncID five bits; widening NumFuncs past 32 must widen
// the encoding too.
var _ [32 - int(NumFuncs)]struct{}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// Bytes returns the recorded buffer. The Recorder retains ownership; the
// slice is valid until the next event is recorded.
func (r *Recorder) Bytes() []byte { return r.buf }

// Events returns the number of events recorded.
func (r *Recorder) Events() int { return r.events }

// Reset discards all recorded state, keeping the allocated buffer.
func (r *Recorder) Reset() {
	r.buf = r.buf[:0]
	r.lastAddr = 0
	r.events = 0
}

func (r *Recorder) tag(kind EventKind, fn FuncID) {
	r.buf = append(r.buf, uint8(kind)<<5|uint8(fn)&0x1f)
	r.events++
}

func (r *Recorder) putInt(v int) {
	r.buf = binary.AppendVarint(r.buf, int64(v))
}

func (r *Recorder) putAddr(addr uint64) {
	// The delta is computed in uint64 space so arbitrary jumps (for example
	// bitstream base to frame base) wrap rather than overflow.
	r.buf = binary.AppendVarint(r.buf, int64(addr-r.lastAddr))
	r.lastAddr = addr
}

func (r *Recorder) Ops(fn FuncID, n int) {
	r.tag(EvOps, fn)
	r.putInt(n)
}

func (r *Recorder) Load(fn FuncID, addr uint64, bytes int) {
	r.tag(EvLoad, fn)
	r.putAddr(addr)
	r.putInt(bytes)
}

func (r *Recorder) Store(fn FuncID, addr uint64, bytes int) {
	r.tag(EvStore, fn)
	r.putAddr(addr)
	r.putInt(bytes)
}

func (r *Recorder) Load2D(fn FuncID, addr uint64, w, h, stride int) {
	r.tag(EvLoad2D, fn)
	r.putAddr(addr)
	r.putInt(w)
	r.putInt(h)
	r.putInt(stride)
}

func (r *Recorder) Store2D(fn FuncID, addr uint64, w, h, stride int) {
	r.tag(EvStore2D, fn)
	r.putAddr(addr)
	r.putInt(w)
	r.putInt(h)
	r.putInt(stride)
}

func (r *Recorder) Branch(fn FuncID, site BranchID, taken bool) {
	r.tag(EvBranch, fn)
	v := uint64(site) << 1
	if taken {
		v |= 1
	}
	r.buf = binary.AppendUvarint(r.buf, v)
}

func (r *Recorder) Loop(fn FuncID, site BranchID, iters int) {
	r.tag(EvLoop, fn)
	r.buf = binary.AppendUvarint(r.buf, uint64(site))
	r.putInt(iters)
}

func (r *Recorder) Call(fn FuncID) {
	r.tag(EvCall, fn)
}

var _ Sink = (*Recorder)(nil)

// replayReader walks a recorded buffer. It tracks the byte offset and the
// index of the event being decoded so corrupt-trace errors say where in the
// buffer — and how far into the event stream — the damage is.
type replayReader struct {
	buf      []byte
	pos      int
	event    int // index of the event currently being decoded
	lastAddr uint64
}

// corrupt builds the error for a varint that failed to decode: n == 0 means
// the buffer ended mid-operand (truncation), n < 0 means the encoded value
// overflowed 64 bits (corruption).
func (p *replayReader) corrupt(what string, n int) error {
	if n == 0 {
		return fmt.Errorf("trace: truncated %s at byte offset %d (event %d, buffer %d bytes)",
			what, p.pos, p.event, len(p.buf))
	}
	return fmt.Errorf("trace: %s overflows 64 bits at byte offset %d (event %d)",
		what, p.pos, p.event)
}

func (p *replayReader) int(what string) (int, error) {
	v, n := binary.Varint(p.buf[p.pos:])
	if n <= 0 {
		return 0, p.corrupt(what, n)
	}
	p.pos += n
	return int(v), nil
}

func (p *replayReader) uint(what string) (uint64, error) {
	v, n := binary.Uvarint(p.buf[p.pos:])
	if n <= 0 {
		return 0, p.corrupt(what, n)
	}
	p.pos += n
	return v, nil
}

func (p *replayReader) addr() (uint64, error) {
	v, n := binary.Varint(p.buf[p.pos:])
	if n <= 0 {
		return 0, p.corrupt("address delta", n)
	}
	p.pos += n
	p.lastAddr += uint64(v)
	return p.lastAddr, nil
}

// Replay re-drives every event in a buffer produced by Recorder into sink,
// in recording order. A sink fed by Replay observes exactly the calls the
// Recorder observed, so a deterministic consumer (such as uarch.Machine)
// reaches exactly the state it would have reached live.
func Replay(buf []byte, sink Sink) error {
	p := replayReader{buf: buf}
	for p.pos < len(buf) {
		tag := buf[p.pos]
		p.pos++
		kind, fn := EventKind(tag>>5), FuncID(tag&0x1f)
		switch kind {
		case EvOps:
			n, err := p.int("operand")
			if err != nil {
				return err
			}
			sink.Ops(fn, n)
		case EvLoad, EvStore:
			addr, err := p.addr()
			if err != nil {
				return err
			}
			bytes, err := p.int("operand")
			if err != nil {
				return err
			}
			if kind == EvLoad {
				sink.Load(fn, addr, bytes)
			} else {
				sink.Store(fn, addr, bytes)
			}
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
			if kind == EvLoad2D {
				sink.Load2D(fn, addr, w, h, stride)
			} else {
				sink.Store2D(fn, addr, w, h, stride)
			}
		case EvBranch:
			v, err := p.uint("branch operand")
			if err != nil {
				return err
			}
			sink.Branch(fn, BranchID(v>>1), v&1 == 1)
		case EvLoop:
			site, err := p.uint("loop site")
			if err != nil {
				return err
			}
			iters, err := p.int("operand")
			if err != nil {
				return err
			}
			sink.Loop(fn, BranchID(site), iters)
		case EvCall:
			sink.Call(fn)
		default:
			return fmt.Errorf("trace: unknown event kind %d at byte offset %d (event %d)", kind, p.pos-1, p.event)
		}
		p.event++
	}
	return nil
}
