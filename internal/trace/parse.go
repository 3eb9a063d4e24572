package trace

// Validated trace representation.
//
// Replay checks every varint of the stream as it drives the sink, once per
// sink: a sweep that replays one decode trace into N machine configurations
// pays N checked decodes and N×events virtual Sink dispatches. Parse does
// the checking exactly once and returns an EventBuf over the recorded bytes
// themselves; a Cursor then decodes those bytes with no checks left to
// make, and uarch.Machine.ReplayEvents drives the machine from it with no
// interface call at all. Replay remains the pinned reference semantics —
// Parse must accept exactly what Replay accepts and a Cursor must deliver
// exactly Replay's events, which the equivalence and fuzz tests in
// parse_test.go enforce.

// EventBuf is a recorded buffer that Parse has validated, with its event
// count. It aliases the buffer it was parsed from and copies nothing, so
// that buffer must not change while the EventBuf is in use. The zero value
// is an empty trace.
type EventBuf struct {
	buf []byte
	n   int
}

// Len returns the number of events.
func (b *EventBuf) Len() int { return b.n }

// Bytes returns the recorded buffer, for a generic Sink through Replay.
func (b *EventBuf) Bytes() []byte { return b.buf }

// SizeBytes reports the bytes the buffer views, for cache accounting.
func (b *EventBuf) SizeBytes() int { return len(b.buf) }

// Cursor returns a cursor at the first event.
func (b *EventBuf) Cursor() Cursor { return Cursor{buf: b.buf} }

// operandNames lists, per kind, the operands that follow the tag byte, by
// the name Replay's errors give them.
var operandNames = [...][]string{
	EvOps:     {"operand"},
	EvLoad:    {"address delta", "operand"},
	EvStore:   {"address delta", "operand"},
	EvLoad2D:  {"address delta", "operand", "operand", "operand"},
	EvStore2D: {"address delta", "operand", "operand", "operand"},
	EvBranch:  {"branch operand"},
	EvLoop:    {"loop site", "operand"},
	EvCall:    nil,
}

// Parse validates a buffer produced by Recorder and counts its events. It
// accepts exactly the buffers Replay accepts; on a corrupt one it returns
// the error Replay returns, with the same byte offset and event index.
func Parse(buf []byte) (*EventBuf, error) {
	p := replayReader{buf: buf}
	for p.pos < len(buf) {
		kind := EventKind(buf[p.pos] >> 5)
		p.pos++
		for _, what := range operandNames[kind] {
			// A signed varint is valid exactly when the unsigned one is.
			if _, err := p.uint(what); err != nil {
				return nil, err
			}
		}
		p.event++
	}
	return &EventBuf{buf: buf, n: p.event}, nil
}

// Cursor decodes an EventBuf event by event, in recording order, with no
// checks: the buffer is valid by construction. Next reads an event's kind
// and function; the caller then decodes its operands with the one method
// for that kind — Ops, Access (Load, Store), Block (Load2D, Store2D),
// Branch or Loop; a Call has none — which returns exactly the arguments
// Replay passes to the Sink method. Calling any other method, or none,
// loses the cursor's place. The split — the caller's one switch on the
// kind, operands returned in registers — keeps ReplayEvents within a few
// percent of a walk over operands decoded in advance (measured in the
// CHANGES.md entry that made the parsed layers views of the recorded
// bytes).
type Cursor struct {
	buf      []byte
	pos      int
	lastAddr uint64
}

// More reports whether an event remains.
func (c *Cursor) More() bool { return c.pos < len(c.buf) }

// Next reads the next event's kind and function.
func (c *Cursor) Next() (EventKind, FuncID) {
	tag := c.buf[c.pos]
	c.pos++
	return EventKind(tag >> 5), FuncID(tag & 0x1f)
}

// Ops returns an EvOps event's instruction count.
func (c *Cursor) Ops() int { return int(unzigzag(c.uvarint())) }

// Access returns an EvLoad or EvStore event's address and size.
func (c *Cursor) Access() (addr uint64, bytes int) {
	c.lastAddr += uint64(unzigzag(c.uvarint()))
	return c.lastAddr, int(unzigzag(c.uvarint()))
}

// Block returns an EvLoad2D or EvStore2D event's operands.
func (c *Cursor) Block() (addr uint64, w, h, stride int) {
	c.lastAddr += uint64(unzigzag(c.uvarint()))
	w = int(unzigzag(c.uvarint()))
	h = int(unzigzag(c.uvarint()))
	return c.lastAddr, w, h, int(unzigzag(c.uvarint()))
}

// Branch returns an EvBranch event's site and outcome.
func (c *Cursor) Branch() (BranchID, bool) {
	v := c.uvarint()
	return BranchID(v >> 1), v&1 == 1
}

// Loop returns an EvLoop event's site and trip count.
func (c *Cursor) Loop() (BranchID, int) {
	site := BranchID(c.uvarint())
	return site, int(unzigzag(c.uvarint()))
}

// uvarint decodes binary.Uvarint's encoding. The one-byte case, most
// operands, is small enough to inline.
func (c *Cursor) uvarint() uint64 {
	b := c.buf[c.pos]
	c.pos++
	if b < 0x80 {
		return uint64(b)
	}
	return c.uvarintTail()
}

// uvarintTail finishes a varint whose first byte, just read, had its
// continuation bit set. Inlining it would push uvarint past the inliner's
// budget.
//
//go:noinline
func (c *Cursor) uvarintTail() uint64 {
	x := uint64(c.buf[c.pos-1] & 0x7f)
	for s := uint(7); ; s += 7 {
		b := c.buf[c.pos]
		c.pos++
		if b < 0x80 {
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
	}
}

// unzigzag maps a zigzag-encoded uvarint back to its signed value, as
// binary.Varint does.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
