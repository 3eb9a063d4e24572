package uarch

import "repro/internal/trace"

// ReplayEvents consumes a parsed trace with a devirtualized event loop.
// trace.Replay and trace.ReplayParsed dispatch through the trace.Sink
// interface — one dynamic call per event; here the switch walks the
// EventBuf's columns in place (see its operand layout) straight into the
// Machine's concrete methods, so a sweep fanning one parsed trace out to N
// configurations pays neither varint decoding nor interface dispatch per
// event. Observationally identical to driving the machine as
// a Sink through trace.Replay on the buffer the EventBuf was parsed from;
// the machine-equivalence suite pins this for every Table IV
// configuration.
func (m *Machine) ReplayEvents(b *trace.EventBuf) {
	tags, o := b.Columns()
	for _, tag := range tags {
		fn := trace.FuncID(tag & 0x1f)
		switch trace.EventKind(tag >> 5) {
		case trace.EvOps:
			m.Ops(fn, int(o[0]))
			o = o[1:]
		case trace.EvLoad:
			m.Load(fn, o[0], int(o[1]))
			o = o[2:]
		case trace.EvStore:
			m.Store(fn, o[0], int(o[1]))
			o = o[2:]
		case trace.EvLoad2D:
			m.Load2D(fn, o[0], int(o[1]), int(o[2]), int(o[3]))
			o = o[4:]
		case trace.EvStore2D:
			m.Store2D(fn, o[0], int(o[1]), int(o[2]), int(o[3]))
			o = o[4:]
		case trace.EvBranch:
			m.Branch(fn, trace.BranchID(o[0]>>1), o[0]&1 == 1)
			o = o[1:]
		case trace.EvLoop:
			m.Loop(fn, trace.BranchID(o[0]), int(o[1]))
			o = o[2:]
		case trace.EvCall:
			m.Call(fn)
		}
	}
}
