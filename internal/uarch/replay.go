package uarch

import "repro/internal/trace"

// ReplayEvents consumes a parsed trace with a devirtualized event loop.
// trace.Replay dispatches through the trace.Sink interface — one dynamic
// call per event; here one switch on each event's kind decodes its
// operands with the EventBuf's cursor, which checks nothing because
// trace.Parse already did, straight into the Machine's concrete methods,
// so a sweep fanning one parsed trace out to N configurations pays neither
// the checks nor interface dispatch per event. Observationally identical
// to driving the machine as a Sink through trace.Replay on the buffer the
// EventBuf was parsed from; the machine-equivalence suite pins this for
// every configuration.
func (m *Machine) ReplayEvents(b *trace.EventBuf) {
	c := b.Cursor()
	for c.More() {
		switch kind, fn := c.Next(); kind {
		case trace.EvOps:
			m.Ops(fn, c.Ops())
		case trace.EvLoad:
			addr, bytes := c.Access()
			m.Load(fn, addr, bytes)
		case trace.EvStore:
			addr, bytes := c.Access()
			m.Store(fn, addr, bytes)
		case trace.EvLoad2D:
			addr, w, h, stride := c.Block()
			m.Load2D(fn, addr, w, h, stride)
		case trace.EvStore2D:
			addr, w, h, stride := c.Block()
			m.Store2D(fn, addr, w, h, stride)
		case trace.EvBranch:
			site, taken := c.Branch()
			m.Branch(fn, site, taken)
		case trace.EvLoop:
			site, iters := c.Loop()
			m.Loop(fn, site, iters)
		case trace.EvCall:
			m.Call(fn)
		}
	}
}
