package trace

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseReplayEquivalence is the property test: for any event sequence,
// Parse views the recorded bytes without copying them, counts the events,
// and its Cursor delivers exactly the calls Replay delivers.
func TestParseReplayEquivalence(t *testing.T) {
	prop := func(seq eventSeq) bool {
		rec := NewRecorder()
		for _, e := range seq {
			e.drive(rec)
		}
		var ref collector
		if err := Replay(rec.Bytes(), &ref); err != nil {
			t.Logf("replay error: %v", err)
			return false
		}
		b, err := Parse(rec.Bytes())
		if err != nil {
			t.Logf("parse error: %v", err)
			return false
		}
		if b.Len() != len(seq) {
			t.Logf("Len() = %d, want %d", b.Len(), len(seq))
			return false
		}
		if !aliases(b, rec.Bytes()) {
			t.Logf("Parse copied the buffer")
			return false
		}
		if got := drain(b); !reflect.DeepEqual(ref.events, got) {
			t.Logf("Cursor diverged")
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// drain decodes every event of b with a fresh Cursor, calling for each the
// operand method its kind names.
func drain(b *EventBuf) []event {
	var evs []event
	c := b.Cursor()
	for c.More() {
		kind, fn := c.Next()
		e := event{Kind: kind, Fn: fn}
		switch kind {
		case EvOps:
			e.A = c.Ops()
		case EvLoad, EvStore:
			e.Addr, e.A = c.Access()
		case EvLoad2D, EvStore2D:
			e.Addr, e.A, e.B, e.C = c.Block()
		case EvBranch:
			e.Site, e.Taken = c.Branch()
		case EvLoop:
			e.Site, e.A = c.Loop()
		}
		evs = append(evs, e)
	}
	return evs
}

// aliases reports whether b views buf itself rather than a copy of it.
func aliases(b *EventBuf, buf []byte) bool {
	if b.SizeBytes() != len(buf) || len(b.Bytes()) != len(buf) {
		return false
	}
	return len(buf) == 0 || &b.Bytes()[0] == &buf[0]
}

// TestParseCorruptBuffer verifies truncations error with positioned
// context, identically to Replay.
func TestParseCorruptBuffer(t *testing.T) {
	rec := NewRecorder()
	rec.Load(FnDecMC, 0x1000, 64)
	rec.Load2D(FnDecMC, 0x8_0000_0000, 16, 16, 1920)
	buf := rec.Bytes()
	for cut := 1; cut < len(buf); cut++ {
		refErr := Replay(buf[:cut], &collector{})
		_, parseErr := Parse(buf[:cut])
		if (refErr == nil) != (parseErr == nil) {
			t.Fatalf("cut %d: Replay err %v, Parse err %v", cut, refErr, parseErr)
		}
		if refErr != nil && refErr.Error() != parseErr.Error() {
			t.Fatalf("cut %d: error mismatch:\n replay: %v\n parse:  %v", cut, refErr, parseErr)
		}
	}
}

// TestReplayErrorPosition pins the positioned error format: byte offset
// and event index must both appear.
func TestReplayErrorPosition(t *testing.T) {
	rec := NewRecorder()
	rec.Ops(FnSAD, 1)             // event 0, 2 bytes
	rec.Load(FnDecMC, 0x1000, 64) // event 1
	buf := rec.Bytes()[:3]        // cut inside event 1's address delta
	err := Replay(buf, &collector{})
	if err == nil {
		t.Fatal("truncated buffer accepted")
	}
	msg := err.Error()
	for _, want := range []string{"truncated", "byte offset 3", "event 1"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	// Overflowing varint: 11 continuation bytes after an Ops tag (ten
	// bytes would read as truncation; the 11th trips 64-bit overflow).
	over := append([]byte{uint8(EvOps) << 5}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)
	err = Replay(over, &collector{})
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("overflow not reported: %v", err)
	}
}

// FuzzParseReplay feeds arbitrary byte buffers through Parse and Replay:
// Parse must fail exactly when Replay fails, with the same error text; on
// a buffer both accept, Len must count Replay's events, the EventBuf must
// view the buffer without copying it, and every Cursor taken from it —
// two here, as two machines would — must deliver exactly Replay's events.
func FuzzParseReplay(f *testing.F) {
	rec := NewRecorder()
	rec.Ops(FnSAD, 42)
	rec.Load(FnDecMC, 0x8_0000_0000, 64)
	rec.Load2D(FnDecMC, 0x8_0000_1000, 16, 16, 1920)
	rec.Branch(FnDecParse, 7, true)
	rec.Loop(FnDeblock, 3, 12)
	rec.Call(FnDecParse)
	f.Add(append([]byte(nil), rec.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, buf []byte) {
		var ref collector
		refErr := Replay(buf, &ref)
		b, parseErr := Parse(buf)
		if (refErr == nil) != (parseErr == nil) {
			t.Fatalf("Replay err %v, Parse err %v", refErr, parseErr)
		}
		if refErr != nil {
			if refErr.Error() != parseErr.Error() {
				t.Fatalf("error mismatch:\n replay: %v\n parse:  %v", refErr, parseErr)
			}
			if b != nil {
				t.Fatal("Parse returned an EventBuf with its error")
			}
			return
		}
		if b.Len() != len(ref.events) || !aliases(b, buf) {
			t.Fatalf("Len %d for %d events, SizeBytes %d for %d bytes, aliased %v",
				b.Len(), len(ref.events), b.SizeBytes(), len(buf), aliases(b, buf))
		}
		for pass := 0; pass < 2; pass++ {
			if got := drain(b); !reflect.DeepEqual(ref.events, got) {
				t.Fatalf("Cursor pass %d diverged:\n ref    %+v\n cursor %+v", pass, ref.events, got)
			}
		}
	})
}
