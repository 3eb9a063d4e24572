package trace

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseReplayEquivalence is the property test: for any event sequence,
// Parse+ReplayParsed and ReplayMulti observe exactly the calls Replay
// observes.
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
		// A fresh parse is held for the life of a cache entry: no append slack.
		if cap(b.tags) != len(b.tags) || cap(b.ops) != len(b.ops) {
			t.Logf("Parse kept slack: tags %d/%d, ops %d/%d", len(b.tags), cap(b.tags), len(b.ops), cap(b.ops))
			return false
		}
		var parsed collector
		ReplayParsed(b, &parsed)
		if !reflect.DeepEqual(ref.events, parsed.events) {
			t.Logf("ReplayParsed diverged")
			return false
		}
		var m1, m2 collector
		if err := ReplayMulti(rec.Bytes(), &m1, &m2); err != nil {
			t.Logf("multi error: %v", err)
			return false
		}
		return reflect.DeepEqual(ref.events, m1.events) && reflect.DeepEqual(ref.events, m2.events)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestParseFromReuse verifies both columns are reused across parses and
// that Reset keeps their capacity.
func TestParseFromReuse(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 64; i++ {
		rec.Load(FnDecMC, uint64(i)*64, 8)
	}
	var b EventBuf
	if err := ParseFrom(rec.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 64 || len(b.ops) != 128 {
		t.Fatalf("Len() = %d with %d operands, want 64 with 128", b.Len(), len(b.ops))
	}
	tags, ops := &b.tags[0], &b.ops[0]
	rec.Reset()
	rec.Ops(FnSAD, 9)
	if err := ParseFrom(rec.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || &b.tags[0] != tags || &b.ops[0] != ops {
		t.Fatal("ParseFrom did not reuse the columns")
	}
	if want := 64 + 8*128; b.SizeBytes() < want {
		t.Fatalf("SizeBytes() = %d, want >= %d", b.SizeBytes(), want)
	}
	b.Reset()
	if b.Len() != 0 || cap(b.tags) < 64 || cap(b.ops) < 128 {
		t.Fatal("Reset dropped the columns")
	}
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

// FuzzParseReplay feeds arbitrary byte buffers through both decoders:
// they must agree on error/success, on error text, and on the observed
// event streams — on a corrupt buffer, the stream up to the corruption —
// and the operand column must hold exactly what those events carry.
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
			// ParseFrom's destination holds the events Replay delivered
			// before the corruption and no operand of the broken one.
			b = new(EventBuf)
			if err := ParseFrom(buf, b); err == nil || err.Error() != refErr.Error() {
				t.Fatalf("ParseFrom err %v, Replay err %v", err, refErr)
			}
		}
		var parsed collector
		ReplayParsed(b, &parsed)
		if b.Len() != len(ref.events) || !reflect.DeepEqual(ref.events, parsed.events) {
			t.Fatalf("ReplayParsed diverged (Len %d):\n ref    %+v\n parsed %+v", b.Len(), ref.events, parsed.events)
		}
		if _, ops := b.Columns(); len(ops) != operands(ref.events) {
			t.Fatalf("%d operands in the column, the %d events carry %d", len(ops), b.Len(), operands(ref.events))
		}
		if refErr != nil {
			return
		}
		var m1, m2 collector
		if err := ReplayMulti(buf, &m1, &m2); err != nil {
			t.Fatalf("ReplayMulti err: %v", err)
		}
		if !reflect.DeepEqual(ref.events, m1.events) || !reflect.DeepEqual(ref.events, m2.events) {
			t.Fatal("ReplayMulti diverged")
		}
	})
}

// operands counts the operand-column entries a sequence of events carries.
func operands(evs []event) int {
	n := 0
	for _, e := range evs {
		n += [...]int{EvOps: 1, EvLoad: 2, EvStore: 2, EvLoad2D: 4, EvStore2D: 4, EvBranch: 1, EvLoop: 2, EvCall: 0}[e.Kind]
	}
	return n
}
