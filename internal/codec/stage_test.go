package codec

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// stageLog counts ObserveStage calls per stage.
type stageLog [NumEncodeStages]int

func (l *stageLog) ObserveStage(s EncodeStage, _ time.Duration) { l[s]++ }

// TestStageObserverReportsEveryStage: an observed encode reports the
// lookahead once and every other stage once per coded frame, and the
// observer perturbs nothing — bitstream, trace and Stats equal an
// unobserved encode's.
func TestStageObserverReportsEveryStage(t *testing.T) {
	frames := makeClip(t, "game3", 6, 8)
	pinClipVAs(t, frames)
	opt := Defaults()
	if !opt.Deblock {
		t.Fatal("defaults no longer deblock: the deblock stage would go unobserved")
	}
	wantStream, wantTrace, wantStats := encodeTraced(t, frames, opt)

	var log stageLog
	rec := trace.NewRecorder()
	enc, err := NewEncoder(frames[0].Width, frames[0].Height, 30, opt, rec)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetStageObserver(&log)
	stream, stats, err := enc.EncodeAll(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, wantStream) {
		t.Fatalf("observed bitstream differs (%d vs %d bytes)", len(stream), len(wantStream))
	}
	if !bytes.Equal(rec.Bytes(), wantTrace) {
		t.Fatalf("observed trace differs (%d vs %d bytes)", len(rec.Bytes()), len(wantTrace))
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Fatalf("observed stats differ:\ngot:  %+v\nwant: %+v", stats, wantStats)
	}

	if got := log[StageLookahead]; got != 1 {
		t.Errorf("lookahead reported %d times, want once", got)
	}
	for s := StageME; s < NumEncodeStages; s++ {
		if got := log[s]; got < len(stats.Frames) {
			t.Errorf("stage %s reported %d times for %d coded frames", s, got, len(stats.Frames))
		}
	}
}
