package codec

import "time"

// EncodeStage labels one phase of the encode hot path for latency
// accounting. The split mirrors the paper's per-function breakdown: frame
// decision (lookahead), motion estimation and mode analysis, transform plus
// quantization plus reconstruction, entropy coding, and the in-loop
// deblocking filter.
type EncodeStage int

const (
	StageLookahead EncodeStage = iota // complexity estimation + frame typing
	StageME                           // motion search and intra/inter analysis
	StageTransform                    // prediction, transform, quant, reconstruction
	StageEntropy                      // macroblock syntax + residual coding
	StageDeblock                      // in-loop deblocking
	NumEncodeStages
)

// String returns the short stage label used in metric names.
func (s EncodeStage) String() string {
	switch s {
	case StageLookahead:
		return "lookahead"
	case StageME:
		return "me"
	case StageTransform:
		return "transform"
	case StageEntropy:
		return "entropy"
	case StageDeblock:
		return "deblock"
	}
	return "unknown"
}

// StageObserver receives the wall time spent in each encode stage. The
// lookahead stage is reported once per EncodeAll (it runs before the first
// frame); the others once per coded frame. Observation calls run on the
// EncodeAll goroutine.
type StageObserver interface {
	ObserveStage(stage EncodeStage, d time.Duration)
}

// SetStageObserver attaches a latency observer. The default (nil) keeps the
// hot path entirely free of timing calls — the only residual cost is one
// nil-check per stage boundary. Must be called before EncodeAll.
func (e *Encoder) SetStageObserver(o StageObserver) {
	e.stageObs = o
	e.stage = [NumEncodeStages]int64{}
}

// stageStart returns the stage timestamp, or the zero time when no observer
// is attached.
func (e *Encoder) stageStart() time.Time {
	if e.stageObs == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageEnd charges the time elapsed since stageStart to a stage.
func (e *Encoder) stageEnd(s EncodeStage, t0 time.Time) {
	if e.stageObs == nil {
		return
	}
	e.stage[s] += int64(time.Since(t0))
}

// flushStages reports and clears the accumulated stage times. Called once
// after the lookahead and once per coded frame.
func (e *Encoder) flushStages() {
	if e.stageObs == nil {
		return
	}
	for s := EncodeStage(0); s < NumEncodeStages; s++ {
		if ns := e.stage[s]; ns > 0 {
			e.stageObs.ObserveStage(s, time.Duration(ns))
		}
	}
	e.stage = [NumEncodeStages]int64{}
}
