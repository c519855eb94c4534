package tuning

import (
	"clmids/internal/anomaly"
	"clmids/internal/bpe"
	"clmids/internal/linalg"
	"clmids/internal/model"
	"clmids/internal/tensor"
)

// PCAScorer is the unsupervised §III detector lifted to raw command lines:
// embed with the frozen pre-trained encoder, score by PCA reconstruction
// error. It never tunes the backbone, so it scores through a persistent
// memoizing inference engine — repeated log lines skip the encoder and the
// projection — and Score is safe for concurrent use.
type PCAScorer struct {
	engine *Engine
	det    *anomaly.PCADetector
}

var (
	_ Scorer       = (*PCAScorer)(nil)
	_ Replicable   = (*PCAScorer)(nil)
	_ CacheStatser = (*PCAScorer)(nil)
)

// Replicate returns an independent replica sharing the frozen backbone and
// the fitted PCA detector; only the engine is replicated.
func (s *PCAScorer) Replicate() Scorer {
	return &PCAScorer{engine: s.engine.Clone(), det: s.det}
}

// CacheStats snapshots the serving engine's score-memo counters.
func (s *PCAScorer) CacheStats() CacheStats { return s.engine.CacheStats() }

// TrainPCA fits the unsupervised PCA detector on the baseline lines. No
// labels are needed; opts selects the retained components (the zero value
// keeps the paper's 95%).
func TrainPCA(enc *model.Encoder, tok *bpe.Tokenizer, lines []string, opts linalg.PCAOptions) (*PCAScorer, error) {
	engine := NewEngine(enc, tok, DefaultEngineConfig())
	emb, err := engine.EmbedLines(lines)
	if err != nil {
		return nil, err
	}
	det := &anomaly.PCADetector{Opts: opts}
	if err := det.Fit(emb); err != nil {
		return nil, err
	}
	return NewPCAScorer(engine, det), nil
}

// NewPCAScorer composes a scorer from an existing engine and an already
// fitted detector, for callers that size the engine themselves (e.g.
// bundle loading). The engine's encoder must be the one
// the detector was fitted over, and must stay frozen; the scorer owns the
// engine's memo, so do not serve another scorer from the same engine.
func NewPCAScorer(engine *Engine, det *anomaly.PCADetector) *PCAScorer {
	return &PCAScorer{engine: engine, det: det}
}

// Score implements Scorer: Eq. (1) reconstruction error under the frozen
// backbone.
func (s *PCAScorer) Score(lines []string) ([]float64, error) {
	return s.engine.Score(lines, FeatureMean, func(emb *tensor.Matrix) []float64 {
		return s.det.Scores(emb)
	})
}

// Detector exposes the fitted PCA model.
func (s *PCAScorer) Detector() *anomaly.PCADetector { return s.det }
