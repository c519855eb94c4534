package tuning

import (
	"clmids/internal/anomaly"
	"clmids/internal/bpe"
	"clmids/internal/model"
)

// RetrievalScorer is the §IV-D method lifted to raw command lines: embed
// with the frozen pre-trained encoder, then score by average cosine
// similarity to the k nearest malicious-labeled training embeddings. It
// requires no tuning of the language model, so it holds a persistent
// inference engine whose score memo survives across Score calls — repeated
// lines in a production log stream skip the encoder and the index scan.
type RetrievalScorer struct {
	engine *Engine
	ret    *anomaly.Retrieval
}

var (
	_ Scorer       = (*RetrievalScorer)(nil)
	_ Replicable   = (*RetrievalScorer)(nil)
	_ CacheStatser = (*RetrievalScorer)(nil)
)

// Replicate returns an independent replica sharing the frozen backbone and
// the fitted (read-only) retrieval index; only the engine is replicated.
func (r *RetrievalScorer) Replicate() Scorer {
	return &RetrievalScorer{engine: r.engine.Clone(), ret: r.ret}
}

// CacheStats snapshots the serving engine's score-memo counters.
func (r *RetrievalScorer) CacheStats() CacheStats { return r.engine.CacheStats() }

// TrainRetrieval indexes the labeled training lines. k=1 reproduces the
// paper's 1NN setting.
func TrainRetrieval(enc *model.Encoder, tok *bpe.Tokenizer, lines []string, labels []bool, k int) (*RetrievalScorer, error) {
	if _, err := checkSupervision(lines, labels); err != nil {
		return nil, err
	}
	engine := NewEngine(enc, tok, DefaultEngineConfig())
	emb, err := engine.EmbedLines(lines)
	if err != nil {
		return nil, err
	}
	ret := anomaly.NewRetrieval(k)
	if err := ret.FitLabeled(emb, labels); err != nil {
		return nil, err
	}
	return &RetrievalScorer{engine: engine, ret: ret}, nil
}

// Score implements Scorer: memo misses are embedded on the batched
// inference engine and their kNN scans fan out across cores.
func (r *RetrievalScorer) Score(lines []string) ([]float64, error) {
	return r.engine.Score(lines, FeatureMean, r.ret.ScoreBatch)
}

// Retrieval exposes the underlying index (for the majority-vote ablation).
func (r *RetrievalScorer) Retrieval() *anomaly.Retrieval { return r.ret }
