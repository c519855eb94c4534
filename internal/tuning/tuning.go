// Package tuning implements the paper's four ways of adapting the
// pre-trained command-line language model to intrusion detection with noisy
// supervision (§IV):
//
//   - reconstruction-based tuning (§IV-A): alternate between refitting the
//     PCA projection W and tuning f(·) to maximize the share of
//     reconstruction error carried by intrusion-labeled lines (Eq. 2);
//   - classification-based tuning (§IV-B): a two-layer perceptron head on
//     the [CLS] embedding, backbone frozen;
//   - multi-line classification (§IV-C): the same head over temporally
//     contiguous command lines of one user joined with ";";
//   - retrieval-based detection (§IV-D): average similarity to the nearest
//     malicious training neighbours, no tuning at all.
//
// Every method satisfies Scorer: higher scores mean more intrusion-like.
package tuning

import (
	"fmt"

	"clmids/internal/bpe"
	"clmids/internal/model"
	"clmids/internal/tensor"
)

// Scorer scores raw command lines for intrusion likelihood.
type Scorer interface {
	// Score returns one score per line; higher = more suspicious.
	Score(lines []string) ([]float64, error)
}

// Replicable is implemented by scorers that can stamp out independent
// replicas without re-tuning: the replica shares every frozen artifact
// (backbone weights, trained head, fitted PCA / retrieval index /
// standardizer) and replicates only mutable serving state — the inference
// engine's scratch pool and score memo. Replicas therefore score
// byte-identically to the original while never contending on a lock, which
// is what lets a sharded streaming detector scale across cores.
type Replicable interface {
	Scorer
	// Replicate returns an independent same-scoring replica.
	Replicate() Scorer
}

// CacheStatser is implemented by scorers whose serving path runs through
// an engine's score memo; services surface the stats per shard so load
// skew and memo effectiveness stay observable.
type CacheStatser interface {
	// CacheStats snapshots the scorer's score-memo counters.
	CacheStats() CacheStats
}

// Replicas returns n scorers that score identically to s: s itself first,
// then n-1 replicas. It fails when n > 1 and s does not implement
// Replicable (a custom scorer with shared mutable state cannot be safely
// fanned out).
func Replicas(s Scorer, n int) ([]Scorer, error) {
	if n < 1 {
		n = 1
	}
	out := make([]Scorer, 0, n)
	out = append(out, s)
	if n == 1 {
		return out, nil
	}
	r, ok := s.(Replicable)
	if !ok {
		return nil, fmt.Errorf("tuning: scorer %T is not replicable; cannot build %d replicas", s, n)
	}
	for len(out) < n {
		out = append(out, r.Replicate())
	}
	return out, nil
}

// embedBatchSize bounds encoder forward batches during feature extraction.
const embedBatchSize = 32

// EmbedLines runs the (frozen) encoder over lines and returns mean-pooled
// embeddings, one row per line — the f(t) of Eq. (1); empty input yields a
// 0-row matrix (a streaming flush of an empty window is normal, not an
// error). Scoring goes through the tape-free batched inference engine
// (deduped, length-bucketed, parallel) on a transient engine, and engine
// embeddings are never cached, so an encoder tuned between calls is always
// read fresh.
func EmbedLines(enc *model.Encoder, tok *bpe.Tokenizer, lines []string) (*tensor.Matrix, error) {
	return NewEngine(enc, tok, DefaultEngineConfig()).EmbedLines(lines)
}

// CLSLines runs the (frozen) encoder over lines and returns the [CLS]
// hidden states — the classification head's input. Like EmbedLines it runs
// on a transient inference engine.
func CLSLines(enc *model.Encoder, tok *bpe.Tokenizer, lines []string) (*tensor.Matrix, error) {
	return NewEngine(enc, tok, DefaultEngineConfig()).CLSLines(lines)
}

// EmbedLinesTape is the original autograd-tape extraction path, kept as the
// golden reference the engine is tested against.
func EmbedLinesTape(enc *model.Encoder, tok *bpe.Tokenizer, lines []string) (*tensor.Matrix, error) {
	return extract(enc, tok, lines, func(b model.Batch) (*tensor.Tensor, error) {
		return enc.MeanPoolTensor(b, false, nil)
	})
}

// CLSLinesTape is the tape-path reference for CLSLines; see EmbedLinesTape.
func CLSLinesTape(enc *model.Encoder, tok *bpe.Tokenizer, lines []string) (*tensor.Matrix, error) {
	return extract(enc, tok, lines, func(b model.Batch) (*tensor.Tensor, error) {
		return enc.CLSTensor(b, false, nil)
	})
}

func extract(enc *model.Encoder, tok *bpe.Tokenizer, lines []string,
	fn func(model.Batch) (*tensor.Tensor, error)) (*tensor.Matrix, error) {
	cfg := enc.Config()
	// Empty input mirrors the engine path: a 0-row matrix, not an error.
	out := tensor.NewMatrix(len(lines), cfg.Hidden)
	if len(lines) == 0 {
		return out, nil
	}
	for at := 0; at < len(lines); at += embedBatchSize {
		end := at + embedBatchSize
		if end > len(lines) {
			end = len(lines)
		}
		seqs := make([][]int, 0, end-at)
		for _, line := range lines[at:end] {
			seqs = append(seqs, tok.EncodeForModel(line, cfg.MaxSeqLen))
		}
		t, err := fn(model.NewBatch(seqs))
		if err != nil {
			return nil, fmt.Errorf("tuning: embedding lines %d..%d: %w", at, end, err)
		}
		if t.Rows() != end-at {
			return nil, fmt.Errorf("tuning: batch produced %d rows for %d lines", t.Rows(), end-at)
		}
		for i := 0; i < t.Rows(); i++ {
			copy(out.Row(at+i), t.Val.Row(i))
		}
	}
	return out, nil
}

// checkSupervision validates a labeled training set and counts positives.
func checkSupervision(lines []string, labels []bool) (positives int, err error) {
	if len(lines) == 0 {
		return 0, fmt.Errorf("tuning: empty training set")
	}
	if len(lines) != len(labels) {
		return 0, fmt.Errorf("tuning: %d lines but %d labels", len(lines), len(labels))
	}
	for _, y := range labels {
		if y {
			positives++
		}
	}
	if positives == 0 {
		return 0, fmt.Errorf("tuning: supervision contains no positive labels")
	}
	if positives == len(lines) {
		return 0, fmt.Errorf("tuning: supervision contains no negative labels")
	}
	return positives, nil
}
