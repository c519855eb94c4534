// Package model implements the command-line language model of §II-B: a
// BERT-style transformer encoder over BPE token IDs, with a masked-language-
// model head for self-supervised pre-training, a [CLS] pooler, and helpers
// to extract per-command-line embeddings for the downstream detectors.
//
// Sequences are represented without padding: a batch is the concatenation of
// its sequences plus a slice of lengths, and the fused attention op never
// attends across sequence boundaries.
package model

import (
	"fmt"
)

// Config describes the encoder architecture. The zero value is not valid;
// use Default or BERTBase and adjust.
type Config struct {
	// VocabSize is the BPE vocabulary size (paper: 50 000).
	VocabSize int
	// MaxSeqLen is the maximum number of tokens per line (paper: 1024);
	// longer lines are trimmed by the tokenizer.
	MaxSeqLen int
	// Hidden is the embedding and residual width (paper: 768).
	Hidden int
	// Layers is the number of transformer blocks (paper: 12).
	Layers int
	// Heads is the number of attention heads per block (paper: 12).
	Heads int
	// FFN is the feed-forward intermediate width (paper: 3072).
	FFN int
	// LayerNormEps stabilizes normalization denominators.
	LayerNormEps float64
	// Dropout is applied to embeddings and residual branches during
	// training.
	Dropout float64
}

// Default returns a small single-CPU-friendly configuration used by the
// experiments at reduced scale.
func Default(vocabSize int) Config {
	return Config{
		VocabSize:    vocabSize,
		MaxSeqLen:    64,
		Hidden:       64,
		Layers:       2,
		Heads:        4,
		FFN:          128,
		LayerNormEps: 1e-5,
		Dropout:      0.1,
	}
}

// BERTBase returns the paper's exact architecture: 12 transformer blocks,
// 12 heads, hidden 768, sequence length 1024.
func BERTBase(vocabSize int) Config {
	return Config{
		VocabSize:    vocabSize,
		MaxSeqLen:    1024,
		Hidden:       768,
		Layers:       12,
		Heads:        12,
		FFN:          3072,
		LayerNormEps: 1e-12,
		Dropout:      0.1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.VocabSize < 6:
		return fmt.Errorf("model: VocabSize %d too small (need specials + symbols)", c.VocabSize)
	case c.MaxSeqLen < 2:
		return fmt.Errorf("model: MaxSeqLen %d < 2", c.MaxSeqLen)
	case c.Hidden <= 0 || c.Layers <= 0 || c.Heads <= 0 || c.FFN <= 0:
		return fmt.Errorf("model: non-positive dimension in %+v", c)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model: Hidden %d not divisible by Heads %d", c.Hidden, c.Heads)
	// The negated comparisons below also reject NaN, which a snapshot's
	// Config can carry.
	case !(c.Dropout >= 0 && c.Dropout < 1):
		return fmt.Errorf("model: Dropout %v outside [0,1)", c.Dropout)
	case !(c.LayerNormEps > 0):
		return fmt.Errorf("model: LayerNormEps must be positive")
	}
	return nil
}

// Batch is a padding-free batch: IDs concatenates the token IDs of all
// sequences; Lens[i] is the token count of sequence i.
type Batch struct {
	IDs  []int
	Lens []int
}

// NewBatch assembles a batch from per-sequence token ID slices, dropping
// empty sequences.
func NewBatch(seqs [][]int) Batch {
	var b Batch
	for _, s := range seqs {
		if len(s) == 0 {
			continue
		}
		b.IDs = append(b.IDs, s...)
		b.Lens = append(b.Lens, len(s))
	}
	return b
}

// Size returns the number of sequences.
func (b Batch) Size() int { return len(b.Lens) }

// Tokens returns the total token count.
func (b Batch) Tokens() int { return len(b.IDs) }

// Validate checks internal consistency and ID ranges.
func (b Batch) Validate(vocabSize, maxSeqLen int) error {
	total := 0
	for i, l := range b.Lens {
		if l <= 0 {
			return fmt.Errorf("model: batch sequence %d has length %d", i, l)
		}
		if l > maxSeqLen {
			return fmt.Errorf("model: batch sequence %d length %d exceeds max %d", i, l, maxSeqLen)
		}
		total += l
	}
	if total != len(b.IDs) {
		return fmt.Errorf("model: batch lens sum %d != %d ids", total, len(b.IDs))
	}
	for i, id := range b.IDs {
		if id < 0 || id >= vocabSize {
			return fmt.Errorf("model: token %d id %d outside vocab %d", i, id, vocabSize)
		}
	}
	return nil
}

// CLSIndices returns the row index of each sequence's first token (the
// [CLS] position) within the concatenated hidden-state matrix.
func (b Batch) CLSIndices() []int {
	out := make([]int, len(b.Lens))
	off := 0
	for i, l := range b.Lens {
		out[i] = off
		off += l
	}
	return out
}
