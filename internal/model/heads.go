package model

import (
	"math/rand"

	"clmids/internal/nn"
	"clmids/internal/tensor"
)

// MLMHead is the masked-language-model prediction head: a dense transform
// with GELU and layer norm, followed by a decoder whose weight matrix is
// tied to the token-embedding table (plus a free output bias).
type MLMHead struct {
	Dense *nn.Linear
	Norm  *nn.LayerNorm
	Bias  *tensor.Tensor // [1, vocab]
}

// NewMLMHead builds the head for the given architecture.
func NewMLMHead(cfg Config, rng *rand.Rand) *MLMHead {
	return &MLMHead{
		Dense: nn.NewLinear(cfg.Hidden, cfg.Hidden, nn.TruncatedNormal{Std: 0.02}, rng),
		Norm:  nn.NewLayerNorm(cfg.Hidden, cfg.LayerNormEps),
		Bias:  tensor.Var(tensor.NewMatrix(1, cfg.VocabSize)),
	}
}

// Logits maps hidden states [n, hidden] to vocabulary logits [n, vocab],
// tying the decoder to enc's token embeddings so pre-training shapes the
// embedding table from both directions.
func (h *MLMHead) Logits(enc *Encoder, hidden *tensor.Tensor) *tensor.Tensor {
	x := tensor.GELU(h.Dense.Forward(hidden))
	x = h.Norm.Forward(x)
	return tensor.AddRowVec(tensor.MatMulT(x, tensor.Transpose(enc.TokEmb.W)), h.Bias)
}

// Params implements nn.Layer.
func (h *MLMHead) Params() []*tensor.Tensor {
	out := nn.CollectParams(h.Dense, h.Norm)
	return append(out, h.Bias)
}

// Model bundles the encoder with its pre-training head so the pair can be
// trained, saved, and loaded as a unit.
type Model struct {
	Encoder *Encoder
	MLM     *MLMHead
}

// NewModel constructs a randomly initialized model.
func NewModel(cfg Config, rng *rand.Rand) (*Model, error) {
	enc, err := NewEncoder(cfg, rng)
	if err != nil {
		return nil, err
	}
	return &Model{Encoder: enc, MLM: NewMLMHead(cfg, rng)}, nil
}

// Params implements nn.Layer.
func (m *Model) Params() []*tensor.Tensor {
	return append(m.Encoder.Params(), m.MLM.Params()...)
}

// MLMLoss computes the masked-LM cross-entropy for a batch whose labels
// hold the original token ID at masked positions and ignoreIndex elsewhere.
func (m *Model) MLMLoss(batch Batch, labels []int, ignoreIndex int, train bool, rng *rand.Rand) (*tensor.Tensor, error) {
	h, err := m.Encoder.Forward(batch, train, rng)
	if err != nil {
		return nil, err
	}
	logits := m.MLM.Logits(m.Encoder, h)
	return tensor.CrossEntropy(logits, labels, ignoreIndex), nil
}
