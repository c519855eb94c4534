package model

import (
	"fmt"
	"math/rand"
	"sync"

	"clmids/internal/nn"
	"clmids/internal/tensor"
)

// Block is one transformer layer: multi-head self-attention and a
// position-wise feed-forward network, each wrapped in a residual connection
// followed by layer normalization (post-LN, as in BERT).
type Block struct {
	WQ, WK, WV, WO *nn.Linear
	AttnNorm       *nn.LayerNorm
	FF1, FF2       *nn.Linear
	FFNorm         *nn.LayerNorm
}

func newBlock(cfg Config, rng *rand.Rand) *Block {
	init := nn.TruncatedNormal{Std: 0.02}
	return &Block{
		WQ:       nn.NewLinear(cfg.Hidden, cfg.Hidden, init, rng),
		WK:       nn.NewLinear(cfg.Hidden, cfg.Hidden, init, rng),
		WV:       nn.NewLinear(cfg.Hidden, cfg.Hidden, init, rng),
		WO:       nn.NewLinear(cfg.Hidden, cfg.Hidden, init, rng),
		AttnNorm: nn.NewLayerNorm(cfg.Hidden, cfg.LayerNormEps),
		FF1:      nn.NewLinear(cfg.Hidden, cfg.FFN, init, rng),
		FF2:      nn.NewLinear(cfg.FFN, cfg.Hidden, init, rng),
		FFNorm:   nn.NewLayerNorm(cfg.Hidden, cfg.LayerNormEps),
	}
}

// Params implements nn.Layer.
func (b *Block) Params() []*tensor.Tensor {
	return nn.CollectParams(b.WQ, b.WK, b.WV, b.WO, b.AttnNorm, b.FF1, b.FF2, b.FFNorm)
}

// Encoder is the BERT-style command-line language model backbone.
type Encoder struct {
	cfg Config

	TokEmb  *nn.Embedding
	PosEmb  *nn.Embedding
	EmbNorm *nn.LayerNorm
	Blocks  []*Block

	// lowered caches the int8 serving weights (see precision.go); it is
	// built once, lazily, after the weights are frozen and never
	// invalidated.
	lowOnce sync.Once
	lowered *LowWeights
}

// NewEncoder constructs a randomly initialized encoder.
func NewEncoder(cfg Config, rng *rand.Rand) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	init := nn.TruncatedNormal{Std: 0.02}
	e := &Encoder{
		cfg:     cfg,
		TokEmb:  nn.NewEmbedding(cfg.VocabSize, cfg.Hidden, init, rng),
		PosEmb:  nn.NewEmbedding(cfg.MaxSeqLen, cfg.Hidden, init, rng),
		EmbNorm: nn.NewLayerNorm(cfg.Hidden, cfg.LayerNormEps),
		Blocks:  make([]*Block, cfg.Layers),
	}
	for i := range e.Blocks {
		e.Blocks[i] = newBlock(cfg, rng)
	}
	return e, nil
}

// Config returns the architecture description.
func (e *Encoder) Config() Config { return e.cfg }

// Params implements nn.Layer; the order is stable and is the serialization
// order.
func (e *Encoder) Params() []*tensor.Tensor {
	out := nn.CollectParams(e.TokEmb, e.PosEmb, e.EmbNorm)
	for _, b := range e.Blocks {
		out = append(out, b.Params()...)
	}
	return out
}

// Forward runs the encoder over a batch and returns the hidden states,
// shaped [batch.Tokens(), Hidden]. When train is true, dropout is applied
// using rng (which must be non-nil if Config.Dropout > 0).
func (e *Encoder) Forward(batch Batch, train bool, rng *rand.Rand) (*tensor.Tensor, error) {
	if err := batch.Validate(e.cfg.VocabSize, e.cfg.MaxSeqLen); err != nil {
		return nil, err
	}
	if batch.Size() == 0 {
		return nil, fmt.Errorf("model: empty batch")
	}
	drop := 0.0
	if train {
		drop = e.cfg.Dropout
		if drop > 0 && rng == nil {
			return nil, fmt.Errorf("model: training forward with dropout needs a rand source")
		}
	}

	positions := make([]int, 0, batch.Tokens())
	for _, l := range batch.Lens {
		for p := 0; p < l; p++ {
			positions = append(positions, p)
		}
	}

	x := tensor.Add(e.TokEmb.Forward(batch.IDs), e.PosEmb.Forward(positions))
	x = e.EmbNorm.Forward(x)
	x = tensor.Dropout(x, drop, rng)

	for _, blk := range e.Blocks {
		q := blk.WQ.Forward(x)
		k := blk.WK.Forward(x)
		v := blk.WV.Forward(x)
		attn := tensor.Attention(q, k, v, e.cfg.Heads, batch.Lens)
		attn = blk.WO.Forward(attn)
		attn = tensor.Dropout(attn, drop, rng)
		x = blk.AttnNorm.Forward(tensor.Add(x, attn))

		ff := blk.FF2.Forward(tensor.GELU(blk.FF1.Forward(x)))
		ff = tensor.Dropout(ff, drop, rng)
		x = blk.FFNorm.Forward(tensor.Add(x, ff))
	}
	return x, nil
}

// EmbedLines produces one embedding per sequence by average pooling all
// token hidden states — the command-line embedding f(t) of Eq. (1).
// The returned matrix is detached from the graph.
func (e *Encoder) EmbedLines(batch Batch) (*tensor.Matrix, error) {
	h, err := e.Forward(batch, false, nil)
	if err != nil {
		return nil, err
	}
	return tensor.MeanPool(h, batch.Lens).Val, nil
}

// MeanPoolTensor returns the differentiable mean-pooled embeddings; used by
// reconstruction-based tuning, which backpropagates through f(t).
func (e *Encoder) MeanPoolTensor(batch Batch, train bool, rng *rand.Rand) (*tensor.Tensor, error) {
	h, err := e.Forward(batch, train, rng)
	if err != nil {
		return nil, err
	}
	return tensor.MeanPool(h, batch.Lens), nil
}

// CLSTensor returns the hidden state of each sequence's [CLS] token;
// it is the input of the classification head (§IV-B).
func (e *Encoder) CLSTensor(batch Batch, train bool, rng *rand.Rand) (*tensor.Tensor, error) {
	h, err := e.Forward(batch, train, rng)
	if err != nil {
		return nil, err
	}
	return tensor.GatherRows(h, batch.CLSIndices()), nil
}
