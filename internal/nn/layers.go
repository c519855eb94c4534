// Package nn provides neural-network building blocks over the tensor
// autograd engine: parameterized layers, weight initializers, the AdamW
// optimizer, gradient clipping, and a warmup-linear learning-rate schedule.
//
// Layers expose their parameters through the Params method so optimizers
// and serialization can enumerate them uniformly.
package nn

import (
	"math"
	"math/rand"

	"clmids/internal/tensor"
)

// Layer is any module with trainable parameters.
type Layer interface {
	// Params returns the layer's parameter tensors. The slice and its order
	// are stable for the lifetime of the layer.
	Params() []*tensor.Tensor
}

// Linear is a fully connected layer: y = x·W + b.
type Linear struct {
	W *tensor.Tensor // [in, out]
	B *tensor.Tensor // [1, out]
}

// NewLinear creates a Linear layer initialized with init.
func NewLinear(in, out int, init Initializer, rng *rand.Rand) *Linear {
	w := tensor.NewMatrix(in, out)
	init.Init(w, in, out, rng)
	return &Linear{
		W: tensor.Var(w),
		B: tensor.Var(tensor.NewMatrix(1, out)),
	}
}

// Forward applies the layer to x [n, in] producing [n, out].
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.AddRowVec(tensor.MatMulT(x, l.W), l.B)
}

// Params implements Layer.
func (l *Linear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// In returns the input width.
func (l *Linear) In() int { return l.W.Val.Rows }

// Out returns the output width.
func (l *Linear) Out() int { return l.W.Val.Cols }

// LayerNorm holds the learned scale and shift of a layer-normalization.
type LayerNorm struct {
	Gamma *tensor.Tensor // [1, n]
	Beta  *tensor.Tensor // [1, n]
	Eps   float64
}

// NewLayerNorm creates a LayerNorm over width n with gamma=1, beta=0.
func NewLayerNorm(n int, eps float64) *LayerNorm {
	g := tensor.NewMatrix(1, n)
	g.Fill(1)
	return &LayerNorm{
		Gamma: tensor.Var(g),
		Beta:  tensor.Var(tensor.NewMatrix(1, n)),
		Eps:   eps,
	}
}

// Forward normalizes each row of x.
func (l *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.LayerNorm(x, l.Gamma, l.Beta, l.Eps)
}

// ForwardAdd normalizes each row of x + r as one fused node, the
// residual add and LayerNorm of a post-LN block.
func (l *LayerNorm) ForwardAdd(x, r *tensor.Tensor) *tensor.Tensor {
	return tensor.AddLayerNorm(x, r, l.Gamma, l.Beta, l.Eps)
}

// Params implements Layer.
func (l *LayerNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{l.Gamma, l.Beta} }

// Embedding is a lookup table mapping integer IDs to dense rows.
type Embedding struct {
	W *tensor.Tensor // [vocab, dim]
}

// NewEmbedding creates an embedding table initialized with init.
func NewEmbedding(vocab, dim int, init Initializer, rng *rand.Rand) *Embedding {
	w := tensor.NewMatrix(vocab, dim)
	init.Init(w, vocab, dim, rng)
	return &Embedding{W: tensor.Var(w)}
}

// Forward gathers the rows for ids.
func (e *Embedding) Forward(ids []int) *tensor.Tensor {
	return tensor.GatherRows(e.W, ids)
}

// Params implements Layer.
func (e *Embedding) Params() []*tensor.Tensor { return []*tensor.Tensor{e.W} }

// Vocab returns the table height.
func (e *Embedding) Vocab() int { return e.W.Val.Rows }

// Dim returns the embedding width.
func (e *Embedding) Dim() int { return e.W.Val.Cols }

// MLP is a two-layer perceptron with a configurable hidden activation —
// the classification head of §IV-B ("a two-layer perceptron initialized by
// Kaiming's method").
type MLP struct {
	L1, L2     *Linear
	Activation func(*tensor.Tensor) *tensor.Tensor
}

// NewMLP builds in -> hidden -> out with ReLU and Kaiming initialization,
// matching the paper's head configuration.
func NewMLP(in, hidden, out int, rng *rand.Rand) *MLP {
	return &MLP{
		L1:         NewLinear(in, hidden, KaimingNormal{}, rng),
		L2:         NewLinear(hidden, out, KaimingNormal{}, rng),
		Activation: tensor.ReLU,
	}
}

// Forward applies both layers.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	return m.L2.Forward(m.Activation(m.L1.Forward(x)))
}

// Params implements Layer.
func (m *MLP) Params() []*tensor.Tensor {
	return append(m.L1.Params(), m.L2.Params()...)
}

// Initializer fills a weight matrix before training.
type Initializer interface {
	// Init fills w in place. fanIn and fanOut describe the layer geometry.
	Init(w *tensor.Matrix, fanIn, fanOut int, rng *rand.Rand)
}

// KaimingNormal is He initialization: N(0, sqrt(2/fanIn)), designed for
// ReLU networks (the paper's classification head, §V).
type KaimingNormal struct{}

// Init implements Initializer.
func (KaimingNormal) Init(w *tensor.Matrix, fanIn, _ int, rng *rand.Rand) {
	std := math.Sqrt(2 / float64(fanIn))
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * std
	}
}

// XavierUniform is Glorot initialization: U(-a, a), a = sqrt(6/(fanIn+fanOut)).
type XavierUniform struct{}

// Init implements Initializer.
func (XavierUniform) Init(w *tensor.Matrix, fanIn, fanOut int, rng *rand.Rand) {
	a := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range w.Data {
		w.Data[i] = (rng.Float64()*2 - 1) * a
	}
}

// TruncatedNormal is BERT-style initialization: N(0, std) resampled into
// [-2std, 2std].
type TruncatedNormal struct {
	Std float64
}

// Init implements Initializer.
func (tn TruncatedNormal) Init(w *tensor.Matrix, _, _ int, rng *rand.Rand) {
	std := tn.Std
	if std == 0 {
		std = 0.02
	}
	for i := range w.Data {
		for {
			v := rng.NormFloat64() * std
			if math.Abs(v) <= 2*std {
				w.Data[i] = v
				break
			}
		}
	}
}

// Zeros fills with zeros (bias-style init).
type Zeros struct{}

// Init implements Initializer.
func (Zeros) Init(w *tensor.Matrix, _, _ int, _ *rand.Rand) { w.Zero() }

// CountParams returns the total number of scalar parameters in layers.
func CountParams(layers ...Layer) int {
	n := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			n += len(p.Val.Data)
		}
	}
	return n
}

// CollectParams flattens the parameters of several layers, preserving order.
func CollectParams(layers ...Layer) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range layers {
		out = append(out, l.Params()...)
	}
	return out
}
