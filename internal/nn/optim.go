package nn

import (
	"math"

	"clmids/internal/tensor"
)

// AdamW is Adam with decoupled weight decay, the optimizer the paper uses
// for fine-tuning (lr 5e-5) and that we also use for pre-training.
type AdamW struct {
	params []*tensor.Tensor
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	decay  float64

	step int
	m    []*tensor.Matrix
	v    []*tensor.Matrix
	// noDecay marks parameters excluded from weight decay (biases, norms).
	noDecay []bool
}

// NewAdamW creates an AdamW optimizer with the standard betas (0.9, 0.999).
func NewAdamW(params []*tensor.Tensor, lr, weightDecay float64) *AdamW {
	a := &AdamW{
		params:  params,
		lr:      lr,
		beta1:   0.9,
		beta2:   0.999,
		eps:     1e-8,
		decay:   weightDecay,
		m:       make([]*tensor.Matrix, len(params)),
		v:       make([]*tensor.Matrix, len(params)),
		noDecay: make([]bool, len(params)),
	}
	for i, p := range params {
		a.m[i] = tensor.NewMatrix(p.Val.Rows, p.Val.Cols)
		a.v[i] = tensor.NewMatrix(p.Val.Rows, p.Val.Cols)
		// Standard practice: 1-row parameters (biases, layer-norm scales)
		// are not decayed.
		a.noDecay[i] = p.Val.Rows == 1
	}
	return a
}

// Step applies one update and clears the gradients.
func (a *AdamW) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.beta2, float64(a.step))
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad.Data {
			m.Data[j] = a.beta1*m.Data[j] + (1-a.beta1)*g
			v.Data[j] = a.beta2*v.Data[j] + (1-a.beta2)*g*g
			mh := m.Data[j] / bc1
			vh := v.Data[j] / bc2
			upd := mh / (math.Sqrt(vh) + a.eps)
			if a.decay != 0 && !a.noDecay[i] {
				upd += a.decay * p.Val.Data[j]
			}
			p.Val.Data[j] -= a.lr * upd
		}
		p.ZeroGrad()
	}
}

// SetLR changes the learning rate (driven by a WarmupLinear schedule).
func (a *AdamW) SetLR(lr float64) { a.lr = lr }

// LR returns the current learning rate.
func (a *AdamW) LR() float64 { return a.lr }

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm; returns the pre-clip norm.
func ClipGradNorm(params []*tensor.Tensor, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			if p.Grad != nil {
				p.Grad.ScaleInPlace(scale)
			}
		}
	}
	return norm
}

// WarmupLinear ramps linearly from 0 to Peak over Warmup steps, then decays
// linearly to zero at Total steps — the standard BERT schedule.
type WarmupLinear struct {
	Peak   float64
	Warmup int
	Total  int
}

// At returns the learning rate for 0-based step.
func (s WarmupLinear) At(step int) float64 {
	if s.Warmup > 0 && step < s.Warmup {
		return s.Peak * float64(step+1) / float64(s.Warmup)
	}
	if s.Total <= s.Warmup {
		return s.Peak
	}
	rem := float64(s.Total-step) / float64(s.Total-s.Warmup)
	if rem < 0 {
		rem = 0
	}
	return s.Peak * rem
}
