package tensor

import (
	"fmt"
	"math"
)

// softmaxInto writes softmax(src) into dst (same length; dst may alias
// src), max-shifted: the max and the sum run in j order, the exps on
// expF64 (expShiftSum).
func softmaxInto(src, dst []float64) {
	maxv := math.Inf(-1)
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	inv := 1 / expShiftSum(src, dst, maxv)
	for j := range dst {
		dst[j] *= inv
	}
}

// LayerNorm normalizes each row of a to zero mean and unit variance, then
// applies the learned scale gamma and shift beta (both 1×n).
func LayerNorm(a, gamma, beta *Tensor, eps float64) *Tensor {
	return AddLayerNorm(a, nil, gamma, beta, eps)
}

// AddLayerNorm is LayerNorm(a + r) as one node (r may be nil), its value
// from InferAddLayerNormInto's kernel. The kernel adds r into a clone of
// a, since a's value also feeds other nodes. Backward recomputes
// x̂ = (sum − mean)·(1/σ) from the saved sum and row stats, the forward's
// own expression, and adds the same dx into a and r.
func AddLayerNorm(a, r, gamma, beta *Tensor, eps float64) *Tensor {
	sum, rv := a.Val, (*Matrix)(nil)
	if r != nil {
		sum, rv = a.Val.Clone(), r.Val
	}
	n := sum.Cols
	val := NewMatrix(sum.Rows, n)
	stats := make([]float64, 2*sum.Rows) // row i's mean and 1/σ
	addLayerNormInto(sum, rv, gamma.Val, beta.Val, eps, val, stats)
	var out *Tensor
	out = newNode("layernorm", val, func() {
		xr := make([]float64, n) // row i's x̂
		for i := 0; i < out.Grad.Rows; i++ {
			gy := out.Grad.Row(i)
			mean, is := stats[2*i], stats[2*i+1]
			for j, v := range sum.Row(i) {
				xr[j] = (v - mean) * is
			}
			if gamma.needGrad {
				gg := gamma.ensureGrad()
				for j := range gy {
					gg.Data[j] += gy[j] * xr[j]
				}
			}
			if beta.needGrad {
				gb := beta.ensureGrad()
				for j := range gy {
					gb.Data[j] += gy[j]
				}
			}
			if !a.needGrad && (r == nil || !r.needGrad) {
				continue
			}
			// dx = (1/σ) * (dy*γ - mean(dy*γ) - x̂ * mean(dy*γ*x̂))
			m1, m2 := 0.0, 0.0
			for j := range gy {
				t := gy[j] * gamma.Val.Data[j]
				m1 += t
				m2 += t * xr[j]
			}
			m1 /= float64(n)
			m2 /= float64(n)
			for _, in := range [2]*Tensor{a, r} {
				if in == nil || !in.needGrad {
					continue
				}
				g := in.ensureGrad().Row(i)
				for j := range gy {
					g[j] += is * (gy[j]*gamma.Val.Data[j] - m1 - xr[j]*m2)
				}
			}
		}
	}, a, r, gamma, beta)
	return out
}

// CrossEntropy computes the mean negative log-likelihood of the labels given
// row logits. Rows whose label equals ignoreIndex contribute nothing (used
// by masked-LM training, where unmasked positions are ignored). Returns a
// 1×1 tensor. When every label is ignored the loss is 0 with zero gradient.
func CrossEntropy(logits *Tensor, labels []int, ignoreIndex int) *Tensor {
	if len(labels) != logits.Val.Rows {
		panic(fmt.Sprintf("tensor: CrossEntropy %d labels for %d rows", len(labels), logits.Val.Rows))
	}
	probs := NewMatrix(logits.Val.Rows, logits.Val.Cols)
	count := 0
	loss := 0.0
	for i, lab := range labels {
		if lab == ignoreIndex {
			continue
		}
		if lab < 0 || lab >= logits.Val.Cols {
			panic(fmt.Sprintf("tensor: CrossEntropy label %d out of %d classes", lab, logits.Val.Cols))
		}
		softmaxInto(logits.Val.Row(i), probs.Row(i))
		p := probs.At(i, lab)
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
		count++
	}
	val := NewMatrix(1, 1)
	if count > 0 {
		val.Data[0] = loss / float64(count)
	}
	labs := make([]int, len(labels))
	copy(labs, labels)
	var out *Tensor
	out = newNode("xent", val, func() {
		if !logits.needGrad || count == 0 {
			return
		}
		g := logits.ensureGrad()
		scale := out.Grad.Data[0] / float64(count)
		for i, lab := range labs {
			if lab == ignoreIndex {
				continue
			}
			grow := g.Row(i)
			prow := probs.Row(i)
			for j, p := range prow {
				grow[j] += scale * p
			}
			grow[lab] -= scale
		}
	}, logits)
	return out
}

// MeanPool averages token rows into one row per segment: x is
// [sum(lens), n] where segment s owns lens[s] consecutive rows; the result
// is [len(lens), n], its value from InferMeanPoolInto. Rows beyond a
// segment's length do not exist (callers pass only real tokens). This is
// the command-line embedding f(t) used by the PCA detector (§III).
func MeanPool(x *Tensor, lens []int) *Tensor {
	val := NewMatrix(len(lens), x.Val.Cols)
	InferMeanPoolInto(x.Val, lens, val, 0)
	segLens := append([]int(nil), lens...)
	var out *Tensor
	out = newNode("meanpool", val, func() {
		if !x.needGrad {
			return
		}
		g := x.ensureGrad()
		off := 0
		for s, l := range segLens {
			inv := 1 / float64(l)
			grow := out.Grad.Row(s)
			for r := off; r < off+l; r++ {
				dst := g.Row(r)
				for j, v := range grow {
					dst[j] += v * inv
				}
			}
			off += l
		}
	}, x)
	return out
}

// Attention is the fused multi-head scaled-dot-product attention used by the
// transformer encoder. q, k, v are [sum(lens), hidden] where each sequence s
// owns lens[s] consecutive rows. heads must divide hidden. The output has
// the same shape as q. Attention never crosses sequence boundaries, which
// implements per-line isolation without padding. The value comes from
// InferAttentionInto's kernel, run once per sequence on its rows; the
// post-softmax matrices it leaves in its scores scratch are kept for
// backward.
func Attention(q, k, v *Tensor, heads int, lens []int) *Tensor {
	maxS := checkAttention(q.Val, k.Val, v.Val, heads, lens)
	hidden := q.Val.Cols
	d := hidden / heads
	scale := 1 / math.Sqrt(float64(d))

	val := NewMatrix(q.Val.Rows, hidden)
	// attn[s] holds sequence s's post-softmax matrices, head h's S×S block
	// at [h·S², (h+1)·S²).
	attn := make([][]float64, len(lens))
	work := make([]float64, AttentionWorkLen(maxS, hidden))
	off := 0
	for s, S := range lens {
		rows := func(m *Matrix) *Matrix {
			return &Matrix{Rows: S, Cols: hidden, Data: m.Data[off*hidden : (off+S)*hidden]}
		}
		attn[s] = make([]float64, heads*S*S)
		attentionF64(rows(q.Val), rows(k.Val), rows(v.Val), heads, lens[s:s+1], attn[s], work, rows(val))
		off += S
	}
	segLens := append([]int(nil), lens...)

	var out *Tensor
	out = newNode("attention", val, func() {
		var gq, gk, gv *Matrix
		if q.needGrad {
			gq = q.ensureGrad()
		}
		if k.needGrad {
			gk = k.ensureGrad()
		}
		if v.needGrad {
			gv = v.ensureGrad()
		}
		off := 0
		dA := make([]float64, 0)
		for s, S := range segLens {
			if cap(dA) < S*S {
				dA = make([]float64, S*S)
			}
			dA = dA[:S*S]
			for h := 0; h < heads; h++ {
				hOff := h * d
				A := attn[s][h*S*S : (h+1)*S*S]
				// dA = dOut·Vᵀ ; dV += Aᵀ·dOut
				for i := 0; i < S; i++ {
					gorow := out.Grad.Row(off + i)[hOff : hOff+d]
					darow := dA[i*S : (i+1)*S]
					for j := 0; j < S; j++ {
						vrow := v.Val.Row(off + j)[hOff : hOff+d]
						dot := 0.0
						for c := 0; c < d; c++ {
							dot += gorow[c] * vrow[c]
						}
						darow[j] = dot
					}
					if gv != nil {
						arow := A[i*S : (i+1)*S]
						for j, a := range arow {
							if a == 0 {
								continue
							}
							gvrow := gv.Row(off + j)[hOff : hOff+d]
							for c := 0; c < d; c++ {
								gvrow[c] += a * gorow[c]
							}
						}
					}
				}
				// dS = A ⊙ (dA - rowsum(dA ⊙ A)); then dQ, dK.
				for i := 0; i < S; i++ {
					arow := A[i*S : (i+1)*S]
					darow := dA[i*S : (i+1)*S]
					dot := 0.0
					for j := range arow {
						dot += arow[j] * darow[j]
					}
					for j := range arow {
						darow[j] = arow[j] * (darow[j] - dot)
					}
				}
				if gq != nil {
					for i := 0; i < S; i++ {
						darow := dA[i*S : (i+1)*S]
						gqrow := gq.Row(off + i)[hOff : hOff+d]
						for j, ds := range darow {
							if ds == 0 {
								continue
							}
							krow := k.Val.Row(off + j)[hOff : hOff+d]
							f := ds * scale
							for c := 0; c < d; c++ {
								gqrow[c] += f * krow[c]
							}
						}
					}
				}
				if gk != nil {
					for i := 0; i < S; i++ {
						darow := dA[i*S : (i+1)*S]
						qrow := q.Val.Row(off + i)[hOff : hOff+d]
						for j, ds := range darow {
							if ds == 0 {
								continue
							}
							gkrow := gk.Row(off + j)[hOff : hOff+d]
							f := ds * scale
							for c := 0; c < d; c++ {
								gkrow[c] += f * qrow[c]
							}
						}
					}
				}
			}
			off += S
		}
	}, q, k, v)
	return out
}
