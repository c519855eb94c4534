package tensor

import (
	"fmt"
	"math"
)

// SoftmaxRows applies a numerically stable softmax to each row.
func SoftmaxRows(a *Tensor) *Tensor {
	val := NewMatrix(a.Val.Rows, a.Val.Cols)
	for i := 0; i < a.Val.Rows; i++ {
		softmaxInto(a.Val.Row(i), val.Row(i))
	}
	var out *Tensor
	out = newNode("softmax", val, func() {
		if !a.needGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < g.Rows; i++ {
			y := out.Val.Row(i)
			gy := out.Grad.Row(i)
			dot := 0.0
			for j := range y {
				dot += y[j] * gy[j]
			}
			row := g.Row(i)
			for j := range y {
				row[j] += y[j] * (gy[j] - dot)
			}
		}
	}, a)
	return out
}

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
	n := a.Val.Cols
	if gamma.Val.Rows != 1 || gamma.Val.Cols != n || beta.Val.Rows != 1 || beta.Val.Cols != n {
		panic(fmt.Sprintf("tensor: LayerNorm params must be 1x%d", n))
	}
	val := NewMatrix(a.Val.Rows, n)
	xhat := NewMatrix(a.Val.Rows, n) // saved for backward
	invStd := make([]float64, a.Val.Rows)
	for i := 0; i < a.Val.Rows; i++ {
		row := a.Val.Row(i)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(n)
		varr := 0.0
		for _, v := range row {
			d := v - mean
			varr += d * d
		}
		varr /= float64(n)
		is := 1 / math.Sqrt(varr+eps)
		invStd[i] = is
		xr := xhat.Row(i)
		vr := val.Row(i)
		for j, v := range row {
			h := (v - mean) * is
			xr[j] = h
			vr[j] = h*gamma.Val.Data[j] + beta.Val.Data[j]
		}
	}
	var out *Tensor
	out = newNode("layernorm", val, func() {
		for i := 0; i < out.Grad.Rows; i++ {
			gy := out.Grad.Row(i)
			xr := xhat.Row(i)
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
			if a.needGrad {
				// dx = (1/σ) * (dy*γ - mean(dy*γ) - x̂ * mean(dy*γ*x̂))
				m1, m2 := 0.0, 0.0
				for j := range gy {
					t := gy[j] * gamma.Val.Data[j]
					m1 += t
					m2 += t * xr[j]
				}
				m1 /= float64(n)
				m2 /= float64(n)
				ga := a.ensureGrad().Row(i)
				for j := range gy {
					t := gy[j] * gamma.Val.Data[j]
					ga[j] += invStd[i] * (t - m1 - xr[j]*m2)
				}
			}
		}
	}, a, gamma, beta)
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
// is [len(lens), n]. Rows beyond a segment's length do not exist (callers
// pass only real tokens). This is the command-line embedding f(t) used by
// the PCA detector (§III).
func MeanPool(x *Tensor, lens []int) *Tensor {
	total := 0
	for _, l := range lens {
		if l <= 0 {
			panic("tensor: MeanPool segment length must be positive")
		}
		total += l
	}
	if total != x.Val.Rows {
		panic(fmt.Sprintf("tensor: MeanPool lens sum %d != %d rows", total, x.Val.Rows))
	}
	val := NewMatrix(len(lens), x.Val.Cols)
	offs := make([]int, len(lens))
	off := 0
	for s, l := range lens {
		offs[s] = off
		dst := val.Row(s)
		for r := off; r < off+l; r++ {
			src := x.Val.Row(r)
			for j, v := range src {
				dst[j] += v
			}
		}
		inv := 1 / float64(l)
		for j := range dst {
			dst[j] *= inv
		}
		off += l
	}
	segLens := make([]int, len(lens))
	copy(segLens, lens)
	var out *Tensor
	out = newNode("meanpool", val, func() {
		if !x.needGrad {
			return
		}
		g := x.ensureGrad()
		for s, l := range segLens {
			inv := 1 / float64(l)
			grow := out.Grad.Row(s)
			for r := offs[s]; r < offs[s]+l; r++ {
				dst := g.Row(r)
				for j, v := range grow {
					dst[j] += v * inv
				}
			}
		}
	}, x)
	return out
}

// Attention is the fused multi-head scaled-dot-product attention used by the
// transformer encoder. q, k, v are [sum(lens), hidden] where each sequence s
// owns lens[s] consecutive rows. heads must divide hidden. The output has
// the same shape as q. Attention never crosses sequence boundaries, which
// implements per-line isolation without padding.
func Attention(q, k, v *Tensor, heads int, lens []int) *Tensor {
	hidden := q.Val.Cols
	if hidden%heads != 0 {
		panic(fmt.Sprintf("tensor: hidden %d not divisible by heads %d", hidden, heads))
	}
	if !q.Val.SameShape(k.Val) || !q.Val.SameShape(v.Val) {
		panic("tensor: Attention q/k/v shape mismatch")
	}
	total := 0
	for _, l := range lens {
		if l <= 0 {
			panic("tensor: Attention sequence length must be positive")
		}
		total += l
	}
	if total != q.Val.Rows {
		panic(fmt.Sprintf("tensor: Attention lens sum %d != %d rows", total, q.Val.Rows))
	}
	d := hidden / heads
	scale := 1 / math.Sqrt(float64(d))

	val := NewMatrix(q.Val.Rows, hidden)
	// attn[s][h] is the [S,S] post-softmax attention matrix, saved for the
	// backward pass.
	attn := make([][][]float64, len(lens))

	off := 0
	for s, S := range lens {
		attn[s] = make([][]float64, heads)
		for h := 0; h < heads; h++ {
			hOff := h * d
			A := make([]float64, S*S)
			// scores = Q·Kᵀ·scale, then row softmax.
			for i := 0; i < S; i++ {
				qrow := q.Val.Row(off + i)[hOff : hOff+d]
				srow := A[i*S : (i+1)*S]
				for j := 0; j < S; j++ {
					krow := k.Val.Row(off + j)[hOff : hOff+d]
					dot := 0.0
					for c := 0; c < d; c++ {
						dot += float64(qrow[c] * krow[c])
					}
					srow[j] = dot * scale
				}
				softmaxInto(srow, srow)
			}
			attn[s][h] = A
			// out = A·V
			for i := 0; i < S; i++ {
				arow := A[i*S : (i+1)*S]
				orow := val.Row(off + i)[hOff : hOff+d]
				for j, a := range arow {
					if a == 0 {
						continue
					}
					vrow := v.Val.Row(off + j)[hOff : hOff+d]
					for c := 0; c < d; c++ {
						orow[c] += float64(a * vrow[c])
					}
				}
			}
		}
		off += S
	}
	segLens := make([]int, len(lens))
	copy(segLens, lens)

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
				A := attn[s][h]
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
