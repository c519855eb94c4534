package tensor

import (
	"fmt"
	"math"
)

// Float32 mirrors of the non-linear inference kernels (infer.go) — the
// activation half of the int8 serve path, whose linear layers run through
// InferQuantLinearInto (quant.go). The arithmetic structure (loop order,
// fused attention layout) is identical to the float64 kernels; only the
// element type narrows. Transcendentals (GELU's tanh, softmax's exp) run
// through the fastExp32/fastTanh32 approximations, whose ~3e-7 relative
// error is far below float32 rounding noise. These kernels deviate from
// float64 by O(1e-6) relative per layer; the float64 kernels remain the
// bitwise-golden reference.

// InferLayerNormInto32 normalizes each row of x and applies gamma/beta
// (both 1×n), writing into out; out may alias x. Mean and variance
// accumulate in float32 — over the hidden widths this model family uses
// (≤ 4096) the accumulation error is O(n·ulp), well inside the path's
// stated tolerance.
func InferLayerNormInto32(x, gamma, beta *Matrix32, eps float64, out *Matrix32) {
	n := x.Cols
	if gamma.Rows != 1 || gamma.Cols != n || beta.Rows != 1 || beta.Cols != n {
		panic(fmt.Sprintf("tensor: InferLayerNorm32 params must be 1x%d", n))
	}
	if out.Rows != x.Rows || out.Cols != n {
		panic(fmt.Sprintf("tensor: InferLayerNorm32 out %dx%d for %dx%d input",
			out.Rows, out.Cols, x.Rows, n))
	}
	eps32 := float32(eps)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mean := float32(0)
		for _, v := range row {
			mean += v
		}
		mean /= float32(n)
		varr := float32(0)
		for _, v := range row {
			d := v - mean
			varr += d * d
		}
		varr /= float32(n)
		is := 1 / sqrt32(varr+eps32)
		dst := out.Row(i)
		for j, v := range row {
			dst[j] = (v-mean)*is*gamma.Data[j] + beta.Data[j]
		}
	}
}

// sqrt32 is float32 sqrt. math.Sqrt is a compiler intrinsic, so the
// widen-sqrt-narrow sequence stays in registers (SQRTSD + conversions),
// with no call in the LayerNorm inner loop.
func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}

// InferGELUInPlace32 applies the tanh-approximated GELU elementwise in
// place — vectorized where the host supports it, fastTanh32 otherwise.
func InferGELUInPlace32(x *Matrix32) {
	geluInPlace(x.Data)
}

// InferAttentionInto32 is the float32 fused multi-head attention forward;
// the layout contract matches InferAttentionInto (q/k/v are [sum(lens),
// hidden], sequences own consecutive rows, attention never crosses
// sequence boundaries). scores is caller-owned scratch with capacity ≥
// max(lens)²; kt and vh are per-head panel scratch with capacity ≥
// max(lens)·(hidden/heads). Per head the kernel transposes K into kt
// (d×S) and copies V's head columns into vh (S×d, contiguous), turning
// both the score rows and the output rows into f32MatVec calls (FMA
// assembly on capable amd64 hosts).
func InferAttentionInto32(q, k, v *Matrix32, heads int, lens []int, scores, kt, vh []float32, out *Matrix32) {
	hidden := q.Cols
	if hidden%heads != 0 {
		panic(fmt.Sprintf("tensor: hidden %d not divisible by heads %d", hidden, heads))
	}
	if !q.SameShape(k) || !q.SameShape(v) || !q.SameShape(out) {
		panic("tensor: InferAttention32 q/k/v/out shape mismatch")
	}
	total, maxS := 0, 0
	for _, l := range lens {
		if l <= 0 {
			panic("tensor: InferAttention32 sequence length must be positive")
		}
		total += l
		if l > maxS {
			maxS = l
		}
	}
	if total != q.Rows {
		panic(fmt.Sprintf("tensor: InferAttention32 lens sum %d != %d rows", total, q.Rows))
	}
	d := hidden / heads
	if len(scores) < maxS*maxS {
		panic(fmt.Sprintf("tensor: InferAttention32 scratch %d < %d", len(scores), maxS*maxS))
	}
	if len(kt) < maxS*d || len(vh) < maxS*d {
		panic(fmt.Sprintf("tensor: InferAttention32 head scratch %d/%d < %d", len(kt), len(vh), maxS*d))
	}
	scale := 1 / sqrt32(float32(d))

	out.Zero()
	off := 0
	for _, S := range lens {
		for h := 0; h < heads; h++ {
			hOff := h * d
			// Gather this head's K as d×S (kt) and V as S×d (vh).
			for j := 0; j < S; j++ {
				krow := k.Row(off + j)[hOff : hOff+d]
				vrow := v.Row(off + j)[hOff : hOff+d]
				for c, kv := range krow {
					kt[c*S+j] = kv
				}
				copy(vh[j*d:(j+1)*d], vrow)
			}
			A := scores[:S*S]
			for i := 0; i < S; i++ {
				qrow := q.Row(off + i)[hOff : hOff+d]
				srow := A[i*S : (i+1)*S]
				for j := range srow {
					srow[j] = 0
				}
				f32MatVec(qrow, kt[:d*S], srow) // srow[j] = q·k_j
				for j := range srow {
					srow[j] *= scale
				}
				softmaxInto32(srow, srow)
				// orow[c] += Σ_j a_j·v_j[c]; out was zeroed above.
				f32MatVec(srow, vh[:S*d], out.Row(off + i)[hOff:hOff+d])
			}
		}
		off += S
	}
}

// InferMeanPoolInto32 average-pools token rows of x into one float64 row
// per segment, widening as it accumulates: the pooled embedding is the
// boundary back to the canonical float64 world (detector heads),
// so the sum runs in float64 to spend no extra precision at the hand-off.
func InferMeanPoolInto32(x *Matrix32, lens []int, dst *Matrix, dstRow int) {
	total := 0
	for _, l := range lens {
		if l <= 0 {
			panic("tensor: InferMeanPool32 segment length must be positive")
		}
		total += l
	}
	if total != x.Rows {
		panic(fmt.Sprintf("tensor: InferMeanPool32 lens sum %d != %d rows", total, x.Rows))
	}
	if dst.Cols != x.Cols || dstRow < 0 || dstRow+len(lens) > dst.Rows {
		panic(fmt.Sprintf("tensor: InferMeanPool32 dst %dx%d cannot hold %d segments at row %d",
			dst.Rows, dst.Cols, len(lens), dstRow))
	}
	off := 0
	for s, l := range lens {
		out := dst.Row(dstRow + s)
		for j := range out {
			out[j] = 0
		}
		for r := off; r < off+l; r++ {
			src := x.Row(r)
			for j, v := range src {
				out[j] += float64(v)
			}
		}
		inv := 1 / float64(l)
		for j := range out {
			out[j] *= inv
		}
		off += l
	}
}
