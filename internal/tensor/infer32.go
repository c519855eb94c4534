package tensor

import (
	"fmt"
	"math"
)

// Float32 mirrors of the non-linear inference kernels (infer.go) — the
// activation half of the int8 serve path, whose linear layers run through
// InferQuantLinearInto (quant.go). Two are fused where the float64 path
// runs separate passes: the residual add rides in the LayerNorm's first
// pass, and attention runs one kernel call per query row (QKᵀ, softmax
// and AV). Sums run in a fixed lane order rather than the float64 loops'
// serial order, and transcendentals (GELU's tanh, softmax's exp) run
// through vector or fastExp32/fastTanh32 approximations, whose ~3e-7
// relative error is far below float32 rounding noise. These kernels
// deviate from float64 by O(1e-6) relative per layer; the float64 kernels
// remain the bitwise-golden reference.

// InferAddLayerNormInto32 adds resid into x (x += resid; resid may be nil,
// as for the embedding LayerNorm), then normalizes each row of x and
// applies gamma/beta (both 1×n), writing into out; out may alias x. Mean
// and variance accumulate in float32 over eight lanes in a fixed order —
// over the hidden widths this model family uses (≤ 4096) the accumulation
// error is O(n·ulp), well inside the path's stated tolerance. Rows run
// through an AVX2 kernel where the host has one and n is a multiple of 4,
// else through its bitwise-equal Go mirror.
func InferAddLayerNormInto32(x, resid, gamma, beta *Matrix32, eps float64, out *Matrix32) {
	n := x.Cols
	if gamma.Rows != 1 || gamma.Cols != n || beta.Rows != 1 || beta.Cols != n {
		panic(fmt.Sprintf("tensor: InferAddLayerNorm32 params must be 1x%d", n))
	}
	if out.Rows != x.Rows || out.Cols != n {
		panic(fmt.Sprintf("tensor: InferAddLayerNorm32 out %dx%d for %dx%d input",
			out.Rows, out.Cols, x.Rows, n))
	}
	if resid != nil && !resid.SameShape(x) {
		panic(fmt.Sprintf("tensor: InferAddLayerNorm32 resid %dx%d for %dx%d input",
			resid.Rows, resid.Cols, x.Rows, n))
	}
	eps32 := float32(eps)
	for i := 0; i < x.Rows; i++ {
		var r []float32
		if resid != nil {
			r = resid.Row(i)
		}
		addLayerNormRow(x.Row(i), r, gamma.Data, beta.Data, eps32, out.Row(i))
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
// sequence boundaries). With Sp = max(lens) rounded up to 8, scores is
// caller-owned scratch with capacity ≥ Sp and kt panel scratch with
// capacity ≥ Sp·hidden. Per sequence the kernel transposes K into kt
// (hidden×Sp, pad columns zero, one d×Sp panel per head) and then makes
// one call per query row and head that does QKᵀ, the scale, the softmax
// over the S live lanes and AV straight from V's rows (AVX2 on capable
// amd64 hosts when d = hidden/heads is a multiple of 4, else the
// bitwise-equal Go mirror).
func InferAttentionInto32(q, k, v *Matrix32, heads int, lens []int, scores, kt []float32, out *Matrix32) {
	attention32(q, k, v, heads, lens, scores, kt, out, attnRow)
}

// attention32 is InferAttentionInto32 with the row kernel as a parameter,
// so tests can run the same batch through the assembly and the Go mirror.
func attention32(q, k, v *Matrix32, heads int, lens []int, scores, kt []float32, out *Matrix32,
	row func(q, kt, v, scores, out []float32, scale float32, vStride, S int)) {
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
	if maxSp := pad8(maxS); len(scores) < maxSp || len(kt) < maxSp*hidden {
		panic(fmt.Sprintf("tensor: InferAttention32 scratch %d/%d < %d/%d",
			len(scores), len(kt), maxSp, maxSp*hidden))
	}
	scale := 1 / sqrt32(float32(d))

	off := 0
	for _, S := range lens {
		sp := pad8(S)
		srow := scores[:sp]
		// Transpose the sequence's K rows into kt (hidden×Sp, pad columns
		// zero): head h's d×Sp panel is rows [h·d, (h+1)·d).
		transposeRows32(k.Data[off*hidden:(off+S)*hidden], hidden, kt[:hidden*sp], sp)
		for h := 0; h < heads; h++ {
			hOff := h * d
			panel := kt[hOff*sp : (hOff+d)*sp]
			vh := v.Data[off*hidden+hOff : (off+S-1)*hidden+hOff+d]
			for i := off; i < off+S; i++ {
				r := i*hidden + hOff
				row(q.Data[r:r+d], panel, vh, srow, out.Data[r:r+d], scale, hidden, S)
			}
		}
		off += S
	}
}

// transposeRows32 writes the S = len(src)/cols rows of src transposed
// into dst (cols rows of sp ≥ S lanes), zeroing lanes [S, sp). Four
// source rows go per pass, so each destination row gets four adjacent
// stores instead of one.
func transposeRows32(src []float32, cols int, dst []float32, sp int) {
	S := len(src) / cols
	j := 0
	for ; j+4 <= S; j += 4 {
		r0 := src[j*cols : (j+1)*cols]
		r1 := src[(j+1)*cols : (j+2)*cols][:len(r0)]
		r2 := src[(j+2)*cols : (j+3)*cols][:len(r0)]
		r3 := src[(j+3)*cols : (j+4)*cols][:len(r0)]
		for c := range r0 {
			t := dst[c*sp+j : c*sp+j+4 : c*sp+j+4]
			t[0], t[1], t[2], t[3] = r0[c], r1[c], r2[c], r3[c]
		}
	}
	for ; j < S; j++ {
		for c, x := range src[j*cols : (j+1)*cols] {
			dst[c*sp+j] = x
		}
	}
	if S < sp {
		for c := 0; c < cols; c++ {
			for l := c*sp + S; l < (c+1)*sp; l++ {
				dst[l] = 0 // at most 7 lanes: a loop beats a memclr call
			}
		}
	}
}

// pad8 rounds n up to a multiple of 8, the attention kernel's lane width.
func pad8(n int) int { return (n + 7) &^ 7 }

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
