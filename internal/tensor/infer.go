package tensor

import (
	"fmt"
	"math"
)

// Forward-only inference kernels.
//
// The autograd ops in ops.go/ops_nn.go allocate a fresh value matrix (and
// often saved intermediates) per call and record a backward closure on the
// tape — pure overhead when only the value is wanted. The Infer* kernels
// below compute the identical forward arithmetic, in the identical
// floating-point order, but write into caller-owned buffers and record
// nothing, so a scoring loop that reuses its buffers runs allocation-free.
// They are single-threaded on purpose: at inference time parallelism lives
// one level up, across batches (see internal/tuning's engine), which avoids
// oversubscribing cores with nested goroutine fan-out.

// InferLinearInto computes out = x·w + bias serially (bias broadcast over
// rows; may be nil for no bias), overwriting out and matching
// Linear.Forward's value bitwise: the matmul accumulates first, the bias is
// added after, in the GEMM's store.
func InferLinearInto(x, w, bias, out *Matrix) {
	if x.Cols != w.Rows || out.Rows != x.Rows || out.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: InferLinear shapes %dx%d · %dx%d -> %dx%d",
			x.Rows, x.Cols, w.Rows, w.Cols, out.Rows, out.Cols))
	}
	var b []float64
	if bias != nil {
		if bias.Rows != 1 || bias.Cols != out.Cols {
			panic(fmt.Sprintf("tensor: InferLinear bias %dx%d for %d-wide output",
				bias.Rows, bias.Cols, out.Cols))
		}
		b = bias.Data
	}
	matMulRows(x, w, b, out, 0, x.Rows)
}

// InferLayerNormInto normalizes each row of x and applies the learned
// scale gamma and shift beta (both 1×n), writing into out. out may alias x
// (in-place normalization). Arithmetic matches the LayerNorm op.
func InferLayerNormInto(x, gamma, beta *Matrix, eps float64, out *Matrix) {
	n := x.Cols
	if gamma.Rows != 1 || gamma.Cols != n || beta.Rows != 1 || beta.Cols != n {
		panic(fmt.Sprintf("tensor: InferLayerNorm params must be 1x%d", n))
	}
	if out.Rows != x.Rows || out.Cols != n {
		panic(fmt.Sprintf("tensor: InferLayerNorm out %dx%d for %dx%d input",
			out.Rows, out.Cols, x.Rows, n))
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
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
		dst := out.Row(i)
		for j, v := range row {
			dst[j] = (v-mean)*is*gamma.Data[j] + beta.Data[j]
		}
	}
}

// InferGELUInPlace applies the tanh-approximated GELU elementwise in place,
// on the GELU op's forward kernel.
func InferGELUInPlace(x *Matrix) { geluRow(x.Data, x.Data) }

// InferAttentionInto runs the fused multi-head scaled-dot-product attention
// forward pass (same layout contract as Attention: q/k/v are [sum(lens),
// hidden], sequences own consecutive rows, attention never crosses sequence
// boundaries) writing into out. scores is caller-owned scratch with
// capacity at least max(lens)², where post-softmax attention rows are built
// head by head and never retained; kt is scratch with capacity at least
// max(lens)·hidden for one sequence's transposed K. Results are bitwise
// the tape's Attention: the AVX2 kernels (attentionF64Asm) vectorize only
// across independent outputs.
func InferAttentionInto(q, k, v *Matrix, heads int, lens []int, scores, kt []float64, out *Matrix) {
	hidden := q.Cols
	if hidden%heads != 0 {
		panic(fmt.Sprintf("tensor: hidden %d not divisible by heads %d", hidden, heads))
	}
	if !q.SameShape(k) || !q.SameShape(v) || !q.SameShape(out) {
		panic("tensor: InferAttention q/k/v/out shape mismatch")
	}
	total, maxS := 0, 0
	for _, l := range lens {
		if l <= 0 {
			panic("tensor: InferAttention sequence length must be positive")
		}
		total += l
		if l > maxS {
			maxS = l
		}
	}
	if total != q.Rows {
		panic(fmt.Sprintf("tensor: InferAttention lens sum %d != %d rows", total, q.Rows))
	}
	if len(scores) < maxS*maxS || len(kt) < maxS*hidden {
		panic(fmt.Sprintf("tensor: InferAttention scratch %d/%d < %d/%d",
			len(scores), len(kt), maxS*maxS, maxS*hidden))
	}
	attentionF64(q, k, v, heads, lens, scores, kt, out)
}

// attentionF64Go is the scalar attention forward, the arithmetic of the
// tape's Attention: per query row, dot products c ascending from +0 times
// the scale, softmaxInto, then AV accumulated j ascending into the zeroed
// out row, skipping zero weights, every product rounded before it is
// added. It is the portable path and the mirror attentionF64Asm is tested
// against; kt is unused.
func attentionF64Go(q, k, v *Matrix, heads int, lens []int, scores, _ []float64, out *Matrix) {
	d := q.Cols / heads
	scale := 1 / math.Sqrt(float64(d))
	out.Zero()
	off := 0
	for _, S := range lens {
		for h := 0; h < heads; h++ {
			hOff := h * d
			A := scores[:S*S]
			for i := 0; i < S; i++ {
				qrow := q.Row(off + i)[hOff : hOff+d]
				srow := A[i*S : (i+1)*S]
				for j := 0; j < S; j++ {
					krow := k.Row(off + j)[hOff : hOff+d]
					dot := 0.0
					for c := 0; c < d; c++ {
						dot += float64(qrow[c] * krow[c])
					}
					srow[j] = dot * scale
				}
				softmaxInto(srow, srow)
			}
			for i := 0; i < S; i++ {
				arow := A[i*S : (i+1)*S]
				orow := out.Row(off + i)[hOff : hOff+d]
				for j, a := range arow {
					if a == 0 {
						continue
					}
					vrow := v.Row(off + j)[hOff : hOff+d]
					for c := 0; c < d; c++ {
						orow[c] += float64(a * vrow[c])
					}
				}
			}
		}
		off += S
	}
}

// InferMeanPoolInto average-pools token rows into one row per segment
// (segment s owns lens[s] consecutive rows of x), writing segment s to
// dst.Row(dstRow+s). Arithmetic matches the MeanPool op.
func InferMeanPoolInto(x *Matrix, lens []int, dst *Matrix, dstRow int) {
	total := 0
	for _, l := range lens {
		if l <= 0 {
			panic("tensor: InferMeanPool segment length must be positive")
		}
		total += l
	}
	if total != x.Rows {
		panic(fmt.Sprintf("tensor: InferMeanPool lens sum %d != %d rows", total, x.Rows))
	}
	if dst.Cols != x.Cols || dstRow < 0 || dstRow+len(lens) > dst.Rows {
		panic(fmt.Sprintf("tensor: InferMeanPool dst %dx%d cannot hold %d segments at row %d",
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
				out[j] += v
			}
		}
		inv := 1 / float64(l)
		for j := range out {
			out[j] *= inv
		}
		off += l
	}
}
