package tensor

import (
	"fmt"
	"math"
)

// Forward kernels, shared by inference and training.
//
// The Infer* kernels write into caller-owned buffers and record nothing on
// the tape, so a scoring loop that reuses its buffers runs allocation-free.
// The tape ops in ops_nn.go take their values from these same kernels —
// AddLayerNorm from addLayerNormInto, Attention from attentionF64,
// MeanPool from InferMeanPoolInto — and keep only what backward needs, so
// training and serving run one forward arithmetic on every kernel tier.
// The kernels are single-threaded on purpose: at inference time
// parallelism lives one level up, across batches (see internal/tuning's
// engine), which avoids oversubscribing cores with nested goroutine
// fan-out.

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

// InferAddLayerNormInto adds resid into x (x += resid; resid may be nil,
// as for the embedding LayerNorm), then normalizes each row of x and
// applies the learned scale gamma and shift beta (both 1×n), writing into
// out; out may alias x. Each row runs the residual add, the mean's sum,
// the variance's sum and the normalization, in that order. Four rows run
// together as four independent add chains, which reorders no row's sums,
// so the bits are those of one row at a time.
func InferAddLayerNormInto(x, resid, gamma, beta *Matrix, eps float64, out *Matrix) {
	addLayerNormInto(x, resid, gamma, beta, eps, out, nil)
}

// addLayerNormInto is InferAddLayerNormInto that, when stats is non-nil
// (2·x.Rows long), also records row i's mean in stats[2i] and its
// 1/σ in stats[2i+1]: the AddLayerNorm op keeps them for backward.
func addLayerNormInto(x, resid, gamma, beta *Matrix, eps float64, out *Matrix, stats []float64) {
	n := x.Cols
	if gamma.Rows != 1 || gamma.Cols != n || beta.Rows != 1 || beta.Cols != n {
		panic(fmt.Sprintf("tensor: AddLayerNorm params must be 1x%d", n))
	}
	if out.Rows != x.Rows || out.Cols != n {
		panic(fmt.Sprintf("tensor: AddLayerNorm out %dx%d for %dx%d input",
			out.Rows, out.Cols, x.Rows, n))
	}
	if resid != nil && !resid.SameShape(x) {
		panic(fmt.Sprintf("tensor: AddLayerNorm resid %dx%d for %dx%d input",
			resid.Rows, resid.Cols, x.Rows, n))
	}
	rows := func(m *Matrix, i, c int) []float64 {
		if m == nil {
			return nil
		}
		return m.Data[i*n : (i+c)*n]
	}
	st := func(i, c int) []float64 {
		if stats == nil {
			return nil
		}
		return stats[2*i : 2*(i+c)]
	}
	i := 0
	for ; i+4 <= x.Rows; i += 4 {
		addLayerNormRows4(rows(x, i, 4), rows(resid, i, 4), gamma.Data, beta.Data, eps, rows(out, i, 4), st(i, 4))
	}
	for ; i < x.Rows; i++ {
		addLayerNormRow64(rows(x, i, 1), rows(resid, i, 1), gamma.Data, beta.Data, eps, rows(out, i, 1), st(i, 1))
	}
}

// addLayerNormRow64 is addLayerNormInto for one row: x += r (r may be
// nil), then out = LayerNorm(x)·gamma + beta, and stats (nil or 2 long)
// gets the mean and 1/σ.
func addLayerNormRow64(x, r, gamma, beta []float64, eps float64, out, stats []float64) {
	mean := 0.0
	if r != nil {
		r = r[:len(x)]
		for j := range x {
			x[j] += r[j]
			mean += x[j]
		}
	} else {
		for _, v := range x {
			mean += v
		}
	}
	mean /= float64(len(x))
	varr := 0.0
	for _, v := range x {
		d := v - mean
		varr += d * d
	}
	varr /= float64(len(x))
	normRow64(x, mean, 1/math.Sqrt(varr+eps), gamma, beta, out, stats)
}

// addLayerNormRows4 is addLayerNormRow64 for four consecutive rows of
// x, r and out (stats: nil or 8 long), their mean and variance sums
// interleaved as four independent chains.
func addLayerNormRows4(x, r, gamma, beta []float64, eps float64, out, stats []float64) {
	n := len(gamma)
	x0, x1, x2, x3 := x[:n], x[n:2*n], x[2*n:3*n], x[3*n:4*n]
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	var m0, m1, m2, m3 float64
	if r != nil {
		r0, r1, r2, r3 := r[:n], r[n:2*n], r[2*n:3*n], r[3*n:4*n]
		r0, r1, r2, r3 = r0[:len(x0)], r1[:len(x0)], r2[:len(x0)], r3[:len(x0)]
		for j := range x0 {
			x0[j] += r0[j]
			x1[j] += r1[j]
			x2[j] += r2[j]
			x3[j] += r3[j]
			m0 += x0[j]
			m1 += x1[j]
			m2 += x2[j]
			m3 += x3[j]
		}
	} else {
		for j := range x0 {
			m0 += x0[j]
			m1 += x1[j]
			m2 += x2[j]
			m3 += x3[j]
		}
	}
	fn := float64(n)
	m0 /= fn
	m1 /= fn
	m2 /= fn
	m3 /= fn
	var v0, v1, v2, v3 float64
	for j := range x0 {
		d0 := x0[j] - m0
		d1 := x1[j] - m1
		d2 := x2[j] - m2
		d3 := x3[j] - m3
		v0 += d0 * d0
		v1 += d1 * d1
		v2 += d2 * d2
		v3 += d3 * d3
	}
	var s0, s1, s2, s3 []float64
	if stats != nil {
		s0, s1, s2, s3 = stats[0:2], stats[2:4], stats[4:6], stats[6:8]
	}
	normRow64(x0, m0, 1/math.Sqrt(v0/fn+eps), gamma, beta, out[:n], s0)
	normRow64(x1, m1, 1/math.Sqrt(v1/fn+eps), gamma, beta, out[n:2*n], s1)
	normRow64(x2, m2, 1/math.Sqrt(v2/fn+eps), gamma, beta, out[2*n:3*n], s2)
	normRow64(x3, m3, 1/math.Sqrt(v3/fn+eps), gamma, beta, out[3*n:4*n], s3)
}

// normRow64 writes out[j] = (x[j]−mean)·is·gamma[j] + beta[j]; out may
// alias x. A non-nil stats gets mean and is.
func normRow64(x []float64, mean, is float64, gamma, beta, out, stats []float64) {
	if stats != nil {
		stats[0], stats[1] = mean, is
	}
	gamma, beta, out = gamma[:len(x)], beta[:len(x)], out[:len(x)]
	for j, v := range x {
		out[j] = (v-mean)*is*gamma[j] + beta[j]
	}
}

// InferGELUInPlace applies the tanh-approximated GELU elementwise in place,
// on the GELU op's forward kernel.
func InferGELUInPlace(x *Matrix) { geluRow(x.Data, x.Data) }

// InferAttentionInto runs the fused multi-head scaled-dot-product attention
// forward pass (same layout contract as Attention: q/k/v are [sum(lens),
// hidden], sequences own consecutive rows, attention never crosses sequence
// boundaries) writing into out. scores is caller-owned scratch of at least
// heads·max(lens)²: for each sequence in turn, head h's post-softmax S×S
// matrix is built in scores[h·S², (h+1)·S²), where the Attention op keeps
// it for backward; work is scratch of at least
// AttentionWorkLen(max(lens), hidden). On the AVX2 and AVX-512 tiers one
// kernel call covers a whole (sequence, head), lane i holding query row i
// (attentionF64Asm); each lane runs one row of attentionF64Go in its
// order, so every tier gives the same bits.
func InferAttentionInto(q, k, v *Matrix, heads int, lens []int, scores, work []float64, out *Matrix) {
	if !q.SameShape(out) {
		panic("tensor: Attention q/out shape mismatch")
	}
	maxS := checkAttention(q, k, v, heads, lens)
	if len(scores) < heads*maxS*maxS || len(work) < AttentionWorkLen(maxS, q.Cols) {
		panic(fmt.Sprintf("tensor: InferAttention scratch %d/%d < %d/%d",
			len(scores), len(work), heads*maxS*maxS, AttentionWorkLen(maxS, q.Cols)))
	}
	attentionF64(q, k, v, heads, lens, scores, work, out)
}

// AttentionWorkLen is the length of the work scratch InferAttentionInto
// needs for sequences of up to maxS tokens, hidden wide: room for one lane
// group's transposed Q and score columns at up to eight lanes.
func AttentionWorkLen(maxS, hidden int) int { return 8 * (maxS + hidden) }

// checkAttention panics unless q, k and v share one shape whose width
// heads divides and whose rows the positive lens cover exactly, and
// returns max(lens).
func checkAttention(q, k, v *Matrix, heads int, lens []int) int {
	if q.Cols%heads != 0 {
		panic(fmt.Sprintf("tensor: hidden %d not divisible by heads %d", q.Cols, heads))
	}
	if !q.SameShape(k) || !q.SameShape(v) {
		panic("tensor: Attention q/k/v shape mismatch")
	}
	total, maxS := 0, 0
	for _, l := range lens {
		if l <= 0 {
			panic("tensor: Attention sequence length must be positive")
		}
		total += l
		maxS = max(maxS, l)
	}
	if total != q.Rows {
		panic(fmt.Sprintf("tensor: Attention lens sum %d != %d rows", total, q.Rows))
	}
	return maxS
}

// attentionF64Go is the scalar attention forward, one query row at a
// time (attnRowF64). It is the portable path and the mirror
// attentionF64Asm is tested against; work is unused.
func attentionF64Go(q, k, v *Matrix, heads int, lens []int, scores, _ []float64, out *Matrix) {
	d := q.Cols / heads
	scale := 1 / math.Sqrt(float64(d))
	off := 0
	for _, S := range lens {
		for h := 0; h < heads; h++ {
			for i := 0; i < S; i++ {
				attnRowF64(q, k, v, off, S, h*d, d, i, scale, scores[h*S*S:(h+1)*S*S], out)
			}
		}
		off += S
	}
}

// attnRowF64 computes query row i of the sequence at row off for the head
// at columns [hOff, hOff+d): dot products c ascending from +0 times the
// scale into row i of the head's S×S block A, softmaxInto in place, then
// AV accumulated j ascending into the row's cleared out columns, skipping
// zero weights, every product rounded before it is added. The SIMD
// kernels send here the rows they decline.
func attnRowF64(q, k, v *Matrix, off, S, hOff, d, i int, scale float64, A []float64, out *Matrix) {
	qrow := q.Row(off + i)[hOff : hOff+d]
	srow := A[i*S : (i+1)*S]
	for j := range srow {
		krow := k.Row(off + j)[hOff : hOff+d]
		dot := 0.0
		for c, x := range qrow {
			dot += float64(x * krow[c])
		}
		srow[j] = dot * scale
	}
	softmaxInto(srow, srow)
	orow := out.Row(off + i)[hOff : hOff+d]
	clear(orow)
	for j, a := range srow {
		if a == 0 {
			continue
		}
		vrow := v.Row(off + j)[hOff : hOff+d]
		for c, x := range vrow {
			orow[c] += float64(a * x)
		}
	}
}

// InferMeanPoolInto average-pools token rows into one row per segment
// (segment s owns lens[s] consecutive rows of x), writing segment s to
// dst.Row(dstRow+s): the rows summed in order from +0, then scaled by
// 1/lens[s]. The MeanPool op takes its value from here.
func InferMeanPoolInto(x *Matrix, lens []int, dst *Matrix, dstRow int) {
	total := 0
	for _, l := range lens {
		if l <= 0 {
			panic("tensor: MeanPool segment length must be positive")
		}
		total += l
	}
	if total != x.Rows {
		panic(fmt.Sprintf("tensor: MeanPool lens sum %d != %d rows", total, x.Rows))
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
