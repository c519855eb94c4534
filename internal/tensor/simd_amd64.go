package tensor

import (
	"math"
	"math/bits"
)

// SIMD backends. On amd64 the kernels dispatch to AVX2 assembly (and, for
// the float64 GEMM and attention and the int8 accumulation, AVX-512 when
// present) after a runtime CPUID check; pure-Go mirrors cover older hosts
// and other architectures.
//
// The float64 kernels (the GEMM behind every linear, attention, softmax's
// exp pass and the GELU row) are asm, bitwise equal to their Go mirrors:
// each output element sees the Go code's operations in the Go code's
// order — VMULPD then VADDPD, never FMA; sums from +0, k ascending — and
// the vectors run only across independent outputs, never along a sum. The exp and tanh lanes run exactly the operations of the scalar
// ports expF64 and tanhF64 (exp.go), so the float64 bits are the same on
// every amd64 host, with or without AVX2 or FMA.
//
// The int8 path and its float32 activation kernels exist to trade
// exactness for speed. The LayerNorm and attention kernels are bitwise
// equal to their Go mirrors (same lane order, no FMA, and the attention
// mirror runs the same vector exp); the vector exp and GELU differ from
// the scalar fastExp32/fastTanh32 in the last bits, inside the int8
// path's documented tolerance. Within one process the kernels are
// deterministic, so dedup, score-memo hits, and repeated scoring stay
// exactly reproducible.

// haveSIMD gates the AVX2 kernels: AVX2 + FMA + OS-enabled YMM state.
// haveAVX512 additionally gates the ZMM float64 GEMM and attention, and
// haveVNNI the AVX-512 VNNI int8 matmul kernel.
var (
	haveSIMD   = x86HasAVX2FMA()
	haveAVX512 = haveSIMD && x86HasAVX512F()
	haveVNNI   = haveSIMD && x86HasAVX512VNNI()
)

// x86HasAVX2FMA reports CPUID support for AVX2 and FMA with OS-saved YMM
// registers (implemented in simd_amd64.s).
func x86HasAVX2FMA() bool

// x86HasAVX512F reports CPUID support for AVX-512 F with OS-saved ZMM and
// opmask state (implemented in simd_amd64.s).
func x86HasAVX512F() bool

// x86HasAVX512VNNI reports CPUID support for AVX-512 F/BW/VNNI with
// OS-saved ZMM and opmask state (implemented in simd_amd64.s).
func x86HasAVX512VNNI() bool

// quantTileAsm is the AVX2 form of quantTileGo, bitwise equal to it:
// per row of the tile, max-abs, then the row scaled by 127/max and
// rounded to nearest-even (VCVTPS2DQ, VCVTSS2SI for the k mod 8 tail),
// then the pad lanes [k, kPad) zeroed. len(x) = len(rowMax)·k,
// len(qa) ≥ len(rowMax)·kPad.
//
//go:noescape
func quantTileAsm(x []float32, k, kPad int, qa []int16, rowMax []float32)

// int8TileAVX2 is the AVX2 form of int8TileGo: four rows at a time, each
// k-pair of a 16-channel weight block is sign-extended once and fed to
// the four rows' VPMADDWD/VPADDD chains. A group of 1–3 rows at the end
// repeats its last row in the missing slots, which only rewrites that
// row's own values. kPad is a multiple of 4 (two k-pairs), nPad of 16.
//
//go:noescape
func int8TileAVX2(qa []int16, wt []int8, acc []int32, rows, kPad, nPad int)

// int8TileVNNI is the same contract fused onto AVX-512 VPDPWSSD with
// broadcast activation pairs: each weight k-quad is sign-extended once
// into two ZMMs that feed eight independent accumulators (four rows ×
// two k-pair phases).
//
//go:noescape
func int8TileVNNI(qa []int16, wt []int8, acc []int32, rows, kPad, nPad int)

// dequantTileAsm is the AVX2 form of dequantTileGo, bitwise equal to it:
// per row, out = float32(acc)·(rowMax/127)·scales (+ bias), or a copy of
// the bias (or zeros) where rowMax is 0. bias may be nil. len(out) =
// len(rowMax)·len(scales), acc rows are nPad wide.
//
//go:noescape
func dequantTileAsm(acc []int32, nPad int, rowMax, scales, bias, out []float32)

// expShiftAsm applies v[i] = exp(v[i] - shift) in place, 8 lanes at a
// time, with the same range reduction and degree-7 polynomial as
// fastExp32 (round-to-nearest k instead of round-half-away; inputs are
// clamped to [-87, 88] so the vector path saturates instead of returning
// ±Inf/0). len(v) must be a multiple of 8; callers handle the tail.
//
//go:noescape
func expShiftAsm(v []float32, shift float32)

// gelu32Asm applies the tanh-approximated GELU in place, 8 lanes at a
// time, tanh computed as 1 − 2/(e^{2u}+1) on the vector exp above.
// len(v) must be a multiple of 8; callers handle the tail.
//
//go:noescape
func gelu32Asm(v []float32)

// addLayerNormRowAsm is the AVX2 form of addLayerNormRowGo, bitwise
// equal to it: x += resid (when resid is non-empty), then out is x's
// LayerNorm times gamma plus beta. len(x) must be a positive multiple of 4.
//
//go:noescape
func addLayerNormRowAsm(x, resid, gamma, beta []float32, eps float32, out []float32)

// attnRowAsm is the AVX2 form of attnRowGo, bitwise equal to it: one query
// row of one head's attention, from QKᵀ to the normalized AV row.
// len(q) = len(out) = d (a multiple of 4), len(scores) = S rounded up to 8,
// len(kt) ≥ d·len(scores), len(v) ≥ (S-1)·vStride + d.
//
//go:noescape
func attnRowAsm(q, kt, v, scores, out []float32, scale float32, vStride, S int)

// gemmF64AVX2 is the AVX2 form of matMulRowsGo, bitwise equal to it:
// out[i][j] = (Σ_k a[i][k]·b[k][j]) + bias[j] for i < rows and j < n, the
// sum from +0 with k ascending and each product rounded before it is
// added, the bias (nil for none, else len ≥ n) added once at the store.
// Row strides are lda, ldb and ldo elements; out is overwritten. A 4-row ×
// 8-column block keeps eight YMM accumulators; the last 1–7 columns run
// in masked strips of up to four and the last 1–3 rows repeat their last
// row.
//
//go:noescape
func gemmF64AVX2(a, b, bias, out []float64, rows, k, n, lda, ldb, ldo int)

// gemmF64AVX512 is gemmF64AVX2 on ZMM, bitwise equal to it and to
// matMulRowsGo: a 4-row × 16-column block keeps eight ZMM accumulators,
// the last 1–15 columns run as one strip under opmasks, and the last 1–3
// rows repeat their last row.
//
//go:noescape
func gemmF64AVX512(a, b, bias, out []float64, rows, k, n, lda, ldb, ldo int)

// gemmF64 runs the float64 GEMM (gemmF64AVX2's contract) on the widest
// kernel the host has. Callers check haveSIMD first.
func gemmF64(a, b, bias, out []float64, rows, k, n, lda, ldb, ldo int) {
	if haveAVX512 {
		gemmF64AVX512(a, b, bias, out, rows, k, n, lda, ldb, ldo)
		return
	}
	gemmF64AVX2(a, b, bias, out, rows, k, n, lda, ldb, ldo)
}

// attnF64AVX2 is one (sequence, head) of attentionF64Go on AVX2, four
// query rows at a time, lane l holding row i0+l: per lane the row's
// scores (products rounded, c ascending from +0, then the scale), the max
// (v > max, first wins, NaN never wins), the exp-sum in j order on
// expF64's operations, the row times 1/sum into a[i·S+j], and AV into
// out[i·stride+c], j ascending from +0. The scalar loop skips ±0 weights,
// but a row the kernel keeps has none: every exp argument lies in
// [−708, 0], so each weight is at least e^−708/S > 0, and AV adds every
// product. q, k, v and out start at the head's first column of the
// sequence's first row, row stride stride; work holds AttentionWorkLen's
// room. Starting at row, it runs every lane group and returns (rows, 0),
// or stops after the first group in which a live lane's exp argument
// leaves [−708, 709] or is NaN and returns that group's first row and
// its lane mask: the caller redoes those rows on the scalar port
// (attnRowF64); the group's other rows are done.
//
//go:noescape
func attnF64AVX2(q, k, v, a, out, work []float64, rows, d, stride int, scale float64, row int) (stop, bad int)

// attnF64AVX512 is attnF64AVX2 on ZMM, eight query rows at a time.
//
//go:noescape
func attnF64AVX512(q, k, v, a, out, work []float64, rows, d, stride int, scale float64, row int) (stop, bad int)

// expShiftSumAsm is the AVX2 form of expShiftSumGo for a prefix of src:
// four lanes at a time, dst[j] = expF64(src[j] − shift) in expF64's
// operations (lanes with |x| < 2⁻²⁸ blended to 1+x, y·2^k through the
// exponent bits), each group's values added to sum in j order. The last
// 1–3 lanes run masked. It stops before the first group with a lane
// outside [−708, 709] or NaN and returns the number of elements done
// and the running sum; the caller runs that group on the scalar port.
//
//go:noescape
func expShiftSumAsm(src, dst []float64, shift, sum float64) (n int, total float64)

// geluF64Asm is the AVX2 form of geluRowGo, bitwise equal to it: four
// lanes at a time, u, then tanh's rational branch (|u| < 0.625) and its
// exp branch (1 − 2/(e^{2|u|}+1)) with one VDIVPD for both, a branch no
// lane takes skipped, and ±1 beyond MAXLOG/2. The last 1–3 lanes run
// masked; out may alias x.
//
//go:noescape
func geluF64Asm(x, out []float64)

// expShiftSum writes dst[j] = expF64(src[j] − shift) and returns their sum
// in j order, on the AVX2 kernel with the scalar port for groups it
// declines, or on expShiftSumGo without AVX2.
func expShiftSum(src, dst []float64, shift float64) float64 {
	if !haveSIMD {
		return expShiftSumGo(src, dst, shift, 0)
	}
	sum := 0.0
	for {
		n, s := expShiftSumAsm(src, dst, shift, sum)
		if n == len(src) {
			return s
		}
		g := min(n+4, len(src))
		sum = expShiftSumGo(src[n:g], dst[n:g], shift, s)
		src, dst = src[g:], dst[g:]
	}
}

// geluRow writes out[i] = geluF64(x[i]) on the AVX2 kernel, or on
// geluRowGo without AVX2.
func geluRow(x, out []float64) {
	if haveSIMD {
		geluF64Asm(x, out)
		return
	}
	geluRowGo(x, out)
}

// matMulRows overwrites out rows [lo,hi) with a·b (+ bias) on gemmF64,
// or on its Go mirror without AVX2.
func matMulRows(a, b *Matrix, bias []float64, out *Matrix, lo, hi int) {
	if !haveSIMD {
		matMulRowsGo(a, b, bias, out, lo, hi)
		return
	}
	if lo < hi {
		gemmF64(a.Data[lo*a.Cols:hi*a.Cols], b.Data, bias, out.Data[lo*out.Cols:hi*out.Cols],
			hi-lo, a.Cols, b.Cols, a.Cols, b.Cols, out.Cols)
	}
}

// attentionF64 dispatches the float64 attention forward to the SIMD
// kernel or the scalar mirror.
func attentionF64(q, k, v *Matrix, heads int, lens []int, scores, work []float64, out *Matrix) {
	if haveSIMD {
		attentionF64Asm(q, k, v, heads, lens, scores, work, out)
		return
	}
	attentionF64Go(q, k, v, heads, lens, scores, work, out)
}

// attnKernel returns the widest attention kernel the host has and its
// lane count.
func attnKernel() (kernel func(q, k, v, a, out, work []float64, rows, d, stride int, scale float64, row int) (stop, bad int), lanes int) {
	if haveAVX512 {
		return attnF64AVX512, 8
	}
	return attnF64AVX2, 4
}

// attentionF64Asm is attentionF64Go with one kernel call per (sequence,
// head), on ZMM where the host has AVX-512F: bitwise equal, the rows the
// kernel declines run on attnRowF64.
func attentionF64Asm(q, k, v *Matrix, heads int, lens []int, scores, work []float64, out *Matrix) {
	kernel, lanes := attnKernel()
	hidden := q.Cols
	d := hidden / heads
	scale := 1 / math.Sqrt(float64(d))
	off := 0
	for _, S := range lens {
		for h := 0; h < heads; h++ {
			A := scores[h*S*S : (h+1)*S*S]
			lo, hi := off*hidden+h*d, (off+S-1)*hidden+(h+1)*d
			for i := 0; i < S; i += lanes {
				var bad int
				i, bad = kernel(q.Data[lo:hi], k.Data[lo:hi], v.Data[lo:hi], A, out.Data[lo:hi], work, S, d, hidden, scale, i)
				for ; bad != 0; bad &= bad - 1 {
					attnRowF64(q, k, v, off, S, h*d, d, i+bits.TrailingZeros(uint(bad)), scale, A, out)
				}
			}
		}
		off += S
	}
}

// quantTile dispatches the quantize pass of one row tile.
func quantTile(x []float32, k, kPad int, qa []int16, rowMax []float32) {
	if haveSIMD {
		quantTileAsm(x, k, kPad, qa, rowMax)
		return
	}
	quantTileGo(x, k, kPad, qa, rowMax)
}

// int8Tile dispatches the matmul pass of one row tile to the best
// available kernel.
func int8Tile(qa []int16, wt []int8, acc []int32, rows, kPad, nPad int) {
	if haveVNNI {
		int8TileVNNI(qa, wt, acc, rows, kPad, nPad)
		return
	}
	if haveSIMD {
		int8TileAVX2(qa, wt, acc, rows, kPad, nPad)
		return
	}
	int8TileGo(qa, wt, acc, rows, kPad, nPad)
}

// dequantTile dispatches the dequantize pass of one row tile.
func dequantTile(acc []int32, nPad int, rowMax, scales, bias, out []float32) {
	if haveSIMD {
		dequantTileAsm(acc, nPad, rowMax, scales, bias, out)
		return
	}
	dequantTileGo(acc, nPad, rowMax, scales, bias, out)
}

// addLayerNormRow dispatches one residual-add + LayerNorm row to the AVX2
// kernel (widths that are multiples of 4) or its Go mirror.
func addLayerNormRow(x, resid, gamma, beta []float32, eps float32, out []float32) {
	if haveSIMD && len(x)%4 == 0 {
		addLayerNormRowAsm(x, resid, gamma, beta, eps, out)
		return
	}
	addLayerNormRowGo(x, resid, gamma, beta, eps, out)
}

// attnRow dispatches one attention query row to the AVX2 kernel (head
// widths that are multiples of 4) or its Go mirror.
func attnRow(q, kt, v, scores, out []float32, scale float32, vStride, S int) {
	if haveSIMD && len(q)%4 == 0 {
		attnRowAsm(q, kt, v, scores, out, scale, vStride, S)
		return
	}
	attnRowGo(q, kt, v, scores, out, scale, vStride, S)
}

// expShiftInPlace applies v[i] = exp(v[i]-shift) in place.
func expShiftInPlace(v []float32, shift float32) {
	if haveSIMD {
		n8 := len(v) &^ 7
		expShiftAsm(v[:n8], shift)
		expShiftGo(v[n8:], shift)
		return
	}
	expShiftGo(v, shift)
}

// geluInPlace applies GELU elementwise in place.
func geluInPlace(v []float32) {
	if haveSIMD {
		n8 := len(v) &^ 7
		gelu32Asm(v[:n8])
		geluGo(v[n8:])
		return
	}
	geluGo(v)
}
