package tensor

// SIMD backends for the low-precision serve path. The float64 kernels stay
// pure Go — they are the bitwise-golden reference — but the int8 path and
// its float32 activation kernels exist to trade exactness for speed, so
// on amd64 they dispatch to AVX2/FMA (and, for the int8 accumulation,
// AVX-512 VNNI when present) assembly after a runtime CPUID check; pure-Go
// fallbacks cover older hosts and other architectures. The LayerNorm and
// attention kernels are bitwise equal to their Go mirrors (same lane
// order, no FMA, and the attention mirror runs the same vector exp); the
// vector exp and GELU differ from the scalar fastExp32/fastTanh32 in the
// last bits, inside the int8 path's documented tolerance. Within one
// process the kernels are deterministic, so dedup, score-memo hits, and
// repeated scoring stay exactly reproducible.

// haveSIMD gates the AVX2 kernels: AVX2 + FMA + OS-enabled YMM state.
// haveVNNI additionally gates the AVX-512 VNNI int8 kernel.
var (
	haveSIMD = x86HasAVX2FMA()
	haveVNNI = haveSIMD && x86HasAVX512VNNI()
)

// x86HasAVX2FMA reports CPUID support for AVX2 and FMA with OS-saved YMM
// registers (implemented in simd_amd64.s).
func x86HasAVX2FMA() bool

// x86HasAVX512VNNI reports CPUID support for AVX-512 F/BW/VNNI with
// OS-saved ZMM and opmask state (implemented in simd_amd64.s).
func x86HasAVX512VNNI() bool

// int8MatVecAVX2 computes acc[j] = Σ_k qa[k]·wt(k,j) over the blocked
// channel-pair layout with VPMADDWD/VPADDD, one k-pair per step.
// len(qa) = KPad (multiple of 4), len(acc) = NPad (multiple of 16),
// len(wt) = KPad·NPad.
//
//go:noescape
func int8MatVecAVX2(qa []int16, wt []int8, acc []int32)

// int8MatVecVNNI is the same contract fused onto AVX-512 VPDPWSSD:
// 16-channel blocks accumulate in one ZMM with no widening shuffles, two
// k-pairs (4 k's, the KPad quantum) per step.
//
//go:noescape
func int8MatVecVNNI(qa []int16, wt []int8, acc []int32)

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

// maxAbs32Asm returns max|v[i]| over len(v) (multiple of 8, nonzero).
//
//go:noescape
func maxAbs32Asm(v []float32) float32

// quantRow32Asm writes qa[i] = int16(round(x[i]·inv)) for len(x) elements
// (multiple of 8); rounding is nearest-even.
//
//go:noescape
func quantRow32Asm(x []float32, inv float32, qa []int16)

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

// dequantRow32Asm writes out[j] = float32(acc[j])·rowScale·scales[j] +
// bias[j] for len(out) elements (multiple of 8).
//
//go:noescape
func dequantRow32Asm(acc []int32, scales []float32, rowScale float32, bias, out []float32)

// maxAbs32 returns max|v[i]|.
func maxAbs32(v []float32) float32 {
	n8 := 0
	m := float32(0)
	if haveSIMD && len(v) >= 8 {
		n8 = len(v) &^ 7
		m = maxAbs32Asm(v[:n8])
	}
	return maxAbs32Tail(v[n8:], m)
}

// quantRow32 fills qa[:len(x)] with the symmetric int8-range quantization
// of x at scale 1/inv.
func quantRow32(x []float32, inv float32, qa []int16) {
	n8 := 0
	if haveSIMD && len(x) >= 8 {
		n8 = len(x) &^ 7
		quantRow32Asm(x[:n8], inv, qa)
	}
	quantRow32Tail(x[n8:], inv, qa[n8:])
}

// dequantRow32 writes out[j] = acc[j]·rowScale·scales[j] (+ bias[j] when
// bias is non-nil).
func dequantRow32(acc []int32, scales []float32, rowScale float32, bias, out []float32) {
	if bias == nil || !haveSIMD || len(out) < 8 {
		dequantRow32Tail(acc, scales, rowScale, bias, out)
		return
	}
	n8 := len(out) &^ 7
	dequantRow32Asm(acc, scales, rowScale, bias, out[:n8])
	dequantRow32Tail(acc[n8:], scales[n8:], rowScale, bias[n8:], out[n8:])
}

// int8MatVec dispatches one quantized matvec to the best available kernel.
func int8MatVec(qa []int16, wt []int8, acc []int32) {
	if haveVNNI {
		int8MatVecVNNI(qa, wt, acc)
		return
	}
	if haveSIMD {
		int8MatVecAVX2(qa, wt, acc)
		return
	}
	int8MatVecGo(qa, wt, acc)
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
