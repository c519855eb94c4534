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
// haveVNNI additionally gates the AVX-512 VNNI int8 matmul kernel.
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
