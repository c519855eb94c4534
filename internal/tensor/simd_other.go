//go:build !amd64

package tensor

// Non-amd64 builds run the low-precision kernels through the pure-Go
// fallbacks; the int8 path still works, just slower.

func int8MatVec(qa []int16, wt []int8, acc []int32) { int8MatVecGo(qa, wt, acc) }
func expShiftInPlace(v []float32, shift float32)    { expShiftGo(v, shift) }
func geluInPlace(v []float32)                       { geluGo(v) }

func maxAbs32(v []float32) float32 { return maxAbs32Tail(v, 0) }

func quantRow32(x []float32, inv float32, qa []int16) { quantRow32Tail(x, inv, qa) }

func dequantRow32(acc []int32, scales []float32, rowScale float32, bias, out []float32) {
	dequantRow32Tail(acc, scales, rowScale, bias, out)
}

func addLayerNormRow(x, resid, gamma, beta []float32, eps float32, out []float32) {
	addLayerNormRowGo(x, resid, gamma, beta, eps, out)
}

func attnRow(q, kt, v, scores, out []float32, scale float32, vStride, S int) {
	attnRowGo(q, kt, v, scores, out, scale, vStride, S)
}
