//go:build !amd64

package tensor

// Non-amd64 builds run every kernel through its pure-Go mirror: the
// float64 path gives the same bits, the int8 path works, just slower.

func matMulRows(a, b *Matrix, bias []float64, out *Matrix, lo, hi int) {
	matMulRowsGo(a, b, bias, out, lo, hi)
}

func attentionF64(q, k, v *Matrix, heads int, lens []int, scores, kt []float64, out *Matrix) {
	attentionF64Go(q, k, v, heads, lens, scores, kt, out)
}

func expShiftSum(src, dst []float64, shift float64) float64 {
	return expShiftSumGo(src, dst, shift, 0)
}

func geluRow(x, out []float64) { geluRowGo(x, out) }

func expShiftInPlace(v []float32, shift float32) { expShiftGo(v, shift) }
func geluInPlace(v []float32)                    { geluGo(v) }

func quantTile(x []float32, k, kPad int, qa []int16, rowMax []float32) {
	quantTileGo(x, k, kPad, qa, rowMax)
}

func int8Tile(qa []int16, wt []int8, acc []int32, rows, kPad, nPad int) {
	int8TileGo(qa, wt, acc, rows, kPad, nPad)
}

func dequantTile(acc []int32, nPad int, rowMax, scales, bias, out []float32) {
	dequantTileGo(acc, nPad, rowMax, scales, bias, out)
}

func addLayerNormRow(x, resid, gamma, beta []float32, eps float32, out []float32) {
	addLayerNormRowGo(x, resid, gamma, beta, eps, out)
}

func attnRow(q, kt, v, scores, out []float32, scale float32, vStride, S int) {
	attnRowGo(q, kt, v, scores, out, scale, vStride, S)
}
