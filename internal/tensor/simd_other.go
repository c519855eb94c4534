//go:build !amd64

package tensor

// Non-amd64 builds run the low-precision kernels through the pure-Go
// fallbacks; the int8 path still works, just slower.

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
