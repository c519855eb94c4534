package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// layerNormTwoStep is the float64 forward's add+LayerNorm before it was
// fused: x.AddInPlace(resid) when resid is non-nil, then one row at a time
// the mean's sum, the variance's sum and the normalization, into out (which
// may alias x).
func layerNormTwoStep(x, resid, gamma, beta *Matrix, eps float64, out *Matrix) {
	if resid != nil {
		x.AddInPlace(resid)
	}
	n := x.Cols
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

// TestAddLayerNormF64MatchesTwoStep pins InferAddLayerNormInto to
// layerNormTwoStep bit for bit, the residual sum written back into x
// included: rows through two 4-row groups plus every tail, widths from 1
// to past the encoder's, with and without a residual, into a separate
// out and in place, on plain inputs and on inputs laced with -0, ±Inf,
// NaN and subnormals, without writing past the output.
func TestAddLayerNormF64MatchesTwoStep(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for rows := 1; rows <= 9; rows++ {
		for _, n := range []int{1, 3, 4, 16, 64, 100} {
			for _, every := range []int{0, 4} {
				gamma := FromSlice(1, n, randSpecial64(rng, n, 1, every))
				beta := FromSlice(1, n, randSpecial64(rng, n, 1, every))
				x := FromSlice(rows, n, randSpecial64(rng, rows*n, 3, every))
				for i := range x.Data {
					x.Data[i] += 0.5 // a nonzero mean exercises the centering
				}
				for _, withResid := range []bool{false, true} {
					var resid *Matrix
					if withResid {
						resid = FromSlice(rows, n, randSpecial64(rng, rows*n, 1, every))
					}
					for _, alias := range []bool{false, true} {
						name := fmt.Sprintf("rows=%d n=%d every=%d resid=%v alias=%v", rows, n, every, withResid, alias)
						xWant, xGot := x.Clone(), guardedMatrix(rows, n, 8)
						copy(xGot.Data, x.Data)
						outWant, outGot := xWant, xGot
						if !alias {
							outWant, outGot = NewMatrix(rows, n), guardedMatrix(rows, n, 8)
						}
						layerNormTwoStep(xWant, resid, gamma, beta, 1e-5, outWant)
						InferAddLayerNormInto(xGot, resid, gamma, beta, 1e-5, outGot)
						sameBits64(t, "x "+name, xGot.Data, xWant.Data)
						sameBits64(t, "out "+name, outGot.Data, outWant.Data)
						checkGuard(t, name, xGot)
						checkGuard(t, name, outGot)
					}
				}
			}
		}
	}
}

// BenchmarkAddLayerNormF64 runs the float64 add+LayerNorm over 514 rows
// of the bench bundle's 64-wide hidden state, fused and in the two-step
// form, and reports ns/row.
func BenchmarkAddLayerNormF64(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const rows, n = 514, 64
	gamma, beta := randMatrix(rng, 1, n), randMatrix(rng, 1, n)
	x, resid := randMatrix(rng, rows, n), randMatrix(rng, rows, n)
	for _, k := range []struct {
		name string
		fn   func(x, resid, gamma, beta *Matrix, eps float64, out *Matrix)
	}{{"fused", InferAddLayerNormInto}, {"two-step", layerNormTwoStep}} {
		b.Run(k.name, func(b *testing.B) {
			for b.Loop() {
				k.fn(x, resid, gamma, beta, 1e-5, x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
