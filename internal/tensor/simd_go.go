package tensor

import "math"

// Pure-Go reference implementations of the low-precision SIMD kernels.
// They are the portable fallback and the oracle the assembly is tested
// against: the integer kernels, LayerNorm and attention bit for bit, the
// vector exp and GELU within float32 noise.

// quantTileGo quantizes a tile of len(rowMax) rows of x, each k wide,
// into qa, one kPad-wide row each: rowMax[i] = max|x_i|, then
// qa_i[c] = round(x_i[c]·127/rowMax[i]) half to even, as quantTileAsm's
// VCVTPS2DQ and VCVTSS2SI do under the default MXCSR, and the pad lanes
// [k, kPad) zero. An all-zero row records rowMax 0 and quantizes to zeros.
func quantTileGo(x []float32, k, kPad int, qa []int16, rowMax []float32) {
	for i := range rowMax {
		xrow := x[i*k : (i+1)*k]
		qrow := qa[i*kPad : (i+1)*kPad]
		m := float32(0)
		for _, v := range xrow {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		rowMax[i] = m
		inv := float32(0)
		if m != 0 {
			inv = 127 / m
		}
		for c, v := range xrow {
			qrow[c] = int16(math.RoundToEven(float64(v * inv)))
		}
		clear(qrow[k:])
	}
}

// int8TileGo computes acc_i[j] = Σ_k qa_i[k]·wt(k,j) in int32 for rows
// quantized rows (qa: kPad-wide rows, acc: nPad-wide rows) over the
// blocked channel-pair weight layout (see Int8Matrix): block jb holds
// channels jb·16..jb·16+15, 32 consecutive bytes carry one k-pair across
// the block's 16 channels, channel-major within the pair.
func int8TileGo(qa []int16, wt []int8, acc []int32, rows, kPad, nPad int) {
	for i := 0; i < rows; i++ {
		qrow := qa[i*kPad : (i+1)*kPad]
		for jb := 0; jb < nPad/int8NPadAlign; jb++ {
			block := wt[jb*kPad*int8NPadAlign : (jb+1)*kPad*int8NPadAlign]
			arow := acc[i*nPad+jb*int8NPadAlign : i*nPad+(jb+1)*int8NPadAlign]
			for jl := range arow {
				var s int32
				off := jl * 2
				for k := 0; k < kPad; k += 2 {
					s += int32(qrow[k])*int32(block[k*int8NPadAlign+off]) +
						int32(qrow[k+1])*int32(block[k*int8NPadAlign+off+1])
				}
				arow[jl] = s
			}
		}
	}
}

// dequantTileGo writes out_i[j] = acc_i[j]·(rowMax[i]/127)·scales[j]
// (+ bias[j] when bias is non-nil) for len(rowMax) rows of
// n = len(scales) outputs (acc: nPad-wide rows, out: n-wide rows). A row
// whose rowMax is 0 was all zeros and gets exactly the bias (or zeros).
// The float32 conversion rounds the product before the bias add, as
// dequantTileAsm does, on hosts that would otherwise fuse the two.
func dequantTileGo(acc []int32, nPad int, rowMax, scales, bias, out []float32) {
	n := len(scales)
	for i, m := range rowMax {
		arow := acc[i*nPad : i*nPad+n]
		orow := out[i*n : (i+1)*n]
		switch {
		case m == 0 && bias != nil:
			copy(orow, bias)
		case m == 0:
			clear(orow)
		case bias != nil:
			rowScale := m / 127
			for j := range orow {
				orow[j] = float32(float32(arow[j])*rowScale*scales[j]) + bias[j]
			}
		default:
			rowScale := m / 127
			for j := range orow {
				orow[j] = float32(arow[j]) * rowScale * scales[j]
			}
		}
	}
}

// expShiftGo applies v[i] = fastExp32(v[i] - shift) in place.
func expShiftGo(v []float32, shift float32) {
	for i, x := range v {
		v[i] = fastExp32(x - shift)
	}
}

// geluGo applies the tanh-approximated GELU in place via fastTanh32.
func geluGo(x []float32) {
	c := float32(geluConst)
	for i, v := range x {
		u := c * (v + 0.044715*v*v*v)
		x[i] = 0.5 * v * (1 + fastTanh32(u))
	}
}

// hsum8 sums eight lanes in the fixed order ((l0+l4)+(l2+l6)) +
// ((l1+l5)+(l3+l7)) — the assembly's HSUM8 reduction.
func hsum8(a *[8]float32) float32 {
	s0, s1, s2, s3 := a[0]+a[4], a[1]+a[5], a[2]+a[6], a[3]+a[7]
	return (s0 + s2) + (s1 + s3)
}

// addLayerNormRowGo adds resid into x (x[i] += resid[i]; resid may be nil)
// and writes out[i] = ((x[i]-mean)·is)·gamma[i] + beta[i] with
// is = 1/√(var+eps); out may alias x. Both sums put element i in lane
// i mod 8 and reduce with hsum8, and every product rounds before it is
// added (the float32 conversions stop FMA fusion on hosts that have it),
// so this is bitwise addLayerNormRowAsm.
func addLayerNormRowGo(x, resid, gamma, beta []float32, eps float32, out []float32) {
	var acc [8]float32
	if resid != nil {
		for i, r := range resid[:len(x)] {
			x[i] += r
		}
	}
	for i, v := range x {
		acc[i&7] += v
	}
	n := float32(len(x))
	mean := hsum8(&acc) / n
	acc = [8]float32{}
	for i, v := range x {
		d := v - mean
		acc[i&7] += float32(d * d)
	}
	is := 1 / sqrt32(hsum8(&acc)/n+eps)
	for i, v := range x {
		out[i] = float32(float32((v-mean)*is)*gamma[i]) + beta[i]
	}
}

// attnRowGo computes one query row of one head's attention, bitwise
// attnRowAsm: with d = len(q) and Sp = len(scores) (S rounded up to 8),
// scores[j] = scale·Σ_c q[c]·kt[c·Sp+j] over all Sp lanes, then
// e_j = exp(scores[j] - max_{j<S}) through the vector exp over all Sp
// lanes, then out[c] = (Σ_{j<S} e_j·v[j·vStride+c]) · (1/Σ_{j<S} e_j).
// Dot products run from zero in ascending order with each product
// rounded; the exp sum uses the hsum8 lane order. Pad lanes (j ≥ S) never
// reach the max, the sum or AV.
func attnRowGo(q, kt, v, scores, out []float32, scale float32, vStride, S int) {
	sp := len(scores)
	for j := range scores {
		s := float32(0)
		for c, qv := range q {
			s += float32(qv * kt[c*sp+j])
		}
		scores[j] = s * scale
	}
	top := scores[0]
	for _, s := range scores[1:S] {
		if s > top {
			top = s
		}
	}
	expShiftInPlace(scores, top)
	var lanes [8]float32
	for j, e := range scores[:S] {
		lanes[j&7] += e
	}
	inv := 1 / hsum8(&lanes)
	for c := range out {
		s := float32(0)
		for j, e := range scores[:S] {
			s += float32(e * v[j*vStride+c])
		}
		out[c] = s * inv
	}
}
