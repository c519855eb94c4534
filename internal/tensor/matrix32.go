package tensor

import (
	"fmt"
	"math"
)

// Matrix32 is a dense row-major matrix of float32 — the activation type of
// the int8 serve path (weights are int8, activations, norms and biases
// float32). float64 remains the canonical training/golden representation;
// Matrix32 exists only on the forward-only inference path.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix32 allocates a zeroed rows×cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Narrow converts a float64 matrix to float32, rounding each element once.
func Narrow(m *Matrix) *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// Widen converts back to float64 (exact: every float32 is a float64).
func (m *Matrix32) Widen() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// Row returns a mutable view of row i.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix32) SameShape(o *Matrix32) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// Zero sets every element to 0.
func (m *Matrix32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// AddInPlace adds o elementwise into m.
func (m *Matrix32) AddInPlace(o *Matrix32) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// fastExp32 approximates e^x in float32: range-reduce x = k·ln2 + r with
// |r| ≤ ln2/2, evaluate e^r by a degree-7 Taylor/Horner polynomial, and
// scale by 2^k through the float32 exponent bits. Maximum relative error is
// ~3e-7 over the softmax/GELU range — two orders of magnitude below the
// float32 rounding noise the low-precision path already accepts — at a
// fraction of math.Exp's cost (no float64 round trip, no table lookup).
// Inputs below -87 flush to 0 and above +88 saturate to +Inf, matching
// float32 exp limits.
func fastExp32(x float32) float32 {
	if x > 88 {
		return float32(math.Inf(1))
	}
	if x < -87 {
		return 0
	}
	// k = round(x/ln2). The ln2 split is the classic Cephes float32 pair:
	// c1 has only 10 significand bits, so k·c1 is exact for |k| ≤ 2^13 and
	// the reduction loses no precision even at the range edges.
	const invLn2 = 1.4426950408889634
	const c1 = 0.693359375
	const c2 = -2.12194440e-4
	kf := x*invLn2 + 0.5
	if x < 0 {
		kf = x*invLn2 - 0.5
	}
	k := int32(kf)
	r := x - float32(k)*c1
	r -= float32(k) * c2
	// e^r, |r| ≤ 0.3466: degree-7 Taylor polynomial in Horner form
	// (truncation ≤ r^8/8! ≈ 5e-9 relative at the interval edge).
	p := float32(1.0 / 5040)
	p = p*r + 1.0/720
	p = p*r + 1.0/120
	p = p*r + 1.0/24
	p = p*r + 1.0/6
	p = p*r + 0.5
	p = p*r + 1
	p = p*r + 1
	return p * math.Float32frombits(uint32(127+k)<<23)
}

// fastTanh32 computes tanh via fastExp32: tanh(x) = 1 − 2/(e^{2x}+1), odd
// symmetry applied so the exponential argument is always ≥ 0 (no
// cancellation). |x| ≥ 9.02 saturates to ±1 exactly as float32 tanh does.
func fastTanh32(x float32) float32 {
	neg := x < 0
	if neg {
		x = -x
	}
	var t float32
	if x >= 9.02 {
		t = 1
	} else {
		t = 1 - 2/(fastExp32(2*x)+1)
	}
	if neg {
		return -t
	}
	return t
}

// softmaxInto32 writes softmax(src) into dst (may alias src) using the
// numerically stable max-shift; the exponentials run through the
// vectorized exp kernel where available.
func softmaxInto32(dst, src []float32) {
	max := src[0]
	for _, v := range src[1:] {
		if v > max {
			max = v
		}
	}
	copy(dst, src)
	expShiftInPlace(dst, max)
	sum := float32(0)
	for _, e := range dst {
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}
