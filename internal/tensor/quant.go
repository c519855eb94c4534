package tensor

import (
	"fmt"
)

// Int8 weight format — the weights of the int8 serve path.
//
// Weights quantize once at load time, symmetrically per output channel
// (per column of the [in, out] weight matrix): column j stores
// q_j[k] = round(w[k][j] / Scales[j]) with Scales[j] = max_k|w[k][j]|/127.
// Symmetric quantization keeps zero exactly representable (no zero-point
// arithmetic in the inner loop) and per-channel scales bound the
// dequantization error of every stored weight by Scales[j]/2, i.e. at most
// max|w_·j|/254 ≈ 0.4% of the column's largest weight.
//
// Activations quantize dynamically per row with the same symmetric scheme,
// the matmul accumulates int8·int8 products in int32 (127·127·K overflows
// int32 only beyond K ≈ 133 000 — two orders of magnitude above any FFN
// width here), and the result dequantizes straight back into the float32
// activation path: out[i][j] = rowScale[i] · Scales[j] · Σ_k qa[i][k]·q_j[k].
//
// Storage is blocked for the accumulation kernels: output channels are
// grouped in blocks of 16, and within a block the weights of two
// consecutive k's are interleaved per channel —
//
//	Data[jb·KPad·16 + (k/2)·32 + (j mod 16)·2 + (k mod 2)]
//
// — so one 32-byte load carries channels j..j+15 for the k-pair, exactly
// the operand VPMADDWD (AVX2) and VPDPWSSD (AVX-512 VNNI) want against a
// broadcast activation pair, with no horizontal reduction anywhere. K pads
// to KPad (multiple of 32) and N to NPad (multiple of 16) with zeros;
// padded lanes contribute nothing. The same layout feeds the pure-Go
// fallback, so a quantized bundle is byte-portable across hosts.

// Layout quanta: weight rows pad to int8KPadAlign k's, channels to
// int8NPadAlign.
const (
	int8KPadAlign = 32
	int8NPadAlign = 16
)

// Int8Matrix is a logically Rows×Cols (input×output) weight matrix stored
// quantized in the blocked channel-pair layout above.
type Int8Matrix struct {
	Rows, Cols int
	KPad, NPad int
	Data       []int8
	Scales     []float32 // len Cols; dequantized(k,j) = float32(At(k,j)) * Scales[j]
}

// At returns the quantized weight for input k, output channel j.
func (q *Int8Matrix) At(k, j int) int8 {
	return q.Data[(j/int8NPadAlign)*q.KPad*int8NPadAlign+
		(k/2)*2*int8NPadAlign+(j%int8NPadAlign)*2+k%2]
}

// CheckShape validates the matrix against a logical rows×cols shape, for
// deserialization paths that must reject malformed payloads before use.
func (q *Int8Matrix) CheckShape(rows, cols int) error {
	switch {
	case q.Rows != rows || q.Cols != cols:
		return fmt.Errorf("tensor: int8 matrix is %dx%d, want %dx%d", q.Rows, q.Cols, rows, cols)
	// Padding must be exactly canonical: the quantized-linear scratch is
	// sized from the logical dims, so an oversize-but-consistent pad would
	// pass here and then overrun the scratch at score time.
	case q.KPad != (rows+int8KPadAlign-1)&^(int8KPadAlign-1):
		return fmt.Errorf("tensor: int8 matrix KPad %d invalid for %d rows", q.KPad, rows)
	case q.NPad != (cols+int8NPadAlign-1)&^(int8NPadAlign-1):
		return fmt.Errorf("tensor: int8 matrix NPad %d invalid for %d cols", q.NPad, cols)
	case len(q.Data) != q.NPad*q.KPad:
		return fmt.Errorf("tensor: int8 matrix holds %d weights, want %d", len(q.Data), q.NPad*q.KPad)
	case len(q.Scales) != cols:
		return fmt.Errorf("tensor: int8 matrix has %d scales, want %d", len(q.Scales), cols)
	}
	// Pad lanes must stay zero: they feed the accumulators.
	for j := 0; j < q.NPad; j++ {
		for k := 0; k < q.KPad; k++ {
			if (j < cols && k < rows) || q.At(k, j) == 0 {
				continue
			}
			return fmt.Errorf("tensor: int8 matrix has nonzero padding at (%d,%d)", k, j)
		}
	}
	return nil
}

// QuantizeMatrix quantizes a float64 weight matrix ([in, out] row-major)
// to the blocked int8 form with symmetric per-column scales. An all-zero
// column gets scale 0 and quantizes to zeros (dequantizing to exactly 0).
func QuantizeMatrix(m *Matrix) *Int8Matrix {
	kPad := (m.Rows + int8KPadAlign - 1) &^ (int8KPadAlign - 1)
	nPad := (m.Cols + int8NPadAlign - 1) &^ (int8NPadAlign - 1)
	q := &Int8Matrix{
		Rows:   m.Rows,
		Cols:   m.Cols,
		KPad:   kPad,
		NPad:   nPad,
		Data:   make([]int8, nPad*kPad),
		Scales: make([]float32, m.Cols),
	}
	maxAbs := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if v < 0 {
				v = -v
			}
			if v > maxAbs[j] {
				maxAbs[j] = v
			}
		}
	}
	inv := make([]float64, m.Cols)
	for j, ma := range maxAbs {
		if ma == 0 {
			continue
		}
		q.Scales[j] = float32(ma / 127)
		inv[j] = 127 / ma
	}
	for k := 0; k < m.Rows; k++ {
		row := m.Row(k)
		for j, v := range row {
			q.Data[(j/int8NPadAlign)*kPad*int8NPadAlign+
				(k/2)*2*int8NPadAlign+(j%int8NPadAlign)*2+k%2] = roundToInt8(v * inv[j])
		}
	}
	return q
}

// roundToInt8 rounds half away from zero and clamps to [-127, 127] (the
// symmetric range; -128 is never produced so |q| ≤ 127 holds everywhere).
func roundToInt8(x float64) int8 {
	if x >= 0 {
		x += 0.5
		if x > 127 {
			return 127
		}
		return int8(x)
	}
	x -= 0.5
	if x < -127 {
		return -127
	}
	return int8(x)
}

// Dequantize32 expands the quantized weights back to the logical [in, out]
// float32 matrix — the reference the quantized kernel is tested against,
// and the error-bound witness: every element differs from the original by
// at most Scales[j]/2.
func (q *Int8Matrix) Dequantize32() *Matrix32 {
	out := NewMatrix32(q.Rows, q.Cols)
	for k := 0; k < q.Rows; k++ {
		for j := 0; j < q.Cols; j++ {
			out.Data[k*q.Cols+j] = float32(q.At(k, j)) * q.Scales[j]
		}
	}
	return out
}

// QuantScratch is the caller-owned working memory of the quantized linear
// kernel: the current activation row quantized to int8 range (widened to
// int16, the accumulation kernels' operand width) and the int32
// accumulator row. Sized by EnsureQuant for the widest K (input) and N
// (output) the caller will see.
type QuantScratch struct {
	qa  []int16
	acc []int32
}

// EnsureQuant grows the scratch to serve matmuls with inputs up to k wide
// and outputs up to n wide, both rounded up to the kernel layout quanta.
// Pad lanes of the activation buffer stay zero.
func (s *QuantScratch) EnsureQuant(k, n int) {
	kPad := (k + int8KPadAlign - 1) &^ (int8KPadAlign - 1)
	nPad := (n + int8NPadAlign - 1) &^ (int8NPadAlign - 1)
	if len(s.qa) < kPad {
		s.qa = make([]int16, kPad)
	}
	if len(s.acc) < nPad {
		s.acc = make([]int32, nPad)
	}
}

// InferQuantLinearInto computes out = x·w + bias with int8 arithmetic:
// each float32 activation row is symmetrically quantized to int8 range
// with its own dynamic scale, multiplied against the pre-quantized weights
// with int32 accumulation, and dequantized into float32 with the fused
// row×column scale. bias (float32, may be nil) is added after the matmul,
// matching the float paths' operation order.
func InferQuantLinearInto(x *Matrix32, w *Int8Matrix, bias *Matrix32, out *Matrix32, s *QuantScratch) {
	if x.Cols != w.Rows || out.Rows != x.Rows || out.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: InferQuantLinear shapes %dx%d · %dx%d -> %dx%d",
			x.Rows, x.Cols, w.Rows, w.Cols, out.Rows, out.Cols))
	}
	if bias != nil && (bias.Rows != 1 || bias.Cols != out.Cols) {
		panic(fmt.Sprintf("tensor: InferQuantLinear bias %dx%d for %d-wide output",
			bias.Rows, bias.Cols, out.Cols))
	}
	K, N := w.Rows, w.Cols
	s.EnsureQuant(K, N)
	qa := s.qa[:w.KPad]
	acc := s.acc[:w.NPad]
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		orow := out.Row(i)

		// Dynamic per-row activation scale.
		maxAbs := maxAbs32(xrow)
		if maxAbs == 0 {
			if bias != nil {
				copy(orow, bias.Data)
			} else {
				for j := range orow {
					orow[j] = 0
				}
			}
			continue
		}
		quantRow32(xrow, 127/maxAbs, qa)
		// The pad must be zero: the scratch is shared across layers of
		// different widths, so a previous wider row may have left values
		// in [K, KPad).
		for k := K; k < w.KPad; k++ {
			qa[k] = 0
		}

		int8MatVec(qa, w.Data, acc)

		var biasRow []float32
		if bias != nil {
			biasRow = bias.Data
		}
		dequantRow32(acc, w.Scales, maxAbs/127, biasRow, orow)
	}
}
