// Package tensor provides dense float64 matrices and a reverse-mode
// automatic-differentiation engine, the numerical substrate for the
// command-line language model (§II-B) and the tuning objectives (§IV).
//
// The design is an eager tape: every operation computes its value
// immediately and records a closure that propagates gradients to its
// parents. Graphs are built per step and garbage-collected afterwards.
// Attention is a single fused operation with a hand-derived backward pass so
// that one transformer layer contributes a handful of tape nodes rather than
// thousands.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Validate reports an error unless m has at least one row and one column
// and Data holds exactly Rows·Cols values. It divides instead of
// multiplying, so a decoded header whose product overflows to len(Data)
// cannot pass; decoders of untrusted bytes call it before any Row.
func (m *Matrix) Validate() error {
	switch {
	case m.Rows < 1 || m.Cols < 1:
		return fmt.Errorf("empty %dx%d matrix", m.Rows, m.Cols)
	case len(m.Data)%m.Cols != 0 || len(m.Data)/m.Cols != m.Rows:
		return fmt.Errorf("%dx%d matrix backed by %d values", m.Rows, m.Cols, len(m.Data))
	}
	return nil
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// AddInPlace adds o elementwise into m.
func (m *Matrix) AddInPlace(o *Matrix) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AxpyInPlace performs m += alpha * o.
func (m *Matrix) AxpyInPlace(alpha float64, o *Matrix) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: Axpy shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	for i, v := range o.Data {
		m.Data[i] += alpha * v
	}
}

// Norm2 returns the Frobenius norm.
func (m *Matrix) Norm2() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// panelRows sizes a cache panel: how many rows of a width-cols float64
// matrix fit in roughly 256 KiB, clamped so tiling never degenerates.
func panelRows(cols int) int {
	if cols <= 0 {
		return 64
	}
	r := (256 << 10) / (8 * cols)
	if r < 16 {
		return 16
	}
	if r > 256 {
		return 256
	}
	return r
}

// matMulRowsGo overwrites out rows [lo,hi) with a·b, plus bias (one
// value per column) when bias is non-nil: the matmul accumulates first,
// from +0, and the bias is added after. It runs the i-k-j loop order,
// cache-blocked over k so a panel of b rows stays resident across the rows
// of a, and register-blocked four k-rows at a time so each output element
// is loaded and stored once per four multiply-adds instead of once per
// one. Both blockings keep k ascending per output element, so results are
// bitwise identical to the naive triple loop, and every product is rounded
// before it is added (float64(a*b)), so no compiler fuses the two. It is
// the portable GEMM and the mirror gemmF64Asm is tested against.
func matMulRowsGo(a, b *Matrix, bias []float64, out *Matrix, lo, hi int) {
	bk := panelRows(b.Cols)
	n := b.Cols
	clear(out.Data[lo*n : hi*n])
	for k0 := 0; k0 < b.Rows; k0 += bk {
		k1 := k0 + bk
		if k1 > b.Rows {
			k1 = b.Rows
		}
		for i := lo; i < hi; i++ {
			arow := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*n : (i+1)*n : (i+1)*n]
			k := k0
			for ; k+4 <= k1; k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				b0 := b.Data[k*n : (k+1)*n : (k+1)*n]
				b1 := b.Data[(k+1)*n : (k+2)*n : (k+2)*n]
				b2 := b.Data[(k+2)*n : (k+3)*n : (k+3)*n]
				b3 := b.Data[(k+3)*n : (k+4)*n : (k+4)*n]
				for j := range orow {
					s := orow[j]
					s += float64(a0 * b0[j])
					s += float64(a1 * b1[j])
					s += float64(a2 * b2[j])
					s += float64(a3 * b3[j])
					orow[j] = s
				}
			}
			for ; k < k1; k++ {
				av := arow[k]
				brow := b.Data[k*n : (k+1)*n : (k+1)*n]
				for j, bv := range brow {
					orow[j] += float64(av * bv)
				}
			}
		}
	}
	if bias == nil {
		return
	}
	for i := lo; i < hi; i++ {
		orow := out.Data[i*n : (i+1)*n]
		for j, bv := range bias[:n] {
			orow[j] += bv
		}
	}
}

// MatMulInto computes out = a·b, overwriting out. Shapes must agree.
// The kernel is cache-blocked (tiled) over the shared dimension and splits
// rows across GOMAXPROCS workers when the batch is large enough.
func MatMulInto(a, b, out *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	parallelRows(a.Rows, func(lo, hi int) {
		matMulRows(a, b, nil, out, lo, hi)
	})
}

// MatMul computes a·b into a new matrix.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(a, b, out)
	return out
}

// MatMulATBInto computes out += aᵀ·b without materializing the transpose.
// Note the accumulation: callers use it for gradient updates.
func MatMulATBInto(a, b, out *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shapes %dx%d ᵀ· %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
}

// matMulABTRows computes out rows [lo,hi) of a·bᵀ (accumulating), tiled
// over the rows of b so a panel stays cache-resident across rows of a. Each
// output element is one full-length dot product, so tiling does not change
// rounding.
func matMulABTRows(a, b, out *Matrix, lo, hi int) {
	bj := panelRows(b.Cols)
	for j0 := 0; j0 < b.Rows; j0 += bj {
		j1 := j0 + bj
		if j1 > b.Rows {
			j1 = b.Rows
		}
		for i := lo; i < hi; i++ {
			arow := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*b.Rows : (i+1)*b.Rows]
			for j := j0; j < j1; j++ {
				brow := b.Data[j*b.Cols : (j+1)*b.Cols]
				s := 0.0
				for k, av := range arow {
					s += av * brow[k]
				}
				orow[j] += s
			}
		}
	}
}

// MatMulABTInto computes out += a·bᵀ without materializing the transpose.
// The kernel is cache-blocked over the rows of b.
func MatMulABTInto(a, b, out *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT shapes %dx%d · %dx%d ᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	parallelRows(a.Rows, func(lo, hi int) {
		matMulABTRows(a, b, out, lo, hi)
	})
}

// TransposeOf returns aᵀ as a new matrix.
func TransposeOf(a *Matrix) *Matrix {
	out := NewMatrix(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range arow {
			out.Data[j*a.Rows+i] = v
		}
	}
	return out
}

// ParallelRows splits [0, n) across GOMAXPROCS workers when the work is
// large enough to amortize goroutine startup; otherwise it runs inline.
// Exported so row-independent scans elsewhere (e.g. batch kNN scoring)
// share one fan-out implementation.
func ParallelRows(n int, fn func(lo, hi int)) {
	parallelRows(n, fn)
}

// parallelRows is the internal implementation of ParallelRows.
func parallelRows(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || n < 64 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
