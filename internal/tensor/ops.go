package tensor

import (
	"fmt"
	"math"
)

// MatMulT computes a·b with gradient support.
func MatMulT(a, b *Tensor) *Tensor {
	val := MatMul(a.Val, b.Val)
	var out *Tensor
	out = newNode("matmul", val, func() {
		if a.needGrad {
			MatMulABTInto(out.Grad, b.Val, a.ensureGrad()) // dA += dOut·Bᵀ
		}
		if b.needGrad {
			MatMulATBInto(a.Val, out.Grad, b.ensureGrad()) // dB += Aᵀ·dOut
		}
	}, a, b)
	return out
}

// Add computes a+b elementwise (same shape).
func Add(a, b *Tensor) *Tensor {
	if !a.Val.SameShape(b.Val) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %dx%d vs %dx%d",
			a.Val.Rows, a.Val.Cols, b.Val.Rows, b.Val.Cols))
	}
	val := a.Val.Clone()
	val.AddInPlace(b.Val)
	var out *Tensor
	out = newNode("add", val, func() {
		if a.needGrad {
			a.ensureGrad().AddInPlace(out.Grad)
		}
		if b.needGrad {
			b.ensureGrad().AddInPlace(out.Grad)
		}
	}, a, b)
	return out
}

// Sub computes a-b elementwise.
func Sub(a, b *Tensor) *Tensor {
	if !a.Val.SameShape(b.Val) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %dx%d vs %dx%d",
			a.Val.Rows, a.Val.Cols, b.Val.Rows, b.Val.Cols))
	}
	val := a.Val.Clone()
	val.AxpyInPlace(-1, b.Val)
	var out *Tensor
	out = newNode("sub", val, func() {
		if a.needGrad {
			a.ensureGrad().AddInPlace(out.Grad)
		}
		if b.needGrad {
			b.ensureGrad().AxpyInPlace(-1, out.Grad)
		}
	}, a, b)
	return out
}

// Mul computes the elementwise (Hadamard) product.
func Mul(a, b *Tensor) *Tensor {
	if !a.Val.SameShape(b.Val) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %dx%d vs %dx%d",
			a.Val.Rows, a.Val.Cols, b.Val.Rows, b.Val.Cols))
	}
	val := NewMatrix(a.Val.Rows, a.Val.Cols)
	for i := range val.Data {
		val.Data[i] = a.Val.Data[i] * b.Val.Data[i]
	}
	var out *Tensor
	out = newNode("mul", val, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] * b.Val.Data[i]
			}
		}
		if b.needGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] * a.Val.Data[i]
			}
		}
	}, a, b)
	return out
}

// Div computes a/b elementwise. b must be nonzero everywhere.
func Div(a, b *Tensor) *Tensor {
	if !a.Val.SameShape(b.Val) {
		panic(fmt.Sprintf("tensor: Div shape mismatch %dx%d vs %dx%d",
			a.Val.Rows, a.Val.Cols, b.Val.Rows, b.Val.Cols))
	}
	val := NewMatrix(a.Val.Rows, a.Val.Cols)
	for i := range val.Data {
		val.Data[i] = a.Val.Data[i] / b.Val.Data[i]
	}
	var out *Tensor
	out = newNode("div", val, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] / b.Val.Data[i]
			}
		}
		if b.needGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				bv := b.Val.Data[i]
				g.Data[i] -= out.Grad.Data[i] * a.Val.Data[i] / (bv * bv)
			}
		}
	}, a, b)
	return out
}

// Scale multiplies every element by the constant s.
func Scale(a *Tensor, s float64) *Tensor {
	val := a.Val.Clone()
	val.ScaleInPlace(s)
	var out *Tensor
	out = newNode("scale", val, func() {
		if a.needGrad {
			a.ensureGrad().AxpyInPlace(s, out.Grad)
		}
	}, a)
	return out
}

// AddRowVec adds the 1×n row vector v to every row of a (bias broadcast).
func AddRowVec(a, v *Tensor) *Tensor {
	if v.Val.Rows != 1 || v.Val.Cols != a.Val.Cols {
		panic(fmt.Sprintf("tensor: AddRowVec %dx%d + %dx%d",
			a.Val.Rows, a.Val.Cols, v.Val.Rows, v.Val.Cols))
	}
	val := a.Val.Clone()
	for i := 0; i < val.Rows; i++ {
		row := val.Row(i)
		for j, b := range v.Val.Data {
			row[j] += b
		}
	}
	var out *Tensor
	out = newNode("addrow", val, func() {
		if a.needGrad {
			a.ensureGrad().AddInPlace(out.Grad)
		}
		if v.needGrad {
			g := v.ensureGrad()
			for i := 0; i < out.Grad.Rows; i++ {
				row := out.Grad.Row(i)
				for j, gv := range row {
					g.Data[j] += gv
				}
			}
		}
	}, a, v)
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Tensor) *Tensor {
	val := TransposeOf(a.Val)
	var out *Tensor
	out = newNode("transpose", val, func() {
		if a.needGrad {
			a.ensureGrad().AddInPlace(TransposeOf(out.Grad))
		}
	}, a)
	return out
}

// GatherRows selects rows of a by index (with repetition allowed); the
// gradient scatters (accumulates) back. Used for embedding lookup and for
// extracting [CLS] positions.
func GatherRows(a *Tensor, idx []int) *Tensor {
	val := NewMatrix(len(idx), a.Val.Cols)
	for i, r := range idx {
		if r < 0 || r >= a.Val.Rows {
			panic(fmt.Sprintf("tensor: GatherRows index %d out of %d rows", r, a.Val.Rows))
		}
		copy(val.Row(i), a.Val.Row(r))
	}
	rows := make([]int, len(idx))
	copy(rows, idx)
	var out *Tensor
	out = newNode("gather", val, func() {
		if !a.needGrad {
			return
		}
		g := a.ensureGrad()
		for i, r := range rows {
			grow := g.Row(r)
			srow := out.Grad.Row(i)
			for j, v := range srow {
				grow[j] += v
			}
		}
	}, a)
	return out
}

// RowSum reduces each row to its sum: [m,n] -> [m,1].
func RowSum(a *Tensor) *Tensor {
	val := NewMatrix(a.Val.Rows, 1)
	for i := 0; i < a.Val.Rows; i++ {
		s := 0.0
		for _, v := range a.Val.Row(i) {
			s += v
		}
		val.Data[i] = s
	}
	var out *Tensor
	out = newNode("rowsum", val, func() {
		if !a.needGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < g.Rows; i++ {
			gv := out.Grad.Data[i]
			row := g.Row(i)
			for j := range row {
				row[j] += gv
			}
		}
	}, a)
	return out
}

// SumAll reduces the whole matrix to a 1×1 scalar.
func SumAll(a *Tensor) *Tensor {
	s := 0.0
	for _, v := range a.Val.Data {
		s += v
	}
	val := NewMatrix(1, 1)
	val.Data[0] = s
	var out *Tensor
	out = newNode("sumall", val, func() {
		if !a.needGrad {
			return
		}
		g := a.ensureGrad()
		gv := out.Grad.Data[0]
		for i := range g.Data {
			g.Data[i] += gv
		}
	}, a)
	return out
}

// Log applies the natural logarithm elementwise; inputs must be positive.
func Log(a *Tensor) *Tensor {
	val := NewMatrix(a.Val.Rows, a.Val.Cols)
	for i, v := range a.Val.Data {
		val.Data[i] = math.Log(v)
	}
	var out *Tensor
	out = newNode("log", val, func() {
		if !a.needGrad {
			return
		}
		g := a.ensureGrad()
		for i := range g.Data {
			g.Data[i] += out.Grad.Data[i] / a.Val.Data[i]
		}
	}, a)
	return out
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	val := NewMatrix(a.Val.Rows, a.Val.Cols)
	for i, v := range a.Val.Data {
		if v > 0 {
			val.Data[i] = v
		}
	}
	var out *Tensor
	out = newNode("relu", val, func() {
		if !a.needGrad {
			return
		}
		g := a.ensureGrad()
		for i := range g.Data {
			if a.Val.Data[i] > 0 {
				g.Data[i] += out.Grad.Data[i]
			}
		}
	}, a)
	return out
}

// GELU applies the Gaussian error linear unit (tanh approximation, as in
// BERT) elementwise, on the same kernel as InferGELUInPlace.
func GELU(a *Tensor) *Tensor {
	val := NewMatrix(a.Val.Rows, a.Val.Cols)
	geluRow(a.Val.Data, val.Data)
	var out *Tensor
	out = newNode("gelu", val, func() {
		if !a.needGrad {
			return
		}
		g := a.ensureGrad()
		for i := range g.Data {
			x := a.Val.Data[i]
			u := float64(geluConst * (x + float64(0.044715*x*x*x)))
			t := tanhF64(u)
			du := geluConst * (1 + float64(3*0.044715*x*x))
			d := float64(0.5*(1+t)) + float64(0.5*x*(1-float64(t*t))*du)
			g.Data[i] += float64(out.Grad.Data[i] * d)
		}
	}, a)
	return out
}

// Dropout zeroes each element with probability p during training and scales
// survivors by 1/(1-p) (inverted dropout). rng must be non-nil when p > 0.
// With p == 0 the input tensor is returned unchanged.
func Dropout(a *Tensor, p float64, rng randSource) *Tensor {
	if p <= 0 {
		return a
	}
	if p >= 1 {
		panic("tensor: dropout probability must be < 1")
	}
	keep := 1 - p
	mask := make([]float64, len(a.Val.Data))
	val := NewMatrix(a.Val.Rows, a.Val.Cols)
	for i, v := range a.Val.Data {
		if rng.Float64() < keep {
			mask[i] = 1 / keep
			val.Data[i] = v / keep
		}
	}
	var out *Tensor
	out = newNode("dropout", val, func() {
		if !a.needGrad {
			return
		}
		g := a.ensureGrad()
		for i := range g.Data {
			g.Data[i] += out.Grad.Data[i] * mask[i]
		}
	}, a)
	return out
}

// randSource is the subset of *math/rand.Rand the package needs; accepting
// an interface keeps determinism in the caller's hands.
type randSource interface {
	Float64() float64
}
