package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// checkGrad verifies the analytic gradient of every parameter against a
// central finite difference of the scalar produced by build. build must
// construct a fresh graph from the shared leaf tensors on every call.
func checkGrad(t *testing.T, name string, params []*Tensor, build func() *Tensor) {
	t.Helper()
	const eps = 1e-5
	const tol = 1e-4

	for _, p := range params {
		p.Grad = nil
	}
	loss := build()
	if err := loss.Backward(); err != nil {
		t.Fatalf("%s: Backward: %v", name, err)
	}
	for pi, p := range params {
		analytic := NewMatrix(p.Val.Rows, p.Val.Cols)
		if p.Grad != nil {
			copy(analytic.Data, p.Grad.Data)
		}
		for i := range p.Val.Data {
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + eps
			up := build().Item()
			p.Val.Data[i] = orig - eps
			down := build().Item()
			p.Val.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			got := analytic.Data[i]
			denom := math.Max(1, math.Max(math.Abs(numeric), math.Abs(got)))
			if math.Abs(got-numeric)/denom > tol {
				t.Errorf("%s: param %d elem %d: analytic %.8f vs numeric %.8f",
					name, pi, i, got, numeric)
			}
		}
	}
}

func randVar(r *rand.Rand, rows, cols int) *Tensor {
	return Var(randMatrix(r, rows, cols))
}

func TestGradMatMul(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	a := randVar(r, 3, 4)
	b := randVar(r, 4, 2)
	checkGrad(t, "matmul", []*Tensor{a, b}, func() *Tensor {
		return SumAll(MatMulT(a, b))
	})
}

func TestGradAddSubMulDiv(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randVar(r, 3, 3)
	b := randVar(r, 3, 3)
	// Keep divisors away from zero.
	for i := range b.Val.Data {
		b.Val.Data[i] = 1.5 + math.Abs(b.Val.Data[i])
	}
	checkGrad(t, "add", []*Tensor{a, b}, func() *Tensor { return SumAll(Add(a, b)) })
	checkGrad(t, "sub", []*Tensor{a, b}, func() *Tensor { return SumAll(Sub(a, b)) })
	checkGrad(t, "mul", []*Tensor{a, b}, func() *Tensor { return SumAll(Mul(a, b)) })
	checkGrad(t, "div", []*Tensor{a, b}, func() *Tensor { return SumAll(Div(a, b)) })
}

func TestGradScaleAddRowVecTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	a := randVar(r, 4, 3)
	v := randVar(r, 1, 3)
	checkGrad(t, "scale", []*Tensor{a}, func() *Tensor { return SumAll(Scale(a, -2.5)) })
	checkGrad(t, "addrow", []*Tensor{a, v}, func() *Tensor {
		return SumAll(Mul(AddRowVec(a, v), AddRowVec(a, v)))
	})
	checkGrad(t, "transpose", []*Tensor{a}, func() *Tensor {
		return SumAll(Mul(Transpose(a), Transpose(a)))
	})
}

func TestGradGatherRows(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randVar(r, 5, 3)
	idx := []int{0, 2, 2, 4} // repetition exercises scatter-accumulate
	checkGrad(t, "gather", []*Tensor{a}, func() *Tensor {
		g := GatherRows(a, idx)
		return SumAll(Mul(g, g))
	})
}

func TestGradReductions(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	a := randVar(r, 3, 4)
	checkGrad(t, "rowsum", []*Tensor{a}, func() *Tensor {
		rs := RowSum(a)
		return SumAll(Mul(rs, rs))
	})
	checkGrad(t, "meanall", []*Tensor{a}, func() *Tensor {
		return Mul(MeanAll(a), MeanAll(a))
	})
}

func TestGradActivations(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	a := randVar(r, 3, 4)
	checkGrad(t, "gelu", []*Tensor{a}, func() *Tensor { return SumAll(GELU(a)) })

	// ReLU: keep inputs away from the kink at zero.
	b := randVar(r, 3, 4)
	for i := range b.Val.Data {
		if math.Abs(b.Val.Data[i]) < 0.1 {
			b.Val.Data[i] = 0.5
		}
	}
	checkGrad(t, "relu", []*Tensor{b}, func() *Tensor { return SumAll(ReLU(b)) })

	// Log: positive inputs only.
	c := randVar(r, 3, 4)
	for i := range c.Val.Data {
		c.Val.Data[i] = 0.5 + math.Abs(c.Val.Data[i])
	}
	checkGrad(t, "log", []*Tensor{c}, func() *Tensor { return SumAll(Log(c)) })
}

func TestGradSoftmax(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	a := randVar(r, 3, 5)
	w := Const(randMatrix(r, 3, 5)) // random projection makes the test sharp
	checkGrad(t, "softmax", []*Tensor{a}, func() *Tensor {
		return SumAll(Mul(SoftmaxRows(a), w))
	})
}

func TestGradLayerNorm(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a := randVar(r, 3, 6)
	gamma := randVar(r, 1, 6)
	beta := randVar(r, 1, 6)
	w := Const(randMatrix(r, 3, 6))
	checkGrad(t, "layernorm", []*Tensor{a, gamma, beta}, func() *Tensor {
		return SumAll(Mul(LayerNorm(a, gamma, beta, 1e-5), w))
	})
}

func TestGradCrossEntropy(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	logits := randVar(r, 5, 4)
	labels := []int{2, -100, 0, 3, -100} // -100 rows must be ignored
	checkGrad(t, "xent", []*Tensor{logits}, func() *Tensor {
		return CrossEntropy(logits, labels, -100)
	})
}

func TestCrossEntropyAllIgnored(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	logits := randVar(r, 3, 4)
	loss := CrossEntropy(logits, []int{-100, -100, -100}, -100)
	if loss.Item() != 0 {
		t.Fatalf("loss = %v, want 0", loss.Item())
	}
	if err := loss.Backward(); err != nil {
		t.Fatalf("Backward: %v", err)
	}
}

func TestGradMeanPool(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	x := randVar(r, 7, 3) // segments of 3, 2, 2
	w := Const(randMatrix(r, 3, 3))
	checkGrad(t, "meanpool", []*Tensor{x}, func() *Tensor {
		return SumAll(Mul(MeanPool(x, []int{3, 2, 2}), w))
	})
}

func TestGradAttention(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	// Two sequences of lengths 3 and 2, hidden 4, 2 heads.
	q := randVar(r, 5, 4)
	k := randVar(r, 5, 4)
	v := randVar(r, 5, 4)
	w := Const(randMatrix(r, 5, 4))
	checkGrad(t, "attention", []*Tensor{q, k, v}, func() *Tensor {
		return SumAll(Mul(Attention(q, k, v, 2, []int{3, 2}), w))
	})
}

func TestGradDropout(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	a := randVar(r, 4, 4)
	// A replayable source keeps the mask identical across rebuilds, which is
	// what finite differencing requires.
	seq := make([]float64, 64)
	rr := rand.New(rand.NewSource(99))
	for i := range seq {
		seq[i] = rr.Float64()
	}
	src := &replaySource{seq: seq}
	checkGrad(t, "dropout", []*Tensor{a}, func() *Tensor {
		src.i = 0
		return SumAll(Dropout(a, 0.3, src))
	})
}

type replaySource struct {
	seq []float64
	i   int
}

func (s *replaySource) Float64() float64 {
	v := s.seq[s.i%len(s.seq)]
	s.i++
	return v
}

func TestGradSharedTensorAccumulates(t *testing.T) {
	// One tensor feeding two consumers must receive the sum of both
	// gradient paths — the pattern used by tied MLM decoder weights.
	r := rand.New(rand.NewSource(23))
	e := randVar(r, 4, 3)
	idx := []int{1, 3, 0}
	checkGrad(t, "shared", []*Tensor{e}, func() *Tensor {
		h := GatherRows(e, idx)            // use 1: embedding lookup
		logits := MatMulT(h, Transpose(e)) // use 2: tied decoder
		return CrossEntropy(logits, []int{0, 2, 1}, -100)
	})
}

func TestBackwardErrors(t *testing.T) {
	a := Var(NewMatrix(2, 2))
	if err := SumAll(Mul(a, a)).Backward(); err != nil {
		t.Errorf("scalar backward should work: %v", err)
	}
	if err := Mul(a, a).Backward(); err == nil {
		t.Error("non-scalar Backward should error")
	}
	c := Const(NewMatrix(1, 1))
	if err := c.Backward(); err == nil {
		t.Error("Backward on constant should error")
	}
}

func TestDetachCutsGraph(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	a := randVar(r, 2, 2)
	d := Mul(a, a).Detach()
	if d.NeedsGrad() {
		t.Fatal("Detach should not require grad")
	}
	loss := SumAll(Mul(d, d))
	if loss.NeedsGrad() {
		t.Fatal("loss over detached tensor should not need grad")
	}
}

func TestDropoutEdgeCases(t *testing.T) {
	a := Var(FromSlice(1, 4, []float64{1, 2, 3, 4}))
	if got := Dropout(a, 0, nil); got != a {
		t.Error("p=0 must return the input unchanged")
	}
}

func TestZeroGradAndReuse(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	a := randVar(r, 2, 3)
	loss := SumAll(Mul(a, a))
	if err := loss.Backward(); err != nil {
		t.Fatal(err)
	}
	first := a.Grad.Clone()
	// Second backward without zeroing accumulates.
	loss2 := SumAll(Mul(a, a))
	if err := loss2.Backward(); err != nil {
		t.Fatal(err)
	}
	for i := range first.Data {
		if math.Abs(a.Grad.Data[i]-2*first.Data[i]) > 1e-12 {
			t.Fatalf("gradient did not accumulate: %v vs %v", a.Grad.Data[i], 2*first.Data[i])
		}
	}
	a.ZeroGrad()
	if a.Grad.Norm2() != 0 {
		t.Fatal("ZeroGrad did not clear")
	}
}
