package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"clmids/internal/tensor"
)

func TestLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(4, 3, XavierUniform{}, rng)
	x := tensor.Const(tensor.NewMatrix(5, 4))
	y := l.Forward(x)
	if y.Rows() != 5 || y.Cols() != 3 {
		t.Fatalf("output %dx%d, want 5x3", y.Rows(), y.Cols())
	}
	if l.In() != 4 || l.Out() != 3 {
		t.Errorf("In/Out = %d/%d", l.In(), l.Out())
	}
	if len(l.Params()) != 2 {
		t.Errorf("params = %d, want 2", len(l.Params()))
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	// End-to-end sanity of layers + optimizer: a 2-layer MLP must fit XOR.
	rng := rand.New(rand.NewSource(7))
	mlp := NewMLP(2, 16, 2, rng)
	xs := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []int{0, 1, 1, 0}
	opt := NewAdamW(mlp.Params(), 0.01, 0)
	var loss float64
	for step := 0; step < 400; step++ {
		logits := mlp.Forward(tensor.Const(xs))
		l := tensor.CrossEntropy(logits, labels, -100)
		loss = l.Item()
		if err := l.Backward(); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if loss > 0.05 {
		t.Fatalf("XOR did not converge: loss %.4f", loss)
	}
	logits := mlp.Forward(tensor.Const(xs))
	for i, want := range labels {
		row := logits.Val.Row(i)
		pred := 0
		if row[1] > row[0] {
			pred = 1
		}
		if pred != want {
			t.Errorf("sample %d predicted %d, want %d", i, pred, want)
		}
	}
}

func TestEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding(10, 4, TruncatedNormal{Std: 0.02}, rng)
	out := e.Forward([]int{1, 1, 9})
	if out.Rows() != 3 || out.Cols() != 4 {
		t.Fatalf("embedding out %dx%d", out.Rows(), out.Cols())
	}
	for j := 0; j < 4; j++ {
		if out.Val.At(0, j) != out.Val.At(1, j) {
			t.Fatal("same id must produce same row")
		}
	}
	if e.Vocab() != 10 || e.Dim() != 4 {
		t.Errorf("Vocab/Dim = %d/%d", e.Vocab(), e.Dim())
	}
}

func TestLayerNormLayer(t *testing.T) {
	ln := NewLayerNorm(8, 1e-5)
	rng := rand.New(rand.NewSource(3))
	x := tensor.NewMatrix(4, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()*3 + 7
	}
	y := ln.Forward(tensor.Const(x))
	for i := 0; i < 4; i++ {
		row := y.Val.Row(i)
		mean, sq := 0.0, 0.0
		for _, v := range row {
			mean += v
		}
		mean /= 8
		for _, v := range row {
			sq += (v - mean) * (v - mean)
		}
		sq /= 8
		if math.Abs(mean) > 1e-9 || math.Abs(sq-1) > 1e-3 {
			t.Fatalf("row %d: mean %.6f var %.6f", i, mean, sq)
		}
	}
}

func TestInitializerStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := tensor.NewMatrix(200, 100)

	KaimingNormal{}.Init(w, 200, 100, rng)
	std := matrixStd(w)
	want := math.Sqrt(2.0 / 200)
	if math.Abs(std-want)/want > 0.1 {
		t.Errorf("Kaiming std %.4f, want ~%.4f", std, want)
	}

	XavierUniform{}.Init(w, 200, 100, rng)
	a := math.Sqrt(6.0 / 300)
	for _, v := range w.Data {
		if v < -a || v > a {
			t.Fatalf("Xavier value %v outside ±%v", v, a)
		}
	}

	TruncatedNormal{Std: 0.02}.Init(w, 0, 0, rng)
	for _, v := range w.Data {
		if math.Abs(v) > 0.04 {
			t.Fatalf("TruncatedNormal value %v outside ±2std", v)
		}
	}

	Zeros{}.Init(w, 0, 0, nil)
	if slices.ContainsFunc(w.Data, func(v float64) bool { return v != 0 }) {
		t.Error("Zeros left nonzero values")
	}
}

func matrixStd(m *tensor.Matrix) float64 {
	mean := 0.0
	for _, v := range m.Data {
		mean += v
	}
	mean /= float64(len(m.Data))
	sq := 0.0
	for _, v := range m.Data {
		sq += (v - mean) * (v - mean)
	}
	return math.Sqrt(sq / float64(len(m.Data)))
}

func TestAdamWWeightDecayExcludesBiases(t *testing.T) {
	w := tensor.Var(tensor.FromSlice(2, 2, []float64{1, 1, 1, 1}))
	b := tensor.Var(tensor.FromSlice(1, 2, []float64{1, 1}))
	// Zero gradients: with lr>0 only the decoupled decay acts, and it must
	// shrink the 2-row weight while leaving the 1-row bias alone.
	w.Grad = tensor.NewMatrix(2, 2)
	b.Grad = tensor.NewMatrix(1, 2)
	opt := NewAdamW([]*tensor.Tensor{w, b}, 0.5, 0.1)
	opt.Step()
	if w.Val.Data[0] >= 1 {
		t.Errorf("weight not decayed: %v", w.Val.Data[0])
	}
	if b.Val.Data[0] != 1 {
		t.Errorf("bias was decayed: %v", b.Val.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := tensor.Var(tensor.NewMatrix(1, 2))
	p.Grad = tensor.FromSlice(1, 2, []float64{3, 4}) // norm 5
	pre := ClipGradNorm([]*tensor.Tensor{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	post := math.Hypot(p.Grad.Data[0], p.Grad.Data[1])
	if math.Abs(post-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", post)
	}
	// Below the threshold nothing changes.
	p.Grad = tensor.FromSlice(1, 2, []float64{0.3, 0.4})
	ClipGradNorm([]*tensor.Tensor{p}, 1)
	if math.Abs(p.Grad.Data[0]-0.3) > 1e-12 {
		t.Fatal("clip modified small gradient")
	}
}

func TestSchedules(t *testing.T) {
	wl := WarmupLinear{Peak: 1.0, Warmup: 10, Total: 110}
	if got := wl.At(0); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("warmup start = %v", got)
	}
	if got := wl.At(9); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("warmup end = %v", got)
	}
	if got := wl.At(110); got != 0 {
		t.Errorf("decay end = %v", got)
	}
	if got := wl.At(200); got != 0 {
		t.Errorf("past end = %v", got)
	}
	mid := wl.At(60)
	if mid <= 0 || mid >= 1 {
		t.Errorf("mid-decay = %v", mid)
	}

}

func TestCountAndCollectParams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l1 := NewLinear(3, 4, XavierUniform{}, rng)
	ln := NewLayerNorm(4, 1e-5)
	if got := CountParams(l1, ln); got != 3*4+4+4+4 {
		t.Fatalf("CountParams = %d", got)
	}
	ps := CollectParams(l1, ln)
	if len(ps) != 4 {
		t.Fatalf("CollectParams = %d tensors", len(ps))
	}
}
