package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestQuickSoftmaxRowsIsDistribution: softmaxInto turns every row into a
// probability distribution, and adding a constant to a row leaves it
// unchanged (shift invariance).
func TestQuickSoftmaxRowsIsDistribution(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(values []reflect.Value, r *rand.Rand) {
			m := randMatrix(r, 1+r.Intn(5), 1+r.Intn(8))
			values[0] = reflect.ValueOf(m)
			values[1] = reflect.ValueOf(r.NormFloat64() * 10)
		},
	}
	softmax := func(m *Matrix) *Matrix {
		y := NewMatrix(m.Rows, m.Cols)
		for i := 0; i < m.Rows; i++ {
			softmaxInto(m.Row(i), y.Row(i))
		}
		return y
	}
	prop := func(m *Matrix, shift float64) bool {
		y := softmax(m)
		for i := 0; i < y.Rows; i++ {
			sum := 0.0
			for _, v := range y.Row(i) {
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		shifted := m.Clone()
		for i := range shifted.Data {
			shifted.Data[i] += shift
		}
		y2 := softmax(shifted)
		for i := range y.Data {
			if math.Abs(y.Data[i]-y2.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLayerNormStats: with gamma=1 and beta=0 every output row has
// zero mean and unit variance (up to eps).
func TestQuickLayerNormStats(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(values []reflect.Value, r *rand.Rand) {
			m := randMatrix(r, 1+r.Intn(5), 4+r.Intn(12))
			m.ScaleInPlace(5)
			values[0] = reflect.ValueOf(m)
		},
	}
	prop := func(m *Matrix) bool {
		n := m.Cols
		gamma := NewMatrix(1, n)
		gamma.Fill(1)
		beta := NewMatrix(1, n)
		y := LayerNorm(Const(m), Const(gamma), Const(beta), 1e-8)
		for i := 0; i < y.Rows(); i++ {
			mean, sq := 0.0, 0.0
			for _, v := range y.Val.Row(i) {
				mean += v
			}
			mean /= float64(n)
			for _, v := range y.Val.Row(i) {
				sq += (v - mean) * (v - mean)
			}
			sq /= float64(n)
			if math.Abs(mean) > 1e-8 || math.Abs(sq-1) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAttentionRowsConvex: with V rows forming a basis, attention
// outputs are convex combinations — each output row of a single-head
// attention over one sequence stays inside the convex hull of V's rows.
func TestQuickAttentionRowsConvex(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(values []reflect.Value, r *rand.Rand) {
			s := 2 + r.Intn(5)
			values[0] = reflect.ValueOf(randMatrix(r, s, 4))
			values[1] = reflect.ValueOf(randMatrix(r, s, 4))
		},
	}
	prop := func(q, k *Matrix) bool {
		s := q.Rows
		// V = one-hot-ish rows scaled to 1: outputs must be in [0,1] and
		// rows must sum to ~1 per head block when V rows sum to 1.
		v := NewMatrix(s, 4)
		for i := 0; i < s; i++ {
			v.Set(i, i%4, 1)
		}
		out := Attention(Const(q), Const(k), Const(v), 1, []int{s})
		for i := 0; i < s; i++ {
			sum := 0.0
			for _, x := range out.Val.Row(i) {
				if x < -1e-9 || x > 1+1e-9 {
					return false
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMeanPoolPreservesMean: pooling then averaging equals averaging
// all rows when all segments have equal length.
func TestQuickMeanPoolPreservesMean(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(values []reflect.Value, r *rand.Rand) {
			segs := 1 + r.Intn(4)
			l := 1 + r.Intn(4)
			values[0] = reflect.ValueOf(randMatrix(r, segs*l, 3))
			values[1] = reflect.ValueOf(l)
		},
	}
	prop := func(m *Matrix, l int) bool {
		segs := m.Rows / l
		lens := make([]int, segs)
		for i := range lens {
			lens[i] = l
		}
		pooled := MeanPool(Const(m), lens)
		for j := 0; j < m.Cols; j++ {
			all := 0.0
			for i := 0; i < m.Rows; i++ {
				all += m.At(i, j)
			}
			all /= float64(m.Rows)
			pm := 0.0
			for i := 0; i < segs; i++ {
				pm += pooled.Val.At(i, j)
			}
			pm /= float64(segs)
			if math.Abs(all-pm) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEntropyMatchesManual(t *testing.T) {
	logits := Var(FromSlice(2, 3, []float64{1, 2, 3, 0.5, 0.5, 0.5}))
	loss := CrossEntropy(logits, []int{2, 0}, -100)
	// Row 0: softmax(1,2,3)[2]; row 1: uniform 1/3.
	p0 := math.Exp(3) / (math.Exp(1) + math.Exp(2) + math.Exp(3))
	want := (-math.Log(p0) - math.Log(1.0/3)) / 2
	if math.Abs(loss.Item()-want) > 1e-12 {
		t.Fatalf("loss = %v, want %v", loss.Item(), want)
	}
}

func TestOpShapePanics(t *testing.T) {
	a := Const(NewMatrix(2, 3))
	b := Const(NewMatrix(3, 2))
	cases := map[string]func(){
		"add":     func() { Add(a, b) },
		"mul":     func() { Mul(a, b) },
		"div":     func() { Div(a, b) },
		"addrow":  func() { AddRowVec(a, Const(NewMatrix(1, 2))) },
		"gather":  func() { GatherRows(a, []int{5}) },
		"xent":    func() { CrossEntropy(a, []int{0}, -100) },
		"pool":    func() { MeanPool(a, []int{3}) },
		"attn":    func() { Attention(a, a, a, 2, []int{2}) }, // heads ∤ hidden
		"attnlen": func() { Attention(a, a, a, 3, []int{3}) }, // lens sum ≠ rows
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkAttentionForward(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	const seq, hidden = 48, 64
	q := Const(randMatrix(r, seq, hidden))
	k := Const(randMatrix(r, seq, hidden))
	v := Const(randMatrix(r, seq, hidden))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Attention(q, k, v, 4, []int{seq})
	}
}
