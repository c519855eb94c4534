package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"clmids/internal/tensor"
)

func randSym(r *rand.Rand, n int) *tensor.Matrix {
	m := tensor.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestSymEigKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := tensor.FromSlice(2, 2, []float64{2, 1, 1, 2})
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want [3 1]", vals)
	}
	// First eigenvector is (1,1)/sqrt2 up to sign.
	v0 := []float64{vecs.At(0, 0), vecs.At(1, 0)}
	if math.Abs(math.Abs(v0[0])-1/math.Sqrt2) > 1e-10 || math.Abs(v0[0]-v0[1]) > 1e-10 {
		t.Fatalf("first eigenvector = %v", v0)
	}
}

func TestSymEigErrors(t *testing.T) {
	if _, _, err := SymEig(tensor.NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
	asym := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	if _, _, err := SymEig(asym); err == nil {
		t.Error("asymmetric accepted")
	}
}

// TestQuickSymEigProperties verifies A·v = λ·v, orthonormality of the
// eigenvector basis, and descending eigenvalue order on random symmetric
// matrices.
func TestQuickSymEigProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(values []reflect.Value, r *rand.Rand) {
			values[0] = reflect.ValueOf(randSym(r, 2+r.Intn(12)))
		},
	}
	prop := func(a *tensor.Matrix) bool {
		n := a.Rows
		vals, vecs, err := SymEig(a)
		if err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-9 {
				t.Logf("eigenvalues not descending: %v", vals)
				return false
			}
		}
		// A·V = V·diag(vals)
		av := tensor.MatMul(a, vecs)
		for c := 0; c < n; c++ {
			for r := 0; r < n; r++ {
				want := vecs.At(r, c) * vals[c]
				if math.Abs(av.At(r, c)-want) > 1e-7 {
					t.Logf("A·v != λ·v at (%d,%d): %v vs %v", r, c, av.At(r, c), want)
					return false
				}
			}
		}
		// VᵀV = I
		vtv := tensor.NewMatrix(n, n)
		tensor.MatMulATBInto(vecs, vecs, vtv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(vtv.At(i, j)-want) > 1e-8 {
					t.Logf("VᵀV not identity at (%d,%d): %v", i, j, vtv.At(i, j))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	if Dot(a, b) != 0 {
		t.Error("Dot orthogonal != 0")
	}
	if Cosine(a, a) != 1 {
		t.Error("Cosine self != 1")
	}
	if Cosine(a, []float64{0, 0}) != 0 {
		t.Error("Cosine with zero vector should be 0")
	}
	if Norm([]float64{3, 4}) != 5 {
		t.Error("Norm wrong")
	}
}

// lowRankData builds points concentrated near a low-dimensional subspace
// plus a few far-off anomalies.
func lowRankData(r *rand.Rand, n, d, rank int, anomalies int) *tensor.Matrix {
	basis := tensor.NewMatrix(rank, d)
	for i := range basis.Data {
		basis.Data[i] = r.NormFloat64()
	}
	x := tensor.NewMatrix(n+anomalies, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for k := 0; k < rank; k++ {
			c := r.NormFloat64() * 3
			for j := 0; j < d; j++ {
				row[j] += c * basis.At(k, j)
			}
		}
		for j := 0; j < d; j++ {
			row[j] += r.NormFloat64() * 0.01
		}
	}
	for i := n; i < n+anomalies; i++ {
		row := x.Row(i)
		for j := 0; j < d; j++ {
			row[j] = r.NormFloat64() * 10
		}
	}
	return x
}

func TestPCADetectsOffSubspacePoints(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	x := lowRankData(r, 200, 12, 3, 5)
	train := tensor.FromSlice(200, 12, x.Data[:200*12])
	p, err := FitPCA(train, PCAOptions{Components: 3})
	if err != nil {
		t.Fatal(err)
	}
	errs := p.ReconstructionErrors(x)
	maxNormal := 0.0
	for i := 0; i < 200; i++ {
		if errs[i] > maxNormal {
			maxNormal = errs[i]
		}
	}
	for i := 200; i < 205; i++ {
		if errs[i] < maxNormal*10 {
			t.Fatalf("anomaly %d error %.4f not well above normal max %.4f", i, errs[i], maxNormal)
		}
	}
}

func TestPCAKeptResolution(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	x := tensor.NewMatrix(50, 10)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	p, err := FitPCA(x, PCAOptions{}) // default 95% of components
	if err != nil {
		t.Fatal(err)
	}
	if p.Kept() != 10 { // ceil(0.95*10) = 10
		t.Errorf("default kept = %d, want 10", p.Kept())
	}
	p, err = FitPCA(x, PCAOptions{ComponentsFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kept() != 5 {
		t.Errorf("frac 0.5 kept = %d, want 5", p.Kept())
	}
	if _, err := FitPCA(x, PCAOptions{Components: 11}); err == nil {
		t.Error("too many components accepted")
	}
	if _, err := FitPCA(x, PCAOptions{Components: 3, ComponentsFrac: 0.5}); err == nil {
		t.Error("both options accepted")
	}
	if _, err := FitPCA(tensor.NewMatrix(1, 4), PCAOptions{}); err == nil {
		t.Error("single-row fit accepted")
	}
}

func TestPCAFullRankZeroError(t *testing.T) {
	// Keeping all components, reconstruction error must vanish.
	r := rand.New(rand.NewSource(8))
	x := tensor.NewMatrix(40, 6)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	p, err := FitPCA(x, PCAOptions{Components: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.ReconstructionErrors(x) {
		if e > 1e-16 {
			t.Fatalf("full-rank reconstruction error %v", e)
		}
	}
}

func TestPCAResidualOperatorMatchesError(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	x := lowRankData(r, 100, 8, 2, 0)
	p, err := FitPCA(x, PCAOptions{Components: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := p.ResidualOperator()
	for i := 0; i < 10; i++ {
		row := x.Row(i)
		centered := make([]float64, len(row))
		for j := range row {
			centered[j] = row[j] - p.Mean[j]
		}
		// ‖M·c‖² must equal ReconstructionError.
		res := make([]float64, len(centered))
		for a := 0; a < m.Rows; a++ {
			mrow := m.Row(a)
			s := 0.0
			for b, v := range centered {
				s += mrow[b] * v
			}
			res[a] = s
		}
		want := p.ReconstructionError(row)
		got := Dot(res, res)
		if math.Abs(got-want) > 1e-8*(1+want) {
			t.Fatalf("row %d: operator error %v vs direct %v", i, got, want)
		}
	}
}

func TestPCAProjectDimPanics(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	x := tensor.NewMatrix(20, 4)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	p, err := FitPCA(x, PCAOptions{Components: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	p.Project([]float64{1, 2, 3})
}

func BenchmarkSymEig64(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	a := randSym(r, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SymEig(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCAFit(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	x := lowRankData(r, 500, 64, 8, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitPCA(x, PCAOptions{ComponentsFrac: 0.95}); err != nil {
			b.Fatal(err)
		}
	}
}
