package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	if !reflect.DeepEqual(got.Data, want) {
		t.Fatalf("MatMul = %v, want %v", got.Data, want)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func matricesClose(a, b *Matrix, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestQuickMatMulAgainstNaive(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(values []reflect.Value, r *rand.Rand) {
			m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
			values[0] = reflect.ValueOf(randMatrix(r, m, k))
			values[1] = reflect.ValueOf(randMatrix(r, k, n))
		},
	}
	prop := func(a, b *Matrix) bool {
		return matricesClose(MatMul(a, b), naiveMatMul(a, b), 1e-10)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulATB(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randMatrix(r, 5, 3)
	b := randMatrix(r, 5, 4)
	out := NewMatrix(3, 4)
	MatMulATBInto(a, b, out)
	want := naiveMatMul(TransposeOf(a), b)
	if !matricesClose(out, want, 1e-12) {
		t.Fatalf("ATB mismatch")
	}
	// Accumulation semantics: calling again doubles the result.
	MatMulATBInto(a, b, out)
	want.ScaleInPlace(2)
	if !matricesClose(out, want, 1e-12) {
		t.Fatalf("ATB should accumulate")
	}
}

func TestMatMulABT(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randMatrix(r, 5, 3)
	b := randMatrix(r, 4, 3)
	out := NewMatrix(5, 4)
	MatMulABTInto(a, b, out)
	want := naiveMatMul(a, TransposeOf(b))
	if !matricesClose(out, want, 1e-12) {
		t.Fatalf("ABT mismatch")
	}
}

func TestTransposeOf(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := TransposeOf(a)
	want := FromSlice(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if !reflect.DeepEqual(got.Data, want.Data) || got.Rows != 3 || got.Cols != 2 {
		t.Fatalf("TransposeOf = %+v", got)
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := FromSlice(2, 2, []float64{3, 4, 0, 0})
	if got := m.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone aliases data")
	}
	m.Fill(2)
	m.AxpyInPlace(3, FromSlice(2, 2, []float64{1, 1, 1, 1}))
	for _, v := range m.Data {
		if v != 5 {
			t.Fatalf("Axpy result = %v, want all 5", m.Data)
		}
	}
	m.Zero()
	if m.Norm2() != 0 {
		t.Error("Zero did not clear")
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	x := randMatrix(r, 128, 128)
	y := randMatrix(r, 128, 128)
	out := NewMatrix(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(x, y, out)
	}
}

// specialValues are the float64 edge cases the GEMM and attention tests
// mix into their inputs: both zeros, both infinities, NaN, subnormals and
// a value whose products overflow.
var specialValues = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.5e-310, math.MaxFloat64,
}

// randSpecial64 draws n values from N(0, scale²), replacing about one in
// every `every` (every ≤ 0: none) with a specialValues entry.
func randSpecial64(rng *rand.Rand, n int, scale float64, every int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if every > 0 && rng.Intn(every) == 0 {
			out[i] = specialValues[rng.Intn(len(specialValues))]
			continue
		}
		out[i] = rng.NormFloat64() * scale
	}
	return out
}

// sameBits64 fails the test at the first element whose bits differ. Two
// NaNs match whatever their payloads: when both operands of an add are
// NaN, x86 returns the first one's, and the Go compiler may commute an
// add, so only NaN-ness is part of the contract.
func sameBits64(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s [%d]: kernel %g (%#016x), go %g (%#016x)", name, i,
				g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// guardF64 is the sentinel written past the end of an output; a kernel
// that stores beyond its rows overwrites it.
var guardF64 = math.Float64frombits(0x5EA15EA15EA15EA1)

// guardedMatrix returns a zero-filled rows×cols matrix whose backing
// array carries `tail` guard values past Data's end.
func guardedMatrix(rows, cols, tail int) *Matrix {
	buf := make([]float64, rows*cols+tail)
	for i := range buf[rows*cols:] {
		buf[rows*cols+i] = guardF64
	}
	return &Matrix{Rows: rows, Cols: cols, Data: buf[:rows*cols]}
}

// checkGuard fails if anything past m.Data's end lost its guard value.
func checkGuard(t *testing.T, name string, m *Matrix) {
	t.Helper()
	for i, v := range m.Data[len(m.Data):cap(m.Data)] {
		if math.Float64bits(v) != math.Float64bits(guardF64) {
			t.Fatalf("%s: wrote %g past the output at +%d", name, v, i)
		}
	}
}

// checkLinearMatchesGo runs one InferLinearInto case through the
// dispatched GEMM and through matMulRowsGo and requires the same bits.
func checkLinearMatchesGo(t *testing.T, rng *rand.Rand, rows, K, N int, withBias bool, every int) {
	t.Helper()
	x := FromSlice(rows, K, randSpecial64(rng, rows*K, 1, every))
	w := FromSlice(K, N, randSpecial64(rng, K*N, 0.3, every))
	var bias *Matrix
	var b []float64
	if withBias {
		bias = FromSlice(1, N, randSpecial64(rng, N, 1, every))
		b = bias.Data
	}
	want := NewMatrix(rows, N)
	want.Fill(7) // the mirror must overwrite, not accumulate
	matMulRowsGo(x, w, b, want, 0, rows)
	got := guardedMatrix(rows, N, 8)
	got.Fill(-7)
	InferLinearInto(x, w, bias, got)
	name := fmt.Sprintf("rows=%d K=%d N=%d bias=%v", rows, K, N, withBias)
	sameBits64(t, name, got.Data, want.Data)
	checkGuard(t, name, got)
}

// FuzzInferLinear checks the float64 linear (the AVX2 GEMM with its fused
// bias where the host has it) bit for bit against matMulRowsGo over fuzzed
// shapes (rows 1–40, K 0–128, N 1–720), seeds, bias presence and density
// of special values (-0, ±Inf, NaN, subnormals).
func FuzzInferLinear(f *testing.F) {
	f.Add(uint8(9), uint8(48), uint16(96), int64(1), true, uint8(0))
	f.Add(uint8(3), uint8(97), uint16(700), int64(2), false, uint8(7))
	f.Fuzz(func(t *testing.T, rows8, k8 uint8, n16 uint16, seed int64, withBias bool, every uint8) {
		rows, K, N := 1+int(rows8)%40, int(k8)%129, 1+int(n16)%720
		checkLinearMatchesGo(t, rand.New(rand.NewSource(seed)), rows, K, N, withBias, int(every))
	})
}
