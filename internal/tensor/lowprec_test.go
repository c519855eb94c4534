package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ---- SIMD kernels vs pure-Go oracles ----

func randSlice32(rng *rand.Rand, n int, scale float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = (rng.Float32()*2 - 1) * scale
	}
	return out
}

// TestF32MatVecAsmMatchesGo drives the assembly kernel across every strip
// width and tail combination and checks it against the pure-Go oracle.
// Association order differs between the two, so comparison is tolerant.
func TestF32MatVecAsmMatchesGo(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 33, 48, 96} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 11, 12, 16, 17, 31, 32, 33, 48, 63, 64, 96, 100} {
			a := randSlice32(rng, k, 1)
			b := randSlice32(rng, k*n, 1)
			init := randSlice32(rng, n, 1)
			want := append([]float32(nil), init...)
			got := append([]float32(nil), init...)
			f32MatVecGo(a, b, want)
			f32MatVecAsm(a, b, got)
			for j := range want {
				if diff := math.Abs(float64(want[j] - got[j])); diff > 1e-4*(1+math.Abs(float64(want[j]))) {
					t.Fatalf("K=%d N=%d out[%d]: asm %g, go %g", k, n, j, got[j], want[j])
				}
			}
		}
	}
}

// TestInt8MatVecKernelsMatchGo: integer arithmetic must agree exactly
// across every available backend on the shared blocked layout.
func TestInt8MatVecKernelsMatchGo(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(2))
	for _, kPad := range []int{32, 64, 96, 3104} {
		for _, nPad := range []int{16, 32, 48, 96} {
			qa := make([]int16, kPad)
			for i := range qa {
				qa[i] = int16(rng.Intn(255) - 127)
			}
			wt := make([]int8, kPad*nPad)
			for i := range wt {
				wt[i] = int8(rng.Intn(255) - 127)
			}
			want := make([]int32, nPad)
			int8MatVecGo(qa, wt, want)

			got := make([]int32, nPad)
			int8MatVecAVX2(qa, wt, got)
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("AVX2 KPad=%d NPad=%d acc[%d]: asm %d, go %d", kPad, nPad, j, got[j], want[j])
				}
			}
			if haveVNNI {
				for i := range got {
					got[i] = 0
				}
				int8MatVecVNNI(qa, wt, got)
				for j := range want {
					if want[j] != got[j] {
						t.Fatalf("VNNI KPad=%d NPad=%d acc[%d]: asm %d, go %d", kPad, nPad, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestExpGeluVectorKernels pins the vector exp/GELU against the scalar
// fast paths within float32 noise.
func TestExpGeluVectorKernels(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2/FMA on this host")
	}
	rng := rand.New(rand.NewSource(9))
	v := make([]float32, 1024)
	for i := range v {
		v[i] = (rng.Float32()*2 - 1) * 20
	}
	shift := float32(3.7)
	got := append([]float32(nil), v...)
	expShiftAsm(got, shift)
	for i, x := range v {
		want := math.Exp(float64(x - shift))
		if rel := math.Abs(float64(got[i])-want) / want; rel > 1e-5 {
			t.Fatalf("vexp(%g-%g) = %g, want %g", x, shift, got[i], want)
		}
	}

	gelu := append([]float32(nil), v...)
	gelu32Asm(gelu)
	for i, x := range v {
		u := math.Sqrt(2/math.Pi) * (float64(x) + 0.044715*float64(x)*float64(x)*float64(x))
		want := 0.5 * float64(x) * (1 + math.Tanh(u))
		if diff := math.Abs(float64(gelu[i]) - want); diff > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("vgelu(%g) = %g, want %g", x, gelu[i], want)
		}
	}
}

// ---- fast transcendentals ----

func TestFastExp32Accuracy(t *testing.T) {
	for x := float32(-80); x <= 80; x += 0.0137 {
		want := math.Exp(float64(x))
		got := float64(fastExp32(x))
		rel := math.Abs(got-want) / want
		if rel > 2e-6 {
			t.Fatalf("fastExp32(%g) = %g, want %g (rel %g)", x, got, want, rel)
		}
	}
	if fastExp32(-100) != 0 {
		t.Fatalf("fastExp32(-100) = %g, want 0", fastExp32(-100))
	}
	if !math.IsInf(float64(fastExp32(100)), 1) {
		t.Fatalf("fastExp32(100) = %g, want +Inf", fastExp32(100))
	}
}

func TestFastTanh32Accuracy(t *testing.T) {
	for x := float32(-12); x <= 12; x += 0.0091 {
		want := math.Tanh(float64(x))
		got := float64(fastTanh32(x))
		if diff := math.Abs(got - want); diff > 2e-6 {
			t.Fatalf("fastTanh32(%g) = %g, want %g (diff %g)", x, got, want, diff)
		}
	}
}

// ---- int8 quantize → dequantize error bound (property test) ----

// quantRow is a quick.Generator-friendly random weight row wrapper: values
// span several magnitudes, including the degenerate all-zero column case.
type quantRow struct {
	Vals  []float64
	Scale float64
}

func (quantRow) Generate(rng *rand.Rand, size int) fmt.Stringer { return nil } // unused

func TestQuantizeDequantizeErrorBound(t *testing.T) {
	f := func(seed int64, rows8 uint8, cols8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int(rows8%64) + 1
		cols := int(cols8%48) + 1
		m := NewMatrix(rows, cols)
		scale := math.Pow(10, float64(rng.Intn(7)-3)) // 1e-3 .. 1e3
		for i := range m.Data {
			m.Data[i] = (rng.Float64()*2 - 1) * scale
		}
		if rng.Intn(4) == 0 { // exercise an all-zero column
			zc := rng.Intn(cols)
			for i := 0; i < rows; i++ {
				m.Set(i, zc, 0)
			}
		}
		q := QuantizeMatrix(m)
		if err := q.CheckShape(rows, cols); err != nil {
			t.Logf("CheckShape: %v", err)
			return false
		}
		deq := q.Dequantize32()
		for j := 0; j < cols; j++ {
			// The documented bound: |deq - orig| ≤ scale_j/2 per element,
			// plus float32 representation slack on the product.
			bound := float64(q.Scales[j])/2 + 1e-6*scale
			for i := 0; i < rows; i++ {
				diff := math.Abs(float64(deq.Data[i*cols+j]) - m.At(i, j))
				if diff > bound {
					t.Logf("(%d,%d): orig %g deq %g diff %g > bound %g",
						i, j, m.At(i, j), deq.Data[i*cols+j], diff, bound)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---- quantized linear kernel vs float64 reference ----

// TestInferQuantLinearAccuracy checks the full dynamic-quantization matmul
// against the float64 product within the analytic worst-case bound: with
// activation error |εx| ≤ rowScale/2 and weight error |εw| ≤ colScale/2
// per element, |err| ≤ K·(wMax·rowScale + xMax·colScale)/2 plus the cross
// term (negligible) and float32 slack.
func TestInferQuantLinearAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 32, 8}, {5, 48, 48}, {9, 48, 96}, {3, 96, 48}, {4, 33, 7}} {
		T, K, N := dims[0], dims[1], dims[2]
		wf := NewMatrix(K, N)
		for i := range wf.Data {
			wf.Data[i] = rng.NormFloat64() * 0.3
		}
		bias := NewMatrix(1, N)
		for i := range bias.Data {
			bias.Data[i] = rng.NormFloat64()
		}
		x64 := NewMatrix(T, K)
		for i := range x64.Data {
			x64.Data[i] = rng.NormFloat64()
		}
		want := NewMatrix(T, N)
		InferLinearInto(x64, wf, bias, want)

		q := QuantizeMatrix(wf)
		x32 := Narrow(x64)
		got := NewMatrix32(T, N)
		var qs QuantScratch
		InferQuantLinearInto(x32, q, Narrow(bias), got, &qs)

		for i := 0; i < T; i++ {
			xMax := 0.0
			for _, v := range x64.Row(i) {
				xMax = math.Max(xMax, math.Abs(v))
			}
			rowScale := xMax / 127
			for j := 0; j < N; j++ {
				colScale := float64(q.Scales[j])
				wMax := colScale * 127
				bound := float64(K) * (rowScale*wMax + colScale*xMax) / 2
				bound += 1e-3 // float32 slack
				diff := math.Abs(float64(got.Row(i)[j]) - want.Row(i)[j])
				if diff > bound {
					t.Fatalf("T%d K%d N%d out(%d,%d): int8 %g, f64 %g, diff %g > bound %g",
						T, K, N, i, j, got.Row(i)[j], want.Row(i)[j], diff, bound)
				}
			}
		}
	}
}

// TestCheckShapeRejectsOversizePad: a consistent but non-canonical pad
// must be rejected at validation time — the quantized-linear scratch is
// sized from the logical dims, so an oversize pad that slipped through
// would overrun it at score time.
func TestCheckShapeRejectsOversizePad(t *testing.T) {
	m := NewMatrix(48, 16)
	for i := range m.Data {
		m.Data[i] = float64(i%7) - 3
	}
	q := QuantizeMatrix(m)
	if err := q.CheckShape(48, 16); err != nil {
		t.Fatalf("canonical shape rejected: %v", err)
	}
	big := &Int8Matrix{
		Rows: q.Rows, Cols: q.Cols,
		KPad: q.KPad + int8KPadAlign, NPad: q.NPad,
		Data:   make([]int8, q.NPad*(q.KPad+int8KPadAlign)),
		Scales: q.Scales,
	}
	if err := big.CheckShape(48, 16); err == nil {
		t.Fatal("oversize KPad accepted")
	}
	wide := &Int8Matrix{
		Rows: q.Rows, Cols: q.Cols,
		KPad: q.KPad, NPad: q.NPad + int8NPadAlign,
		Data:   make([]int8, (q.NPad+int8NPadAlign)*q.KPad),
		Scales: q.Scales,
	}
	if err := wide.CheckShape(48, 16); err == nil {
		t.Fatal("oversize NPad accepted")
	}
}

// TestInferQuantLinearZeroRow: an all-zero activation row must produce
// exactly the bias.
func TestInferQuantLinearZeroRow(t *testing.T) {
	w := NewMatrix(16, 8)
	for i := range w.Data {
		w.Data[i] = float64(i%5) - 2
	}
	bias := NewMatrix(1, 8)
	for i := range bias.Data {
		bias.Data[i] = float64(i) + 0.25
	}
	q := QuantizeMatrix(w)
	x := NewMatrix32(1, 16)
	out := NewMatrix32(1, 8)
	var qs QuantScratch
	InferQuantLinearInto(x, q, Narrow(bias), out, &qs)
	for j, v := range out.Row(0) {
		if float64(v) != bias.Data[j] {
			t.Fatalf("out[%d] = %g, want bias %g", j, v, bias.Data[j])
		}
	}
}

// TestQuantScratchReuseAcrossWidths pins the pad-hygiene invariant: a
// narrow layer after a wide one must not see the wide layer's stale
// activation values in the pad region.
func TestQuantScratchReuseAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var qs QuantScratch
	wide := NewMatrix(96, 4)
	narrow := NewMatrix(48, 4)
	for i := range wide.Data {
		wide.Data[i] = rng.NormFloat64()
	}
	for i := range narrow.Data {
		narrow.Data[i] = rng.NormFloat64()
	}
	qw, qn := QuantizeMatrix(wide), QuantizeMatrix(narrow)
	xw := NewMatrix32(1, 96)
	for i := range xw.Data {
		xw.Data[i] = rng.Float32()*2 - 1
	}
	xn := NewMatrix32(1, 48)
	for i := range xn.Data {
		xn.Data[i] = rng.Float32()*2 - 1
	}
	out := NewMatrix32(1, 4)

	// Fresh-scratch reference for the narrow layer.
	want := NewMatrix32(1, 4)
	var fresh QuantScratch
	InferQuantLinearInto(xn, qn, nil, want, &fresh)

	InferQuantLinearInto(xw, qw, nil, out, &qs) // pollute [48,96) of qa
	InferQuantLinearInto(xn, qn, nil, out, &qs)
	for j := range want.Data {
		if want.Data[j] != out.Data[j] {
			t.Fatalf("reused scratch out[%d] = %g, fresh %g", j, out.Data[j], want.Data[j])
		}
	}
}

// ---- float32 kernels vs float64 golden ----

func TestInferKernels32MatchFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	T, H, heads := 11, 48, 4
	lens := []int{4, 6, 1}

	x := NewMatrix(T, H)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	gamma := NewMatrix(1, H)
	beta := NewMatrix(1, H)
	for i := 0; i < H; i++ {
		gamma.Data[i] = 1 + 0.1*rng.NormFloat64()
		beta.Data[i] = 0.1 * rng.NormFloat64()
	}

	check := func(name string, want *Matrix, got *Matrix32, tol float64) {
		t.Helper()
		if want.Rows != got.Rows || want.Cols != got.Cols {
			t.Fatalf("%s: shape %dx%d vs %dx%d", name, want.Rows, want.Cols, got.Rows, got.Cols)
		}
		for i, wv := range want.Data {
			if diff := math.Abs(wv - float64(got.Data[i])); diff > tol*(1+math.Abs(wv)) {
				t.Fatalf("%s[%d]: f32 %g, f64 %g", name, i, got.Data[i], wv)
			}
		}
	}

	// LayerNorm.
	wantLN := NewMatrix(T, H)
	InferLayerNormInto(x, gamma, beta, 1e-5, wantLN)
	gotLN := NewMatrix32(T, H)
	InferLayerNormInto32(Narrow(x), Narrow(gamma), Narrow(beta), 1e-5, gotLN)
	check("layernorm", wantLN, gotLN, 1e-4)

	// GELU.
	wantG := x.Clone()
	InferGELUInPlace(wantG)
	gotG := Narrow(x)
	InferGELUInPlace32(gotG)
	check("gelu", wantG, gotG, 1e-4)

	// Attention.
	q := NewMatrix(T, H)
	k := NewMatrix(T, H)
	v := NewMatrix(T, H)
	for i := range q.Data {
		q.Data[i] = rng.NormFloat64()
		k.Data[i] = rng.NormFloat64()
		v.Data[i] = rng.NormFloat64()
	}
	wantA := NewMatrix(T, H)
	scores := make([]float64, 36)
	InferAttentionInto(q, k, v, heads, lens, scores, wantA)
	gotA := NewMatrix32(T, H)
	d := H / heads
	scores32 := make([]float32, 36)
	kt := make([]float32, 6*d)
	vh := make([]float32, 6*d)
	InferAttentionInto32(Narrow(q), Narrow(k), Narrow(v), heads, lens, scores32, kt, vh, gotA)
	check("attention", wantA, gotA, 1e-4)

	// MeanPool widens straight into float64.
	wantP := NewMatrix(len(lens), H)
	InferMeanPoolInto(x, lens, wantP, 0)
	gotP := NewMatrix(len(lens), H)
	InferMeanPoolInto32(Narrow(x), lens, gotP, 0)
	for i, wv := range wantP.Data {
		if diff := math.Abs(wv - gotP.Data[i]); diff > 1e-5*(1+math.Abs(wv)) {
			t.Fatalf("meanpool[%d]: f32 %g, f64 %g", i, gotP.Data[i], wv)
		}
	}
}

// ---- micro-benchmarks for the kernel rungs ----

func benchLinear(b *testing.B, run func(x *Matrix32, i int)) {
	rng := rand.New(rand.NewSource(5))
	x := NewMatrix32(256, 48)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(x, i)
	}
}

func BenchmarkLinearF64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	w := NewMatrix(48, 96)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.2
	}
	bias := NewMatrix(1, 96)
	x := NewMatrix(256, 48)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	out := NewMatrix(256, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InferLinearInto(x, w, bias, out)
	}
}

func BenchmarkLinearInt8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	w := NewMatrix(48, 96)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.2
	}
	q := QuantizeMatrix(w)
	bias := NewMatrix32(1, 96)
	out := NewMatrix32(256, 96)
	var qs QuantScratch
	benchLinear(b, func(x *Matrix32, _ int) {
		InferQuantLinearInto(x, q, bias, out, &qs)
	})
}
