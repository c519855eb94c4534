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
		if q.Rows != rows || q.Cols != cols || len(q.Scales) != cols || len(q.Data) != q.KPad*q.NPad {
			t.Logf("quantized %dx%d has %d scales, %d weights", q.Rows, q.Cols, len(q.Scales), len(q.Data))
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

// TestInferQuantLinearPadLanes runs layers whose K is not a multiple of
// the 4-k pad (45) and is one (48) right after a wider layer has filled
// the shared activation scratch, and checks every output bit against an
// exact integer reference built from the logical weights: the pad lanes
// [K, KPad) of the scratch must be zero and contribute nothing.
func TestInferQuantLinearPadLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const N = 20
	randW := func(k int) *Matrix {
		m := NewMatrix(k, N)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	randX := func(k int) *Matrix32 {
		return &Matrix32{Rows: 3, Cols: k, Data: randSlice32(rng, 3*k, 2)}
	}
	var qs QuantScratch
	bias := &Matrix32{Rows: 1, Cols: N, Data: randSlice32(rng, N, 1)}
	for _, K := range []int{45, 48} {
		InferQuantLinearInto(randX(100), QuantizeMatrix(randW(100)), nil, NewMatrix32(3, N), &qs)
		w := QuantizeMatrix(randW(K))
		if w.KPad != (K+3)&^3 {
			t.Fatalf("K=%d: KPad %d, want %d", K, w.KPad, (K+3)&^3)
		}
		x := randX(K)
		got := NewMatrix32(3, N)
		InferQuantLinearInto(x, w, bias, got, &qs)
		for k := K; k < w.KPad; k++ {
			if qs.qa[k] != 0 {
				t.Fatalf("K=%d: pad lane qa[%d] = %d, want 0", K, k, qs.qa[k])
			}
		}
		for i := 0; i < x.Rows; i++ {
			xrow := x.Row(i)
			m := maxAbsRef(xrow)
			inv := 127 / m
			for j := 0; j < N; j++ {
				var acc int32
				for k, v := range xrow {
					acc += int32(math.RoundToEven(float64(v*inv))) * int32(w.At(k, j))
				}
				want := float32(float32(acc)*(m/127)*w.Scales[j]) + bias.Data[j]
				if g := got.Row(i)[j]; math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("K=%d out(%d,%d) = %g, want %g", K, i, j, g, want)
				}
			}
		}
	}
}

// TestQuantRowRoundsHalfToEven: exact .5 ties round to the even integer
// in the Go quantizer and in the dispatched one, whose vector part rounds
// by MXCSR and whose scalar tail (the last 3 of these 19 lanes on AVX2
// hosts) by VCVTSS2SI, so one row never mixes two rounding rules. The
// row's max-abs is 127, so it quantizes at scale 1; the pad lane must be
// zeroed over whatever the buffer held.
func TestQuantRowRoundsHalfToEven(t *testing.T) {
	x := []float32{0.5, 1.5, 2.5, 3.5, -0.5, -1.5, -2.5, -3.5,
		126.5, -126.5, 4.5, -4.5, 0.25, -0.75, 5.5, -127, 6.5, 7.5, -5.5}
	want := []int16{0, 2, 2, 4, 0, -2, -2, -4,
		126, -126, 4, -4, 0, -1, 6, -127, 6, 8, -6}
	for name, quant := range map[string]func([]float32, int, int, []int16, []float32){
		"quantTileGo": quantTileGo,
		"quantTile":   quantTile,
	} {
		got := make([]int16, 20)
		for i := range got {
			got[i] = 0x7FFF // stale values the quantizer must overwrite
		}
		rowMax := make([]float32, 1)
		quant(x, len(x), len(got), got, rowMax)
		if rowMax[0] != 127 {
			t.Fatalf("%s: rowMax %g, want 127", name, rowMax[0])
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s(%g) = %d, want %d", name, x[i], got[i], want[i])
			}
		}
		if got[len(x)] != 0 {
			t.Errorf("%s: pad lane %d, want 0", name, got[len(x)])
		}
	}
}

// maxAbsRef returns max|v[i]|.
func maxAbsRef(v []float32) float32 {
	m := float32(0)
	for _, x := range v {
		m = max(m, float32(math.Abs(float64(x))))
	}
	return m
}

// quantLinearRowsRef is the row-at-a-time int8 linear the tiled kernel
// must reproduce bit for bit: per row its max-abs, the row quantized at
// 127/max half to even, an exact integer dot product against the logical
// weights, and the dequantized product rounded before the bias add; an
// all-zero row yields the bias (or zeros).
func quantLinearRowsRef(x *Matrix32, w *Int8Matrix, bias *Matrix32) *Matrix32 {
	out := NewMatrix32(x.Rows, w.Cols)
	q := make([]int32, x.Cols)
	for i := 0; i < x.Rows; i++ {
		xrow, orow := x.Row(i), out.Row(i)
		m := maxAbsRef(xrow)
		if m == 0 {
			if bias != nil {
				copy(orow, bias.Data)
			}
			continue
		}
		inv := 127 / m
		for k, v := range xrow {
			q[k] = int32(math.RoundToEven(float64(v * inv)))
		}
		for j := range orow {
			var acc int32
			for k, qv := range q {
				acc += qv * int32(w.At(k, j))
			}
			v := float32(float32(acc) * (m / 127) * w.Scales[j])
			if bias != nil {
				v += bias.Data[j]
			}
			orow[j] = v
		}
	}
	return out
}

// quantLinearCase builds a random int8 linear layer (K→N, with a bias or
// not) and a rows×K activation batch whose row i is all zeros where bit
// i mod 64 of zeroMask is set; rows span several magnitudes.
func quantLinearCase(rng *rand.Rand, rows, K, N int, withBias bool, zeroMask uint64) (x *Matrix32, w *Int8Matrix, bias *Matrix32) {
	wf := NewMatrix(K, N)
	for i := range wf.Data {
		wf.Data[i] = rng.NormFloat64() * 0.2
	}
	w = QuantizeMatrix(wf)
	if withBias {
		bias = &Matrix32{Rows: 1, Cols: N, Data: randSlice32(rng, N, 1)}
	}
	x = NewMatrix32(rows, K)
	for i := 0; i < rows; i++ {
		if zeroMask>>(i%64)&1 == 0 {
			copy(x.Row(i), randSlice32(rng, K, float32(math.Pow(10, float64(rng.Intn(5)-2)))))
		}
	}
	return x, w, bias
}

// dirtyQuantScratch runs a layer wider than any case below through s, so
// every scratch lane a later, narrower layer could read holds stale
// nonzero values.
func dirtyQuantScratch(rng *rand.Rand, s *QuantScratch) {
	x, w, bias := quantLinearCase(rng, quantTileRows+3, 160, 160, true, 0)
	InferQuantLinearInto(x, w, bias, NewMatrix32(x.Rows, 160), s)
}

// checkTiledMatchesRows runs one case through InferQuantLinearInto on
// every available backend, each with its own scratch, and requires every
// output bit to equal the row-at-a-time reference.
func checkTiledMatchesRows(t *testing.T, rng *rand.Rand, scratch map[string]*QuantScratch, rows, K, N int, withBias bool, zeroMask uint64) {
	t.Helper()
	x, w, bias := quantLinearCase(rng, rows, K, N, withBias, zeroMask)
	want := quantLinearRowsRef(x, w, bias)
	withQuantBackends(func(backend string) {
		s := scratch[backend]
		if s == nil {
			s = new(QuantScratch)
			dirtyQuantScratch(rng, s)
			scratch[backend] = s
		}
		got := NewMatrix32(rows, N)
		InferQuantLinearInto(x, w, bias, got, s)
		for i, v := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
				t.Fatalf("%s rows=%d K=%d N=%d bias=%v zero=%#x: out(%d,%d) = %g, row reference %g",
					backend, rows, K, N, withBias, zeroMask, i/N, i%N, got.Data[i], v)
			}
		}
	})
}

// TestInferQuantLinearTiledMatchesRows: the tiled int8 linear equals the
// row-at-a-time reference bit for bit on every backend, across row counts
// on both sides of the 4-row group and the 64-row tile, K on both sides of
// the 4-k pad and the 8-lane vector step, N on both sides of the 16-channel
// block, interleaved all-zero rows, with and without a bias, on scratch
// reused across all of those widths after a wider layer dirtied it.
func TestInferQuantLinearTiledMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	scratch := map[string]*QuantScratch{}
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 130} {
		for _, K := range []int{3, 4, 45, 48, 52, 96, 100} {
			for _, N := range []int{16, 48, 96, 144} {
				for _, withBias := range []bool{false, true} {
					zeroMask := rng.Uint64() & rng.Uint64() // about a quarter of the rows
					checkTiledMatchesRows(t, rng, scratch, rows, K, N, withBias, zeroMask)
				}
			}
		}
	}
}

// FuzzInferQuantLinear is TestInferQuantLinearTiledMatchesRows over
// fuzzed shapes (rows 1–140, K and N 1–128), seeds, bias presence and
// zero-row masks.
func FuzzInferQuantLinear(f *testing.F) {
	f.Add(uint8(5), uint8(47), uint8(95), int64(1), true, uint64(0b10010))
	f.Add(uint8(129), uint8(2), uint8(15), int64(2), false, uint64(1<<63|1))
	f.Fuzz(func(t *testing.T, rows8, k8, n8 uint8, seed int64, withBias bool, zeroMask uint64) {
		rows, K, N := 1+int(rows8)%140, 1+int(k8)%128, 1+int(n8)%128
		rng := rand.New(rand.NewSource(seed))
		checkTiledMatchesRows(t, rng, map[string]*QuantScratch{}, rows, K, N, withBias, zeroMask)
	})
}

// ---- float32 kernels vs float64 golden ----

// TestInferKernels32MatchFloat64 bounds every float32 kernel against its
// float64 reference. The second shape's widths (a 10-wide LayerNorm row,
// 2-wide heads) are ones the AVX2 kernels leave to their Go mirrors on
// every host.
func TestInferKernels32MatchFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	T := 11
	lens := []int{4, 6, 1}
	randM := func(r, c int) *Matrix {
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
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

	for _, shape := range []struct{ H, heads int }{{48, 4}, {10, 5}} {
		H, heads := shape.H, shape.heads
		x := randM(T, H)
		gamma := NewMatrix(1, H)
		beta := NewMatrix(1, H)
		for i := 0; i < H; i++ {
			gamma.Data[i] = 1 + 0.1*rng.NormFloat64()
			beta.Data[i] = 0.1 * rng.NormFloat64()
		}

		// LayerNorm, alone and after a residual add.
		wantLN := NewMatrix(T, H)
		InferLayerNormInto(x, gamma, beta, 1e-5, wantLN)
		gotLN := NewMatrix32(T, H)
		InferAddLayerNormInto32(Narrow(x), nil, Narrow(gamma), Narrow(beta), 1e-5, gotLN)
		check("layernorm", wantLN, gotLN, 1e-4)

		resid := randM(T, H)
		sum := x.Clone()
		sum.AddInPlace(resid)
		InferLayerNormInto(sum, gamma, beta, 1e-5, wantLN)
		x32 := Narrow(x)
		InferAddLayerNormInto32(x32, Narrow(resid), Narrow(gamma), Narrow(beta), 1e-5, x32)
		check("add+layernorm", wantLN, x32, 1e-4)

		// GELU.
		wantG := x.Clone()
		InferGELUInPlace(wantG)
		gotG := Narrow(x)
		InferGELUInPlace32(gotG)
		check("gelu", wantG, gotG, 1e-4)

		// Attention.
		q, k, v := randM(T, H), randM(T, H), randM(T, H)
		wantA := NewMatrix(T, H)
		InferAttentionInto(q, k, v, heads, lens, make([]float64, 36), make([]float64, 6*H), wantA)
		gotA := NewMatrix32(T, H)
		InferAttentionInto32(Narrow(q), Narrow(k), Narrow(v), heads, lens, make([]float32, 8), make([]float32, 8*H), gotA)
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
}

// ---- micro-benchmarks for the kernel rungs ----

// benchBatchLens draws the line lengths of a 512-line batch shaped like
// the serve path's (4–20 tokens a line) and returns them with their sum.
func benchBatchLens(rng *rand.Rand) (lens []int, T int) {
	lens = make([]int, 512)
	for i := range lens {
		lens[i] = 4 + rng.Intn(17)
		T += lens[i]
	}
	return lens, T
}

// linearShapes are the default encoder's three linear weight shapes: the
// QKV and output projections 48→48, FFN in 48→96 and FFN out 96→48.
var linearShapes = []struct{ K, N int }{{48, 48}, {48, 96}, {96, 48}}

// BenchmarkLinearF64 runs the float64 linear at the default encoder's
// three weight shapes over 512 token rows and reports ns/row.
func BenchmarkLinearF64(b *testing.B) {
	for _, shape := range linearShapes {
		b.Run(fmt.Sprintf("%dx%d", shape.K, shape.N), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			const rows = 512
			w := randMatrix(rng, shape.K, shape.N)
			bias := randMatrix(rng, 1, shape.N)
			x := randMatrix(rng, rows, shape.K)
			out := NewMatrix(rows, shape.N)
			for b.Loop() {
				InferLinearInto(x, w, bias, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkLinearInt8 runs the int8 linear at the default encoder's three
// weight shapes over the token rows of a 512-line batch, and reports
// ns/line.
func BenchmarkLinearInt8(b *testing.B) {
	for _, shape := range linearShapes {
		b.Run(fmt.Sprintf("%dx%d", shape.K, shape.N), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			lens, T := benchBatchLens(rng)
			w := NewMatrix(shape.K, shape.N)
			for i := range w.Data {
				w.Data[i] = rng.NormFloat64() * 0.2
			}
			q := QuantizeMatrix(w)
			bias := &Matrix32{Rows: 1, Cols: shape.N, Data: randSlice32(rng, shape.N, 0.1)}
			x := &Matrix32{Rows: T, Cols: shape.K, Data: randSlice32(rng, T*shape.K, 1)}
			out := NewMatrix32(T, shape.N)
			var qs QuantScratch
			for b.Loop() {
				InferQuantLinearInto(x, q, bias, out, &qs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lens)), "ns/line")
		})
	}
}

// BenchmarkAttention32 runs the int8 path's attention over a 512-line
// batch shaped like the default encoder's (hidden 48, 4 heads, lines of
// 4–20 tokens).
func BenchmarkAttention32(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	lens, T := benchBatchLens(rng)
	q := &Matrix32{Rows: T, Cols: 48, Data: randSlice32(rng, T*48, 1)}
	k := &Matrix32{Rows: T, Cols: 48, Data: randSlice32(rng, T*48, 1)}
	v := &Matrix32{Rows: T, Cols: 48, Data: randSlice32(rng, T*48, 1)}
	out := NewMatrix32(T, 48)
	scores, kt := make([]float32, 24), make([]float32, 24*48)
	for b.Loop() {
		InferAttentionInto32(q, k, v, 4, lens, scores, kt, out)
	}
}

// BenchmarkAttentionF64 runs the float64 attention over the same 512-line
// batch as BenchmarkAttention32 and reports ns per token row.
func BenchmarkAttentionF64(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	lens, T := benchBatchLens(rng)
	q, k, v := randMatrix(rng, T, 48), randMatrix(rng, T, 48), randMatrix(rng, T, 48)
	out := NewMatrix(T, 48)
	scores, kt := make([]float64, 20*20), make([]float64, 20*48)
	for b.Loop() {
		InferAttentionInto(q, k, v, 4, lens, scores, kt, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*T), "ns/row")
}
