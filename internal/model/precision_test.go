package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clmids/internal/tensor"
)

// int8Tol is the relative deviation budget per hidden-state element for
// the int8 forward against the float64 golden path on the tiny test
// encoder (two blocks): float32 rounding plus the quantization error of
// six linear layers per block.
const int8Tol = 0.15

func TestParsePrecision(t *testing.T) {
	for in, want := range map[string]Precision{
		"": PrecisionFloat64, "f64": PrecisionFloat64, "float64": PrecisionFloat64,
		"i8": PrecisionInt8, "int8": PrecisionInt8,
	} {
		got, err := ParsePrecision(in)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePrecision("bfloat16"); err == nil {
		t.Error("ParsePrecision accepted an unknown rung")
	}
	// float32 is no longer served: both spellings fail with an error that
	// names it and points at the replacement.
	for _, in := range []string{"float32", "f32"} {
		_, err := ParsePrecision(in)
		if err == nil || !strings.Contains(err.Error(), "float32") || !strings.Contains(err.Error(), "-precision int8") {
			t.Errorf("ParsePrecision(%q) = %v; want a float32 retrain error", in, err)
		}
	}
	if Precision("float32").Valid() || Precision("float32").Low() {
		t.Error("float32 still counts as a serving precision")
	}
	if !Precision("").Valid() || Precision("int4").Valid() {
		t.Error("Valid() wrong on edge spellings")
	}
}

// TestInferForward32MatchesFloat64 drives the full int8 forward and bounds
// the deviation from the float64 golden path.
func TestInferForward32MatchesFloat64(t *testing.T) {
	enc, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	batch := tinyBatch()
	want, err := enc.InferForward(batch, NewInferScratch(enc.Config(), batch.Tokens()))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		prec Precision
		tol  float64
	}{{PrecisionInt8, int8Tol}} {
		s := NewInferScratchPrec(enc.Config(), batch.Tokens(), tc.prec)
		if s.Precision() != tc.prec {
			t.Fatalf("scratch precision %q, want %q", s.Precision(), tc.prec)
		}
		got, err := enc.InferForward32(batch, s)
		if err != nil {
			t.Fatalf("%s: %v", tc.prec, err)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s: shape %dx%d, want %dx%d", tc.prec, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		worst := 0.0
		for i, w := range want.Data {
			d := math.Abs(w-float64(got.Data[i])) / (1 + math.Abs(w))
			if d > worst {
				worst = d
			}
		}
		if worst > tc.tol {
			t.Errorf("%s: worst relative deviation %g > %g", tc.prec, worst, tc.tol)
		}

		// Same scratch, same batch: the low path must be deterministic.
		got2, err := enc.InferForward32(batch, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Data {
			if got.Data[i] != got2.Data[i] {
				t.Fatalf("%s: rerun diverges at %d", tc.prec, i)
			}
		}
	}
}

// TestInferEmbedCLSDispatch: the pooled entry points must route on the
// scratch's precision and produce float64 rows near the golden ones.
func TestInferEmbedCLSDispatch(t *testing.T) {
	enc, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	batch := tinyBatch()
	wantEmb := tensor.NewMatrix(batch.Size(), enc.Config().Hidden)
	wantCLS := tensor.NewMatrix(batch.Size(), enc.Config().Hidden)
	f64s := NewInferScratch(enc.Config(), batch.Tokens())
	if err := enc.InferEmbedInto(batch, f64s, wantEmb, 0); err != nil {
		t.Fatal(err)
	}
	if err := enc.InferCLSInto(batch, f64s, wantCLS, 0); err != nil {
		t.Fatal(err)
	}

	s := NewInferScratchPrec(enc.Config(), batch.Tokens(), PrecisionInt8)
	gotEmb := tensor.NewMatrix(batch.Size(), enc.Config().Hidden)
	gotCLS := tensor.NewMatrix(batch.Size(), enc.Config().Hidden)
	if err := enc.InferEmbedInto(batch, s, gotEmb, 0); err != nil {
		t.Fatal(err)
	}
	if err := enc.InferCLSInto(batch, s, gotCLS, 0); err != nil {
		t.Fatal(err)
	}
	// The tiny encoder's pooled rows sit ~1e-4 from float64 on int8.
	if d := maxAbsDiff(t, wantEmb, gotEmb); d > 1e-3 {
		t.Errorf("embed deviation %g", d)
	}
	if d := maxAbsDiff(t, wantCLS, gotCLS); d > 1e-3 {
		t.Errorf("cls deviation %g", d)
	}

	// The float64 entry points must refuse a low-precision scratch and
	// vice versa, not silently mix rungs.
	if _, err := enc.InferForward(batch, s); err == nil {
		t.Error("InferForward accepted an int8 scratch")
	}
	if _, err := enc.InferForward32(batch, f64s); err == nil {
		t.Error("InferForward32 accepted a float64 scratch")
	}
}

// TestLowWeightsRoundTrip: Lowered converts once and hands back the same
// weights after, and two encoders with the same float64 weights lower to
// int8 weights whose forward passes agree bitwise — the property that
// lets a bundle derive its int8 weights from model.gob instead of
// storing them.
func TestLowWeightsRoundTrip(t *testing.T) {
	enc, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	lw := enc.Lowered()
	if enc.Lowered() != lw {
		t.Fatal("Lowered did not cache")
	}
	enc2, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	batch := tinyBatch()
	h1, err := enc.InferForward32(batch, NewInferScratchPrec(enc.Config(), batch.Tokens(), PrecisionInt8))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := enc2.InferForward32(batch, NewInferScratchPrec(enc2.Config(), batch.Tokens(), PrecisionInt8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1.Data {
		if h1.Data[i] != h2.Data[i] {
			t.Fatalf("same-seed int8 forwards diverge at %d", i)
		}
	}
}

// loweredGolden is the sha256 of hashLowered over goldenEncoder's int8
// weights. It hashes the logical values only, so it is the same for every
// KPad/NPad layout: it was computed with K padded to 32 and holds with K
// padded to 4, pinning the int8 values bundles served under both.
const loweredGolden = "67986451c7dab5c0f7ca402e137b80f3e557c878d3d206eb12cdd07577c27227"

// goldenEncoder is the seeded tiny encoder with every parameter, biases
// and norms included, perturbed off its initializer's values.
func goldenEncoder(t *testing.T) *Encoder {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	enc, err := NewEncoder(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range enc.Params() {
		for i := range p.Val.Data {
			p.Val.Data[i] += 0.1 * rng.NormFloat64()
		}
	}
	return enc
}

// hashLowered digests the logical int8 weights (At over Rows×Cols, not
// the padded storage), scales and narrowed float32 matrices of lw, with
// their dimensions, in a fixed walk order.
func hashLowered(lw *LowWeights) string {
	h := sha256.New()
	put := func(v any) { binary.Write(h, binary.LittleEndian, v) }
	f32 := func(m *tensor.Matrix32) {
		put([]int64{int64(m.Rows), int64(m.Cols)})
		put(m.Data)
	}
	q := func(m *tensor.Int8Matrix) {
		put([]int64{int64(m.Rows), int64(m.Cols)})
		vals := make([]int8, 0, m.Rows*m.Cols)
		for k := 0; k < m.Rows; k++ {
			for j := 0; j < m.Cols; j++ {
				vals = append(vals, m.At(k, j))
			}
		}
		put(vals)
		put(m.Scales)
	}
	f32(lw.tok)
	f32(lw.pos)
	f32(lw.embGamma)
	f32(lw.embBeta)
	for i := range lw.blocks {
		b := &lw.blocks[i]
		for _, ll := range []*lowLinear{&b.WQ, &b.WK, &b.WV, &b.WO, &b.FF1, &b.FF2} {
			q(ll.Q)
			f32(ll.B)
		}
		f32(b.AttnGamma)
		f32(b.AttnBeta)
		f32(b.FFGamma)
		f32(b.FFBeta)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoweredGolden pins the int8 lowering bit for bit. Bundles no longer
// store the int8 weights, so a change to QuantizeMatrix's rounding or
// Narrow would silently change what every int8 and cascade bundle serves;
// this hash catches it.
func TestLoweredGolden(t *testing.T) {
	if got := hashLowered(goldenEncoder(t).Lowered()); got != loweredGolden {
		t.Fatalf("int8 lowering changed: sha256 %s, want %s", got, loweredGolden)
	}
}
