package model

import (
	"bytes"
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

// TestLowWeightsRoundTrip pins the quantized-section serialization:
// deterministic bytes, shape-validated load, and a loaded snapshot that
// scores identically to the in-memory conversion.
func TestLowWeightsRoundTrip(t *testing.T) {
	enc, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []Precision{PrecisionInt8} {
		lw, err := enc.Lowered(prec)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := enc.Lowered(prec); again != lw {
			t.Fatalf("%s: Lowered did not cache", prec)
		}

		var buf, buf2 bytes.Buffer
		if err := SaveLowWeights(&buf, lw); err != nil {
			t.Fatal(err)
		}
		if err := SaveLowWeights(&buf2, lw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: snapshot is not deterministic", prec)
		}

		loaded, err := LoadLowWeights(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Precision() != prec {
			t.Fatalf("loaded precision %q, want %q", loaded.Precision(), prec)
		}

		// Install into a second encoder with the same architecture: the
		// forward must produce exactly the in-memory-lowered results.
		enc2, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if err := enc2.SetLowered(loaded); err != nil {
			t.Fatal(err)
		}
		batch := tinyBatch()
		s1 := NewInferScratchPrec(enc.Config(), batch.Tokens(), prec)
		s2 := NewInferScratchPrec(enc.Config(), batch.Tokens(), prec)
		h1, err := enc.InferForward32(batch, s1)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := enc2.InferForward32(batch, s2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range h1.Data {
			if h1.Data[i] != h2.Data[i] {
				t.Fatalf("%s: loaded weights diverge at %d", prec, i)
			}
		}

		// Truncation and tampering must fail cleanly, never panic.
		if _, err := LoadLowWeights(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
			t.Errorf("%s: truncated snapshot loaded", prec)
		}
	}

	// A snapshot from a different architecture must be rejected.
	cfg := tinyConfig()
	cfg.Hidden, cfg.FFN = 32, 64
	other, err := NewEncoder(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	lw, err := other.Lowered(PrecisionInt8)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.SetLowered(lw); err == nil {
		t.Error("SetLowered accepted weights for a different architecture")
	}
}
