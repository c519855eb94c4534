package tuning

import (
	"bytes"
	"math"
	"testing"

	"clmids/internal/bpe"
	"clmids/internal/linalg"
	"clmids/internal/model"
)

// testBackbone returns the shared fixture's frozen encoder + tokenizer.
func testBackbone(t *testing.T) (*model.Encoder, *bpe.Tokenizer) {
	t.Helper()
	f := getFixture(t)
	return f.mdl.Encoder, f.tok
}

// testLines is a scoring stream with duplicates (exercises dedup + memo).
func testLines(t *testing.T) []string {
	t.Helper()
	return engineFixtureLines(getFixture(t))
}

// testPCAScorer trains the unsupervised method over the fixture baseline —
// the cheapest engine-backed scorer, enough to exercise the precision
// plumbing shared by all four methods.
func testPCAScorer(t *testing.T) *PCAScorer {
	t.Helper()
	f := getFixture(t)
	sc, err := TrainPCA(f.mdl.Encoder, f.tok, f.trainX, linalg.PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// engineAt builds an engine over the shared test backbone at one rung.
func engineAt(t *testing.T, prec model.Precision) (*Engine, []string) {
	t.Helper()
	enc, tok := testBackbone(t)
	cfg := DefaultEngineConfig()
	cfg.Precision = prec
	return NewEngine(enc, tok, cfg), testLines(t)
}

// TestEnginePrecisionParity bounds the int8 embeddings against the float64
// engine and pins determinism across repeated calls.
func TestEnginePrecisionParity(t *testing.T) {
	f64e, lines := engineAt(t, model.PrecisionFloat64)
	want, err := f64e.EmbedLines(lines)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		prec model.Precision
		tol  float64
	}{{model.PrecisionInt8, 0.2}} {
		e, _ := engineAt(t, tc.prec)
		if e.Precision() != tc.prec {
			t.Fatalf("engine precision %q, want %q", e.Precision(), tc.prec)
		}
		got, err := e.EmbedLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := range want.Data {
			d := math.Abs(want.Data[i]-got.Data[i]) / (1 + math.Abs(want.Data[i]))
			if d > worst {
				worst = d
			}
		}
		if worst > tc.tol {
			t.Errorf("%s: worst relative deviation %g > %g", tc.prec, worst, tc.tol)
		}

		// Repeat pass: rows must be byte-identical to the first pass.
		again, err := e.EmbedLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Data {
			if got.Data[i] != again.Data[i] {
				t.Fatalf("%s: repeated row diverges at %d", tc.prec, i)
			}
		}

		// Clones inherit the rung and score identically.
		clone := e.Clone()
		if clone.Precision() != tc.prec {
			t.Errorf("clone precision %q, want %q", clone.Precision(), tc.prec)
		}
		cg, err := clone.EmbedLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Data {
			if got.Data[i] != cg.Data[i] {
				t.Fatalf("%s: clone diverges at %d", tc.prec, i)
			}
		}

		// WithPrecision back to float64 must reproduce the golden rows
		// exactly — the float64 kernels are untouched by the int8 path.
		back, err := e.WithPrecision(model.PrecisionFloat64).EmbedLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if want.Data[i] != back.Data[i] {
				t.Fatalf("%s: WithPrecision(float64) not bitwise-golden at %d", tc.prec, i)
			}
		}
	}
}

// TestSetScorerPrecision derives an int8 rung from a float64 scorer with
// AtPrecision: the int8 scores stay within the ladder tolerance, the
// original keeps serving bitwise at float64, a float64 rung derived back
// from the int8 one is bitwise golden, and an unknown rung is refused.
func TestSetScorerPrecision(t *testing.T) {
	sc := testPCAScorer(t)
	lines := testLines(t)
	want, err := sc.Score(lines)
	if err != nil {
		t.Fatal(err)
	}
	if p := engineOf(sc).Precision(); p != model.PrecisionFloat64 {
		t.Fatalf("fresh scorer serves at %q", p)
	}
	low, err := AtPrecision(sc, model.PrecisionInt8)
	if err != nil {
		t.Fatal(err)
	}
	if p := engineOf(low).Precision(); p != model.PrecisionInt8 {
		t.Fatalf("derived rung serves at %q", p)
	}
	if p := engineOf(sc).Precision(); p != model.PrecisionFloat64 {
		t.Fatalf("AtPrecision moved the original to %q", p)
	}
	got, err := low.Score(lines)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := math.Abs(want[i] - got[i]); d > 0.2*(1+math.Abs(want[i])) {
			t.Errorf("line %d: int8 %g vs f64 %g", i, got[i], want[i])
		}
	}
	bitwise := func(name string, s Scorer) {
		t.Helper()
		back, err := s.Score(lines)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != back[i] {
				t.Fatalf("%s: line %d not bitwise float64 (%g vs %g)", name, i, back[i], want[i])
			}
		}
	}
	bitwise("original", sc)
	high, err := AtPrecision(low, model.PrecisionFloat64)
	if err != nil {
		t.Fatal(err)
	}
	bitwise("derived float64", high)
	if _, err := AtPrecision(sc, "int4"); err == nil {
		t.Error("AtPrecision accepted an unknown rung")
	}
}

// TestLoadScorerHeadPrec loads a head at float64 and derives its int8 rung,
// the way a cascade bundle builds its triage rung: the loaded head serves
// at float64, the int8 rung scores like the original within tolerance, and
// replicas of the int8 rung inherit it.
func TestLoadScorerHeadPrec(t *testing.T) {
	sc := testPCAScorer(t)
	lines := testLines(t)
	want, err := sc.Score(lines)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveScorerHead(&buf, sc); err != nil {
		t.Fatal(err)
	}
	enc, tok := testBackbone(t)
	loaded, method, err := LoadScorerHead(bytes.NewReader(buf.Bytes()), enc, tok)
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodPCA {
		t.Fatalf("method %q", method)
	}
	if p := engineOf(loaded).Precision(); p != model.PrecisionFloat64 {
		t.Fatalf("loaded head serves at %q", p)
	}
	low, err := AtPrecision(loaded, model.PrecisionInt8)
	if err != nil {
		t.Fatal(err)
	}
	if p := engineOf(low).Precision(); p != model.PrecisionInt8 {
		t.Fatalf("derived rung serves at %q", p)
	}
	got, err := low.Score(lines)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := math.Abs(want[i] - got[i]); d > 0.2*(1+math.Abs(want[i])) {
			t.Errorf("line %d: int8-loaded %g vs f64 %g", i, got[i], want[i])
		}
	}

	reps, err := Replicas(low, 3)
	if err != nil {
		t.Fatal(err)
	}
	for ri, r := range reps {
		if p := engineOf(r).Precision(); p != model.PrecisionInt8 {
			t.Fatalf("replica %d precision %q", ri, p)
		}
		rs, err := r.Score(lines)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if rs[i] != got[i] {
				t.Fatalf("replica %d diverges at line %d", ri, i)
			}
		}
	}
}
