package tuning

import (
	"math"
	"sync"
	"testing"

	"clmids/internal/linalg"
	"clmids/internal/tensor"
)

// concurrencyScorers builds one instance of each method scorer over the
// shared fixture. The reconstruction tuner mutates its encoder during
// training, so it gets a clone.
func concurrencyScorers(t *testing.T) map[string]Scorer {
	t.Helper()
	f := getFixture(t)

	ccfg := DefaultClassifierConfig()
	ccfg.Epochs = 2
	clf, err := TrainClassifier(f.mdl.Encoder, f.tok, f.trainX, f.trainY, ccfg)
	if err != nil {
		t.Fatal(err)
	}

	mcfg := DefaultClassifierConfig()
	mcfg.Epochs = 2
	mcfg.MeanPoolFeatures = true
	multi, err := TrainClassifier(f.mdl.Encoder, f.tok, f.trainX, f.trainY, mcfg)
	if err != nil {
		t.Fatal(err)
	}

	ret, err := TrainRetrieval(f.mdl.Encoder, f.tok, f.trainX, f.trainY, 1)
	if err != nil {
		t.Fatal(err)
	}

	clone := cloneModel(t, f.mdl)
	rcfg := DefaultReconsConfig()
	rcfg.Rounds = 1
	rec, err := TrainReconstruction(clone.Encoder, f.tok, f.trainX, f.trainY, rcfg)
	if err != nil {
		t.Fatal(err)
	}

	pca, err := TrainPCA(f.mdl.Encoder, f.tok, f.trainX, linalg.PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}

	return map[string]Scorer{
		"classifier":     clf,
		"classifier-cls": multi,
		"retrieval":      ret,
		"reconstruction": rec,
		"pca":            pca,
	}
}

// TestScorersConcurrentScore pins the serving contract: every method
// scorer's Score must be safe for concurrent use (run with -race in CI)
// and concurrent results must equal serial ones exactly — the scoring path
// is deterministic, memo hit or miss. Each scorer runs with its default
// memo and with an 8-entry memo that evicts on nearly every insert, and
// the memo counters must account for every distinct input of every call.
func TestScorersConcurrentScore(t *testing.T) {
	scorers := concurrencyScorers(t)
	f := getFixture(t)
	lines := append(append([]string(nil), f.testPos...), f.testNeg...)

	for name, base := range scorers {
		t.Run(name, func(t *testing.T) {
			for _, s := range []Scorer{base, withMemo(base, 8)} {
				want, err := s.Score(lines)
				if err != nil {
					t.Fatal(err)
				}
				probes := distinct(lines)
				const goroutines = 8
				got := make([][]float64, goroutines)
				errs := make([]error, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					probes += distinct(lines[g%4:])
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						// Overlapping windows, so goroutines share memo
						// entries and in-flight computations.
						win := lines[g%4:]
						got[g], errs[g] = s.Score(win)
					}(g)
				}
				wg.Wait()
				for g := 0; g < goroutines; g++ {
					if errs[g] != nil {
						t.Fatalf("goroutine %d: %v", g, errs[g])
					}
					off := g % 4
					for i, v := range got[g] {
						if v != want[off+i] {
							t.Fatalf("goroutine %d line %d: concurrent %g, serial %g", g, i, v, want[off+i])
						}
					}
				}
				st := s.(CacheStatser).CacheStats()
				if st.Hits+st.Misses != probes {
					t.Fatalf("memo counted %d hits + %d misses, want %d distinct probes", st.Hits, st.Misses, probes)
				}
				if capacity := engineOf(s).cfg.CacheLines; st.Entries > capacity {
					t.Fatalf("memo holds %d entries, cap %d", st.Entries, capacity)
				}
			}
		})
	}
}

// withMemo returns a replica of s whose engine memo holds capacity entries.
func withMemo(s Scorer, capacity int) Scorer {
	r := s.(Replicable).Replicate()
	e := engineOf(r)
	cfg := e.cfg
	cfg.CacheLines = capacity
	swapEngine(r, NewEngine(e.enc, e.tok, cfg))
	return r
}

// TestScorersEmptyInput: scoring zero lines returns zero scores on every
// method — the streaming service flushes empty windows routinely.
func TestScorersEmptyInput(t *testing.T) {
	for name, s := range concurrencyScorers(t) {
		scores, err := s.Score(nil)
		if err != nil {
			t.Fatalf("%s: empty Score: %v", name, err)
		}
		if len(scores) != 0 {
			t.Fatalf("%s: empty Score returned %d scores", name, len(scores))
		}
	}
}

// TestHeadLogitsMatchesTape: the tape-free head forward must reproduce the
// autograd MLP forward exactly (same kernels, same order).
func TestHeadLogitsMatchesTape(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultClassifierConfig()
	cfg.Epochs = 2
	clf, err := TrainClassifier(f.mdl.Encoder, f.tok, f.trainX, f.trainY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := clf.engine.CLSLines(f.testPos)
	if err != nil {
		t.Fatal(err)
	}
	got := headLogits(clf.head, feats)
	want := clf.head.Forward(tensor.Const(feats))
	for i := range want.Val.Data {
		if d := math.Abs(want.Val.Data[i] - got.Data[i]); d != 0 {
			t.Fatalf("element %d: tape-free %g, tape %g", i, got.Data[i], want.Val.Data[i])
		}
	}
}
