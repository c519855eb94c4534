package tuning

import (
	"fmt"
	"testing"

	"clmids/internal/model"
	"clmids/internal/tensor"
)

// TestScorerReplicasScoreIdentically pins the sharding contract: for every
// method scorer, Replicate produces replicas whose scores are byte-equal
// to the original's on the same lines, with independent caches.
func TestScorerReplicasScoreIdentically(t *testing.T) {
	scorers := concurrencyScorers(t)
	f := getFixture(t)
	lines := append(append([]string(nil), f.testPos...), f.testNeg...)

	for name, s := range scorers {
		t.Run(name, func(t *testing.T) {
			reps, err := Replicas(s, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(reps) != 3 || reps[0] != s {
				t.Fatalf("Replicas: got %d scorers, first-is-original=%v", len(reps), reps[0] == s)
			}
			want, err := s.Score(lines)
			if err != nil {
				t.Fatal(err)
			}
			for r, rep := range reps[1:] {
				got, err := rep.Score(lines)
				if err != nil {
					t.Fatalf("replica %d: %v", r+1, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("replica %d line %d: %g, original %g", r+1, i, got[i], want[i])
					}
				}
			}
			// Replica memos are independent: the original's warm entries
			// must not appear in a fresh replica or a precision variant
			// before it scores.
			if st := s.(CacheStatser).CacheStats(); st.Entries == 0 {
				t.Fatalf("original memo stayed empty: %+v", st)
			}
			fresh := []Scorer{s.(Replicable).Replicate()}
			for _, p := range []model.Precision{model.PrecisionFloat64, model.PrecisionInt8} {
				v, err := AtPrecision(s, p)
				if err != nil {
					t.Fatal(err)
				}
				fresh = append(fresh, v)
			}
			for i, sc := range fresh {
				if st := sc.(CacheStatser).CacheStats(); st != (CacheStats{}) {
					t.Fatalf("fresh scorer %d starts with memo state %+v", i, st)
				}
			}
		})
	}
}

// plainScorer is a Scorer without Replicate.
type plainScorer struct{}

func (plainScorer) Score(lines []string) ([]float64, error) {
	return make([]float64, len(lines)), nil
}

// TestReplicasRequiresReplicable: fanning out a non-replicable scorer is
// an error; a single "replica" (the scorer itself) is always fine.
func TestReplicasRequiresReplicable(t *testing.T) {
	if _, err := Replicas(plainScorer{}, 2); err == nil {
		t.Fatal("Replicas(non-replicable, 2) succeeded")
	}
	one, err := Replicas(plainScorer{}, 1)
	if err != nil || len(one) != 1 {
		t.Fatalf("Replicas(non-replicable, 1): %v %d", err, len(one))
	}
	if _, err := Replicas(plainScorer{}, 0); err != nil {
		t.Fatalf("Replicas clamps n<1: %v", err)
	}
}

// TestEngineCloneIndependence: a cloned engine shares the frozen weights
// (identical outputs) but owns its memo and counters.
func TestEngineCloneIndependence(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultEngineConfig()
	cfg.CacheLines = 64
	eng := NewEngine(f.mdl.Encoder, f.tok, cfg)
	lines := f.testPos
	// A per-row head: each line's score is the sum of its embedding.
	rowSums := func(x *tensor.Matrix) []float64 {
		out := make([]float64, x.Rows)
		for i := range out {
			for _, v := range x.Row(i) {
				out[i] += v
			}
		}
		return out
	}

	want, err := eng.Score(lines, FeatureMean, rowSums)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("original engine recorded no memo activity: %+v", st)
	}

	clone := eng.Clone()
	if st := clone.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("clone inherited memo state: %+v", st)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := clone.Score(lines, FeatureMean, rowSums)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("clone pass %d", pass), got, want)
	}
	// The second pass over the same lines is all hits.
	if st := clone.CacheStats(); st.Hits == 0 || st.Hits != st.Misses {
		t.Fatalf("clone memo: %+v, want one hit per first-pass miss", st)
	}
}
