package tuning

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// stubRungScorer is a deterministic table-driven scorer for cascade routing
// tests; it records the batches it was asked to score.
type stubRungScorer struct {
	scores map[string]float64
	calls  [][]string
}

func (s *stubRungScorer) Score(lines []string) ([]float64, error) {
	s.calls = append(s.calls, append([]string(nil), lines...))
	out := make([]float64, len(lines))
	for i, l := range lines {
		out[i] = s.scores[l]
	}
	return out, nil
}

func (s *stubRungScorer) Replicate() Scorer {
	return &stubRungScorer{scores: s.scores}
}

// notReplicable is a Scorer without Replicate, for constructor validation.
type notReplicable struct{}

func (notReplicable) Score(lines []string) ([]float64, error) {
	return make([]float64, len(lines)), nil
}

// TestCascadeRoutesRungs: over random batches with duplicate lines, every
// line is triaged, exactly the lines whose triage score is at or above
// EscalateLow (the edge included) take the confirm score, the rest keep
// the triage score, and the output stays in input order.
func TestCascadeRoutesRungs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const low = 0.5
	for trial := 0; trial < 200; trial++ {
		vocab := make([]string, 1+rng.Intn(12))
		triage := &stubRungScorer{scores: map[string]float64{}}
		confirm := &stubRungScorer{scores: map[string]float64{}}
		for i := range vocab {
			vocab[i] = fmt.Sprintf("cmd%d -x %d", trial, i)
			ts := rng.Float64()
			if rng.Intn(4) == 0 {
				ts = low // the band edge escalates
			}
			triage.scores[vocab[i]] = ts
			confirm.scores[vocab[i]] = 10 + rng.Float64()
		}
		lines := make([]string, rng.Intn(40))
		for i := range lines {
			lines[i] = vocab[rng.Intn(len(vocab))] // duplicates on purpose
		}
		casc, err := NewCascadeScorer(nil, triage, confirm, CascadeParams{EscalateLow: low})
		if err != nil {
			t.Fatalf("NewCascadeScorer: %v", err)
		}
		got, err := casc.Score(lines)
		if err != nil {
			t.Fatalf("trial %d: Score: %v", trial, err)
		}
		if len(got) != len(lines) {
			t.Fatalf("trial %d: %d scores for %d lines", trial, len(got), len(lines))
		}
		inBand := 0
		for i, line := range lines {
			want := triage.scores[line]
			if want >= low {
				want = confirm.scores[line]
				inBand++
			}
			if got[i] != want {
				t.Fatalf("trial %d: score[%d] (%q) = %v, want %v", trial, i, line, got[i], want)
			}
		}
		st := casc.CascadeStats()
		if st.Triaged != int64(len(lines)) || st.Escalated != int64(inBand) || st.Cleared != 0 {
			t.Fatalf("trial %d: CascadeStats = %+v, want triaged %d escalated %d", trial, st, len(lines), inBand)
		}
		if inBand == 0 && len(confirm.calls) != 0 {
			t.Fatalf("trial %d: confirm rung called with an empty band: %v", trial, confirm.calls)
		}
	}
}

// failingScorer fails or returns the wrong number of scores, so the
// cascade's rung error paths can be pinned.
type failingScorer struct {
	err   error
	short bool
}

func (f failingScorer) Score(lines []string) ([]float64, error) {
	if f.err != nil {
		return nil, f.err
	}
	out := make([]float64, len(lines))
	if f.short {
		out = out[:len(out)-1]
	}
	for i := range out {
		out[i] = 1 // every line escalates
	}
	return out, nil
}

func (f failingScorer) Replicate() Scorer { return f }

func TestCascadeRungErrorsSurface(t *testing.T) {
	boom := errors.New("boom")
	good := failingScorer{}
	for _, tc := range []struct {
		name            string
		triage, confirm Scorer
		want            string
	}{
		{"triage error", failingScorer{err: boom}, good, "triage rung"},
		{"triage short", failingScorer{short: true}, good, "triage rung returned 1 scores for 2 lines"},
		{"confirm error", good, failingScorer{err: boom}, "confirm rung"},
		{"confirm short", good, failingScorer{short: true}, "confirm rung returned 1 scores for 2 lines"},
	} {
		casc, err := NewCascadeScorer(nil, tc.triage, tc.confirm, CascadeParams{EscalateLow: 0.5})
		if err != nil {
			t.Fatalf("%s: NewCascadeScorer: %v", tc.name, err)
		}
		_, err = casc.Score([]string{"ls", "id"})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestCascadeReplicateIsolatesCounters(t *testing.T) {
	triage := &stubRungScorer{scores: map[string]float64{"ls -la /tmp": 0.2}}
	confirm := &stubRungScorer{scores: map[string]float64{}}
	casc, err := NewCascadeScorer(nil, triage, confirm, CascadeParams{EscalateLow: 1})
	if err != nil {
		t.Fatalf("NewCascadeScorer: %v", err)
	}
	if _, err := casc.Score([]string{"ls -la /tmp"}); err != nil {
		t.Fatalf("Score: %v", err)
	}
	rep, ok := casc.Replicate().(*CascadeScorer)
	if !ok {
		t.Fatal("Replicate did not return a CascadeScorer")
	}
	if st := rep.CascadeStats(); st != (CascadeStats{}) {
		t.Fatalf("replica counters %+v, want zero", st)
	}
	got, err := rep.Score([]string{"ls -la /tmp"})
	if err != nil || got[0] != 0.2 {
		t.Fatalf("replica score = %v, %v; want 0.2", got, err)
	}
	if st := casc.CascadeStats(); st.Triaged != 1 {
		t.Fatalf("original counters %+v changed by replica scoring", st)
	}
}

func TestNewCascadeScorerValidation(t *testing.T) {
	ok := &stubRungScorer{scores: map[string]float64{}}
	params := CascadeParams{EscalateLow: 1}
	if _, err := NewCascadeScorer(nil, nil, ok, params); err == nil {
		t.Fatal("nil triage scorer accepted")
	}
	if _, err := NewCascadeScorer(nil, notReplicable{}, ok, params); err == nil {
		t.Fatal("non-replicable triage scorer accepted")
	}
	if _, err := NewCascadeScorer(nil, ok, notReplicable{}, params); err == nil {
		t.Fatal("non-replicable confirm scorer accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewCascadeScorer(nil, ok, ok, CascadeParams{EscalateLow: v}); err == nil {
			t.Fatalf("escalation floor %v accepted", v)
		}
	}
}
