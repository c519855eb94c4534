package clmids

import (
	"math"
	"sort"
	"testing"

	"clmids/internal/commercial"
	"clmids/internal/core"
	"clmids/internal/corpus"
	"clmids/internal/metrics"
	"clmids/internal/model"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// Corpus-level parity harness for the int8 serve path: the acceptance
// gate is that serving at int8 changes arithmetic, not detections —
// identical session alarms on a replayed corpus at a stability-checked
// threshold, per-line scores within the documented deviation bound, and
// ROC-AUC drift ≤ 0.01 against the float64 scorer.

// ladderTolerance is the documented per-line score deviation bound per
// low precision (relative, against the float64 score).
var ladderTolerance = map[model.Precision]float64{
	model.PrecisionInt8: 0.15,
}

const ladderAUCDrift = 0.01

// parityFixture: one trained tiny pipeline, a float64 retrieval scorer, the
// training dataset (the cascade harness calibrates against it), and a
// labeled evaluation stream.
func parityFixture(t *testing.T) (tuning.Scorer, *corpus.Dataset, *corpus.Dataset) {
	t.Helper()
	ccfg := corpus.DefaultConfig()
	ccfg.TrainLines = 400
	ccfg.TestLines = 1500
	ccfg.IntrusionRate = 0.1
	train, test, err := corpus.Generate(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := core.TinyExperiment().Pipeline
	pcfg.Pretrain.Epochs = 1
	pl, err := core.BuildPipeline(train.Lines(), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := commercial.Default().Label(train.Lines(), commercial.DefaultNoise(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Retrieval scores are average cosine similarities — O(1) magnitudes,
	// so relative-deviation bounds are meaningful. (The tiny PCA method
	// retains nearly every component and its reconstruction errors sit at
	// the float rounding floor, which would make this harness vacuous.)
	scorer, err := core.BuildScorer(pl, core.ScorerConfig{Method: tuning.MethodRetrieval, Seed: 7},
		train.Lines(), labels)
	if err != nil {
		t.Fatal(err)
	}
	return scorer, train, test
}

// atPrecision returns an independent scorer serving the same head at the
// given rung (the float64 original is never mutated).
func atPrecision(t *testing.T, s tuning.Scorer, prec model.Precision) tuning.Scorer {
	t.Helper()
	r, err := tuning.AtPrecision(s, prec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// stableThreshold picks an alarm threshold from the float64 session-score
// trace that every rung agrees on by construction: the midpoint of the
// widest gap between adjacent distinct scores in the upper half of the
// distribution. A threshold centered in a wide gap cannot flip on
// sub-tolerance score deviations, so alarm parity tests what the ladder
// promises (same detections) rather than knife-edge rounding.
func stableThreshold(t *testing.T, scores []float64) float64 {
	t.Helper()
	uniq := append([]float64(nil), scores...)
	sort.Float64s(uniq)
	uniq = uniq[:uniquify(uniq)]
	if len(uniq) < 4 {
		t.Fatalf("only %d distinct session scores", len(uniq))
	}
	lo, bestGap, thr := len(uniq)/2, 0.0, 0.0
	for i := lo; i+1 < len(uniq); i++ {
		if gap := uniq[i+1] - uniq[i]; gap > bestGap {
			bestGap = gap
			thr = (uniq[i+1] + uniq[i]) / 2
		}
	}
	return thr
}

func uniquify(sorted []float64) int {
	n := 0
	for i, v := range sorted {
		if i == 0 || v != sorted[n-1] {
			sorted[n] = v
			n++
		}
	}
	return n
}

// runStream replays the dataset through a session detector and returns
// the per-event verdicts.
func runStream(t *testing.T, s tuning.Scorer, ds *corpus.Dataset, sessThr float64) []stream.Verdict {
	t.Helper()
	cfg := stream.DefaultConfig()
	cfg.ContextWindow = 2
	cfg.SessionThreshold = sessThr
	det := stream.NewDetector(s, cfg)
	events := make([]stream.Event, len(ds.Samples))
	for i, smp := range ds.Samples {
		events[i] = stream.Event{User: smp.User, Time: smp.Time, Line: smp.Line}
	}
	verdicts := make([]stream.Verdict, 0, len(events))
	for at := 0; at < len(events); at += 200 {
		end := at + 200
		if end > len(events) {
			end = len(events)
		}
		vs, err := det.Process(events[at:end])
		if err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, vs...)
	}
	return verdicts
}

// scoredItems pairs batch scores with ground truth for AUC.
func scoredItems(t *testing.T, s tuning.Scorer, ds *corpus.Dataset) []metrics.Scored {
	t.Helper()
	scores, err := s.Score(ds.Lines())
	if err != nil {
		t.Fatal(err)
	}
	items := make([]metrics.Scored, len(scores))
	for i, smp := range ds.Samples {
		items[i] = metrics.Scored{
			Line: smp.Line, Score: scores[i],
			TrueIntrusion: smp.Label == corpus.Intrusion,
		}
	}
	return metrics.Dedup(items)
}

func TestPrecisionLadderCorpusParity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus parity harness builds a pipeline")
	}
	f64Scorer, _, test := parityFixture(t)

	// Pass 1 (float64, thresholds off): learn a stable session threshold.
	probe := runStream(t, atPrecision(t, f64Scorer, model.PrecisionFloat64), test, 0)
	sessScores := make([]float64, len(probe))
	for i, v := range probe {
		sessScores[i] = v.SessionScore
	}
	thr := stableThreshold(t, sessScores)

	want := runStream(t, f64Scorer, test, thr)
	wantAlarms := 0
	for _, v := range want {
		if v.SessionAlert {
			wantAlarms++
		}
	}
	if wantAlarms == 0 {
		t.Fatalf("threshold %g produced no session alarms; harness is vacuous", thr)
	}
	f64AUC, err := metrics.ROCAUC(scoredItems(t, f64Scorer, test))
	if err != nil {
		t.Fatal(err)
	}

	for prec, tol := range ladderTolerance {
		t.Run(string(prec), func(t *testing.T) {
			low := atPrecision(t, f64Scorer, prec)
			got := runStream(t, low, test, thr)
			if len(got) != len(want) {
				t.Fatalf("%d verdicts, want %d", len(got), len(want))
			}
			worst := 0.0
			for i := range got {
				if got[i].SessionAlert != want[i].SessionAlert {
					t.Fatalf("event %d (%q): session alarm %v, float64 says %v",
						i, got[i].Line, got[i].SessionAlert, want[i].SessionAlert)
				}
				d := math.Abs(got[i].LineScore-want[i].LineScore) / (1 + math.Abs(want[i].LineScore))
				if d > worst {
					worst = d
				}
			}
			if worst > tol {
				t.Errorf("worst per-line deviation %g > documented bound %g", worst, tol)
			}

			auc, err := metrics.ROCAUC(scoredItems(t, low, test))
			if err != nil {
				t.Fatal(err)
			}
			if drift := math.Abs(auc - f64AUC); drift > ladderAUCDrift {
				t.Errorf("AUC %g vs float64 %g: drift %g > %g", auc, f64AUC, drift, ladderAUCDrift)
			}
			t.Logf("%s: alarms %d, worst line deviation %.2e, AUC %.4f (f64 %.4f)",
				prec, wantAlarms, worst, auc, f64AUC)
		})
	}
}
