package clmids

import (
	"math"
	"testing"

	"clmids/internal/core"
	"clmids/internal/corpus"
	"clmids/internal/metrics"
	"clmids/internal/modality"
	"clmids/internal/model"
	"clmids/internal/tuning"
)

// Corpus-level parity harness for the scoring cascade (int8 triage → f64
// confirm), run on every registered modality. The acceptance gate mirrors
// the precision ladder's: on a replayed corpus at a stability-checked
// threshold, the cascade raises exactly the session alarms the f64-only
// scorer raises, while both rungs genuinely absorb traffic. The cascade
// promises the f64 detector, not a better one, so the AUC gate is
// two-sided: the cascade's AUC may sit at most this far from f64's in
// either direction.
const cascadeAUCDrift = 0.05

func TestCascadeCorpusParity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus parity harness builds a pipeline per modality")
	}
	for _, name := range modality.Names() {
		t.Run(name, func(t *testing.T) {
			f64Scorer, train, test := oracleParityFixture(t, name)

			art, err := core.CalibrateCascade(f64Scorer, train.Lines())
			if err != nil {
				t.Fatal(err)
			}
			casc, err := core.BuildCascade(f64Scorer, art)
			if err != nil {
				t.Fatal(err)
			}

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

			got := runStream(t, casc, test, thr)
			if len(got) != len(want) {
				t.Fatalf("%d verdicts, want %d", len(got), len(want))
			}
			differ, first := 0, -1
			for i := range got {
				if got[i].SessionAlert != want[i].SessionAlert {
					if differ++; first < 0 {
						first = i
					}
				}
			}
			if differ > 0 {
				t.Errorf("%d events' session alarms differ from float64; first is event %d (%q): cascade %v",
					differ, first, got[first].Line, got[first].SessionAlert)
			}

			// The parity claim is only meaningful if the cascade actually
			// routed traffic down both rungs rather than escalating everything.
			st := casc.CascadeStats()
			if st.Triaged == 0 || st.Escalated == 0 {
				t.Errorf("rungs idle on the replay: %+v", st)
			}
			if st.Escalated >= st.Triaged {
				t.Errorf("escalation band swallowed the whole triage rung: %+v", st)
			}

			f64AUC, err := metrics.ROCAUC(scoredItems(t, f64Scorer, test))
			if err != nil {
				t.Fatal(err)
			}
			auc, err := metrics.ROCAUC(scoredItems(t, casc, test))
			if err != nil {
				t.Fatal(err)
			}
			if drift := math.Abs(auc - f64AUC); drift > cascadeAUCDrift {
				t.Errorf("AUC %g vs float64 %g: drift %g > %g", auc, f64AUC, drift, cascadeAUCDrift)
			}
			t.Logf("%s cascade: alarms %d, rungs %+v, AUC %.4f (f64 %.4f)", name, wantAlarms, st, auc, f64AUC)
		})
	}
}

// oracleParityFixture is parityFixture for one modality, supervised by the
// in-box oracle crossmod uses (a training line is labeled an intrusion
// exactly when it is one and the modality declares its variant in-box), so
// every modality is built the same way whatever its rule set.
func oracleParityFixture(t *testing.T, name string) (tuning.Scorer, *corpus.Dataset, *corpus.Dataset) {
	t.Helper()
	ccfg := corpus.DefaultConfig()
	ccfg.Modality = name
	ccfg.TrainLines = 400
	ccfg.TestLines = 1500
	ccfg.IntrusionRate = 0.1
	train, test, err := corpus.Generate(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := core.TinyExperiment().Pipeline
	pcfg.Pretrain.Epochs = 1
	pcfg.Preprocess.Modality = name
	pl, err := core.BuildPipeline(train.Lines(), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]bool, len(train.Samples))
	for i, s := range train.Samples {
		labels[i] = s.Label == corpus.Intrusion && s.InBox
	}
	scorer, err := core.BuildScorer(pl, core.ScorerConfig{Method: tuning.MethodRetrieval, Seed: 7},
		train.Lines(), labels)
	if err != nil {
		t.Fatal(err)
	}
	return scorer, train, test
}
