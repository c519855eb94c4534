package core

// Build-time calibration of the scoring cascade. The escalation floor is
// not a tunable an operator guesses at: it is derived from the f64
// scorer's own score distribution on the fitting corpus. Everything at or
// above it re-scores on the exact f64 rung, so alarm-relevant scores are
// byte-identical to f64-only; everything below it deviates by at most the
// int8 parity bound — far under the session-threshold gap the
// corpus-parity harness pins.

import (
	"fmt"
	"math"
	"slices"

	"clmids/internal/model"
	"clmids/internal/tuning"
)

// escalateQuantile positions the escalation band: calibration lines scoring
// at or above this quantile of the f64 distribution re-score on the f64
// confirm rung.
const escalateQuantile = 0.95

// CascadeArtifact is everything a serving process needs to assemble the
// cascade on top of a confirm scorer: the calibrated thresholds. It rides
// the bundle format as a manifest block.
type CascadeArtifact struct {
	// Params are the calibrated thresholds.
	Params tuning.CascadeParams
	// Rarity is always nil: the cascade no longer has a rarity rung. It
	// stays only because the benchmark passes it to NewCascadeScorer, and
	// goes when the benchmark next changes.
	Rarity any
}

// CalibrateCascade calibrates the escalation floor against confirm's f64
// scores of lines (the same corpus the preprocessing filter counted
// frequencies on).
func CalibrateCascade(confirm tuning.Scorer, lines []string) (*CascadeArtifact, error) {
	scores, err := confirm.Score(lines)
	if err != nil {
		return nil, fmt.Errorf("core: scoring cascade calibration corpus: %w", err)
	}
	if len(scores) == 0 {
		return nil, fmt.Errorf("core: empty cascade calibration corpus")
	}
	sorted := slices.Clone(scores)
	slices.Sort(sorted)
	// Nearest-rank quantile, widened by a spread-relative margin: a line
	// whose f64 score is exactly at the band edge must still escalate when
	// the int8 triage rung's rounding lands it epsilon below.
	escalateLow := sorted[int(math.Round(escalateQuantile*float64(len(sorted)-1)))]
	params := tuning.CascadeParams{EscalateLow: escalateLow - 1e-3*(sorted[len(sorted)-1]-sorted[0]) - 1e-12}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &CascadeArtifact{Params: params}, nil
}

// BuildCascade assembles a serving CascadeScorer from a float64 confirm
// scorer and a calibrated artifact. The int8 triage rung is derived from
// the confirm scorer with tuning.AtPrecision — shared frozen artifacts,
// its own engine — so one backbone serves both rungs.
func BuildCascade(confirm tuning.Scorer, art *CascadeArtifact) (*tuning.CascadeScorer, error) {
	if art == nil {
		return nil, fmt.Errorf("core: no cascade artifact (retrain the bundle with -cascade)")
	}
	triage, err := tuning.AtPrecision(confirm, model.PrecisionInt8)
	if err != nil {
		return nil, fmt.Errorf("core: deriving cascade triage rung: %w", err)
	}
	return tuning.NewCascadeScorer(nil, triage, confirm, art.Params)
}
