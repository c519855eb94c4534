package core

// Build-time calibration of the scoring cascade. The cascade's thresholds
// are not tunables an operator guesses at: they are derived from the f64
// scorer's own score distribution on the fitting corpus, so the composed
// cascade provably stays inside the int8 parity bound.
//
//   - ClearThreshold: walk calibration lines in ascending rarity order and
//     extend the cleared prefix as long as the lines inside it that score in
//     the escalation band stay within the deny budget. Those violators — a
//     handful of common-unit lines the scorer rates suspicious, typically
//     label-noise artifacts and living-off-the-land patterns — go onto the
//     rarity table's exact-line denylist, so at serve time they carry +Inf
//     rarity and always reach the model rungs. The threshold is the largest
//     rarity value whose entire non-denied population could never have
//     escalated.
//   - ClearScore: the midrange of the cleared lines' f64 scores, which
//     minimizes the worst-case substitution error; that error is measured
//     and recorded as MaxClearDeviation.
//   - EscalateLow: the EscalateQuantile of the f64 score distribution,
//     nudged down by a small margin relative to the score spread so a
//     triage (int8) score sitting just under the band edge still escalates.
//
// Everything at or above EscalateLow re-scores on the exact f64 rung, so
// alarm-relevant scores are byte-identical to f64-only; everything below it
// deviates by at most max(MaxClearDeviation, int8 parity bound) — far under
// the session-threshold gap the corpus-parity harness pins.

import (
	"fmt"
	"math"
	"sort"

	"clmids/internal/model"
	"clmids/internal/tuning"
)

// CascadeConfig parameterizes cascade calibration.
type CascadeConfig struct {
	// ClearQuantile bounds the benign mass the rung-0 rarity table is
	// fitted on: only calibration lines scoring within this quantile of the
	// f64 score distribution contribute unit counts, so units that appear
	// only in suspicious traffic stay maximally rare.
	ClearQuantile float64
	// EscalateQuantile positions the escalation band: calibration scores at
	// or above this quantile re-score on the f64 rung, and no line at or
	// above it may ever clear on rung 0.
	EscalateQuantile float64
	// DenyFraction is the deny budget: the clear walk may push the
	// threshold past band-scoring common-unit lines as long as they stay
	// under this fraction of the cleared prefix; each one is pinned on the
	// exact-line denylist instead of capping the threshold. Zero disables
	// the denylist and the walk halts at the first violator.
	DenyFraction float64
}

// DefaultCascadeConfig returns the calibration defaults: fit rarity on the
// bottom 85% of the score distribution, escalate the top 5%, and allow
// up to 2% of the cleared prefix onto the denylist.
func DefaultCascadeConfig() CascadeConfig {
	return CascadeConfig{ClearQuantile: 0.85, EscalateQuantile: 0.95, DenyFraction: 0.02}
}

func (c CascadeConfig) validate() error {
	if c.ClearQuantile <= 0 || c.ClearQuantile >= 1 || c.EscalateQuantile <= 0 || c.EscalateQuantile >= 1 {
		return fmt.Errorf("core: cascade quantiles must be in (0,1); got clear=%v escalate=%v",
			c.ClearQuantile, c.EscalateQuantile)
	}
	if c.ClearQuantile >= c.EscalateQuantile {
		return fmt.Errorf("core: cascade clear quantile %v must sit below escalate quantile %v",
			c.ClearQuantile, c.EscalateQuantile)
	}
	if c.DenyFraction < 0 || c.DenyFraction > 0.2 {
		return fmt.Errorf("core: cascade deny fraction %v must be in [0, 0.2]", c.DenyFraction)
	}
	return nil
}

// CascadeArtifact is everything a serving process needs to assemble the
// cascade on top of a confirm scorer: the fitted rarity table (rung 0) and
// the calibrated thresholds. It rides the bundle format as the rarity.bin
// section plus a manifest block.
type CascadeArtifact struct {
	// Params are the calibrated thresholds.
	Params tuning.CascadeParams
	// Rarity is the fitted rung-0 table.
	Rarity *tuning.RarityTable
}

// CalibrateCascade calibrates the cascade thresholds against confirm's f64
// scores of lines (the same corpus the preprocessing filter counted
// frequencies on) and fits the rung-0 rarity table over the benign-scoring
// subset of it. Fitting on the benign mass only — not the whole corpus — is
// what makes the pre-filter effective: a calibration log contains the known
// attack families too, and counting their repeated units would make
// intrusion lines look "common", poisoning the low-rarity prefix the clear
// walk extends over. Left out of the fit, attack-only units stay unseen and
// their lines sort to the maximal-rarity tail, past any clear threshold.
func CalibrateCascade(confirm tuning.Scorer, modalityName string, lines []string, cfg CascadeConfig) (*CascadeArtifact, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	scores, err := confirm.Score(lines)
	if err != nil {
		return nil, fmt.Errorf("core: scoring cascade calibration corpus: %w", err)
	}
	benignCut := quantile(scores, cfg.ClearQuantile)
	benign := make([]string, 0, len(lines))
	for i, line := range lines {
		if scores[i] <= benignCut {
			benign = append(benign, line)
		}
	}
	rt, err := tuning.FitRarity(modalityName, benign)
	if err != nil {
		return nil, fmt.Errorf("core: fitting rarity on the benign-scoring mass: %w", err)
	}
	rar := make([]float64, len(lines))
	for i, line := range lines {
		rar[i] = rt.Rarity(line)
	}

	escalateLow := quantile(scores, cfg.EscalateQuantile)
	// Widen the band by a spread-relative margin: a line whose f64 score is
	// exactly at the band edge must still escalate when the int8 triage
	// rung's rounding lands it epsilon below.
	smin, smax := scores[0], scores[0]
	for _, s := range scores {
		smin, smax = math.Min(smin, s), math.Max(smax, s)
	}
	escalateLow -= 1e-3*(smax-smin) + 1e-12

	// The walk's hard constraint is the escalation floor: a cleared line
	// must be one that could never have reached the f64 confirm rung, or
	// rung 0 would be silencing exactly the traffic the band exists for.
	// Band-scoring lines inside the deny budget are pinned on the denylist
	// rather than capping the threshold.
	params, deny := clearPrefix(lines, rar, scores, escalateLow, cfg.DenyFraction, rt.MaxRarity())
	rt.SetDenylist(deny)
	params.EscalateLow = escalateLow
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &CascadeArtifact{Params: params, Rarity: rt}, nil
}

// clearPrefix finds the largest rarity threshold (strictly below the
// unseen-unit level maxRarity) such that the calibration lines at or below
// it scoring at or above the cut stay within denyFrac of the prefix; those
// violators are returned for the denylist, and the clear score is the
// midrange of the remaining (cleared) population. Duplicate lines count
// once on the denylist but every occurrence counts toward the budget.
func clearPrefix(lines []string, rar, scores []float64, cut, denyFrac, maxRarity float64) (tuning.CascadeParams, []string) {
	idx := make([]int, len(rar))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return rar[idx[a]] < rar[idx[b]] })

	p := tuning.CascadeParams{ClearThreshold: math.Inf(-1)}
	var deny []string
	denySet := make(map[string]struct{})
	lo, hi := math.Inf(1), math.Inf(-1)
	bestDeny, bestLo, bestHi := 0, lo, hi
	violations := 0
	for at := 0; at < len(idx); {
		// One group of equal-rarity lines clears atomically or not at all.
		v := rar[idx[at]]
		if v >= maxRarity { // unseen units (and +Inf) never clear
			break
		}
		end := at
		for end < len(idx) && rar[idx[end]] == v {
			i := idx[end]
			if scores[i] >= cut {
				violations++
				if _, dup := denySet[lines[i]]; !dup {
					denySet[lines[i]] = struct{}{}
					deny = append(deny, lines[i])
				}
			} else {
				lo, hi = math.Min(lo, scores[i]), math.Max(hi, scores[i])
			}
			end++
		}
		if float64(violations) <= denyFrac*float64(end) {
			p.ClearThreshold = v
			bestDeny, bestLo, bestHi = len(deny), lo, hi
		}
		at = end
	}
	if !math.IsInf(bestLo, 1) {
		p.ClearScore = (bestLo + bestHi) / 2
		p.MaxClearDeviation = (bestHi - bestLo) / 2
	}
	return p, deny[:bestDeny]
}

// quantile returns the nearest-rank q-quantile of xs (unsorted input; xs is
// not modified).
func quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Round(q * float64(len(sorted)-1)))
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// BuildCascade assembles a serving CascadeScorer from a float64 confirm
// scorer and a calibrated artifact. The int8 triage rung is derived from
// the confirm scorer with tuning.AtPrecision — shared frozen artifacts,
// its own engine — so one backbone serves both model rungs.
func BuildCascade(confirm tuning.Scorer, art *CascadeArtifact) (*tuning.CascadeScorer, error) {
	if art == nil {
		return nil, fmt.Errorf("core: no cascade artifact (retrain the bundle with -cascade)")
	}
	triage, err := tuning.AtPrecision(confirm, model.PrecisionInt8)
	if err != nil {
		return nil, fmt.Errorf("core: deriving cascade triage rung: %w", err)
	}
	return tuning.NewCascadeScorer(art.Rarity, triage, confirm, art.Params)
}
