package tuning

// The scoring cascade (ROADMAP item 1): three rungs behind one Scorer.
//
//	rung 0  rarity pre-filter   zero model calls; clears lines whose every
//	                            unit is common (rarity ≤ ClearThreshold)
//	rung 1  int8 triage         the int8 engine scores what
//	                            rung 0 could not clear
//	rung 2  f64 confirm         exact re-score of lines whose triage score
//	                            lands in the escalation band (≥ EscalateLow)
//
// The thresholds are calibrated at build time (internal/core) against the
// f64 scorer's own score distribution on the fitting corpus, so the
// composed scorer's per-line deviation from f64-only stays inside the
// documented parity bounds: cleared lines deviate by at most the measured
// MaxClearDeviation, non-escalated lines by the int8 rung's parity bound,
// and escalated lines not at all.

import (
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"

	"clmids/internal/model"
)

// CascadeParams are the calibrated cascade thresholds; they ride the bundle
// manifest so a served cascade is byte-reproducible from the artifact.
type CascadeParams struct {
	// ClearThreshold is the rung-0 boundary: lines with rarity at or below
	// it are cleared without a model call. -Inf clears nothing.
	ClearThreshold float64 `json:"clear_threshold"`
	// ClearScore is the constant score assigned to cleared lines — the
	// midrange of the f64 scores the calibration corpus's cleared lines
	// received, so the substitution error is centered.
	ClearScore float64 `json:"clear_score"`
	// EscalateLow is the bottom of the escalation band: triage scores at or
	// above it are re-scored exactly on the f64 confirm rung.
	EscalateLow float64 `json:"escalate_low"`
	// MaxClearDeviation is the measured worst-case |f64 − ClearScore| over
	// the calibration corpus's cleared lines, recorded for observability.
	MaxClearDeviation float64 `json:"max_clear_deviation"`
}

// cascadeParamsWire mirrors CascadeParams on the JSON wire. ClearThreshold
// is the one field with a legal non-finite value (-Inf clears nothing),
// which a JSON number cannot carry, so it travels as the string "-inf".
type cascadeParamsWire struct {
	ClearThreshold    any     `json:"clear_threshold"`
	ClearScore        float64 `json:"clear_score"`
	EscalateLow       float64 `json:"escalate_low"`
	MaxClearDeviation float64 `json:"max_clear_deviation"`
}

// MarshalJSON encodes the params, spelling a -Inf clear threshold as the
// string "-inf" (JSON numbers cannot represent infinities).
func (p CascadeParams) MarshalJSON() ([]byte, error) {
	w := cascadeParamsWire{
		ClearThreshold:    p.ClearThreshold,
		ClearScore:        p.ClearScore,
		EscalateLow:       p.EscalateLow,
		MaxClearDeviation: p.MaxClearDeviation,
	}
	if math.IsInf(p.ClearThreshold, -1) {
		w.ClearThreshold = "-inf"
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the params, accepting either a number or the string
// "-inf" for the clear threshold.
func (p *CascadeParams) UnmarshalJSON(data []byte) error {
	var w cascadeParamsWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	p.ClearScore, p.EscalateLow, p.MaxClearDeviation = w.ClearScore, w.EscalateLow, w.MaxClearDeviation
	switch v := w.ClearThreshold.(type) {
	case float64:
		p.ClearThreshold = v
	case string:
		if v != "-inf" {
			return fmt.Errorf("tuning: cascade clear threshold %q is neither a number nor %q", v, "-inf")
		}
		p.ClearThreshold = math.Inf(-1)
	case nil:
		return fmt.Errorf("tuning: cascade params carry no clear threshold")
	default:
		return fmt.Errorf("tuning: cascade clear threshold has unsupported JSON type %T", v)
	}
	return nil
}

// Validate rejects parameter sets no calibration could have produced.
func (p CascadeParams) Validate() error {
	if math.IsNaN(p.ClearThreshold) || math.IsInf(p.ClearThreshold, 1) {
		return fmt.Errorf("tuning: cascade clear threshold %v is not calibratable", p.ClearThreshold)
	}
	for name, v := range map[string]float64{
		"clear score": p.ClearScore, "escalation floor": p.EscalateLow, "max clear deviation": p.MaxClearDeviation,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tuning: cascade %s %v is not finite", name, v)
		}
	}
	return nil
}

// CascadeStats counts how much traffic each rung absorbed since the scorer
// (replica) was built. Cleared+Triaged sums to the lines scored; Escalated
// is the subset of Triaged that also went to the f64 confirm rung. A line
// counts on every rung it is handed to, whether that rung's score memo
// answered it or not.
type CascadeStats struct {
	// Cleared counts lines rung 0 settled without a model call.
	Cleared int64 `json:"cleared"`
	// Triaged counts lines scored by the int8 triage rung.
	Triaged int64 `json:"triaged"`
	// Escalated counts triaged lines re-scored exactly on the f64 rung.
	Escalated int64 `json:"escalated"`
}

// CascadeStatser is implemented by scorers that expose per-rung cascade
// traffic counters; the streaming layer probes it so the split is visible
// per shard in /stats.
type CascadeStatser interface {
	// CascadeStats snapshots the per-rung traffic counters.
	CascadeStats() CascadeStats
}

// CascadeScorer composes the three rungs behind the plain Scorer interface.
// It is replicable (replicas share the immutable rarity table and frozen
// model artifacts, and carry their own engines, score memos, and counters),
// cache-aware (CacheStats sums both model rungs), and precision-switchable
// (the degrade policy moves the confirm rung to int8, so an overloaded
// shard confirms escalations at int8 instead of stalling).
type CascadeScorer struct {
	rarity  *RarityTable
	triage  Scorer
	confirm Scorer
	params  CascadeParams

	cleared   atomic.Int64
	triaged   atomic.Int64
	escalated atomic.Int64
}

// NewCascadeScorer builds a cascade from a fitted rarity table, a triage
// scorer (conventionally the int8 rung), and a confirm scorer (the f64
// rung). Both scorers must be Replicable so the cascade itself can fan out
// across shards, and both must score the same artifact — calibration and
// parity only hold when triage is a lower-precision variant of confirm.
func NewCascadeScorer(rt *RarityTable, triage, confirm Scorer, params CascadeParams) (*CascadeScorer, error) {
	if rt == nil {
		return nil, fmt.Errorf("tuning: cascade needs a rarity table")
	}
	if triage == nil || confirm == nil {
		return nil, fmt.Errorf("tuning: cascade needs both a triage and a confirm scorer")
	}
	if _, ok := triage.(Replicable); !ok {
		return nil, fmt.Errorf("tuning: cascade triage scorer %T is not replicable", triage)
	}
	if _, ok := confirm.(Replicable); !ok {
		return nil, fmt.Errorf("tuning: cascade confirm scorer %T is not replicable", confirm)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &CascadeScorer{rarity: rt, triage: triage, confirm: confirm, params: params}, nil
}

// Params returns the calibrated thresholds the cascade scores with.
func (c *CascadeScorer) Params() CascadeParams { return c.params }

// Score routes each line down the cascade: rarity-cleared lines get the
// calibrated ClearScore, the rest are batch-scored by the triage rung, and
// triage scores inside the escalation band are overwritten by an exact
// confirm-rung re-score. Output order matches input order.
func (c *CascadeScorer) Score(lines []string) ([]float64, error) {
	out := make([]float64, len(lines))
	modelIdx := make([]int, 0, len(lines))
	// Production windows are duplicate-heavy; the model rungs dedup repeated
	// lines inside a batch, so rung 0 memoizes its clear decision per call to
	// keep the same property (rarity is deterministic over the call).
	memo := make(map[string]bool, len(lines))
	for i, line := range lines {
		clear, seen := memo[line]
		if !seen {
			clear = c.rarity.Rarity(line) <= c.params.ClearThreshold
			memo[line] = clear
		}
		if clear {
			out[i] = c.params.ClearScore
		} else {
			modelIdx = append(modelIdx, i)
		}
	}
	c.cleared.Add(int64(len(lines) - len(modelIdx)))
	if len(modelIdx) == 0 {
		return out, nil
	}
	sub := make([]string, len(modelIdx))
	for j, i := range modelIdx {
		sub[j] = lines[i]
	}
	ts, err := c.triage.Score(sub)
	if err != nil {
		return nil, fmt.Errorf("tuning: cascade triage rung: %w", err)
	}
	if len(ts) != len(sub) {
		return nil, fmt.Errorf("tuning: cascade triage rung returned %d scores for %d lines", len(ts), len(sub))
	}
	c.triaged.Add(int64(len(sub)))
	escIdx := make([]int, 0, len(sub))
	for j, i := range modelIdx {
		out[i] = ts[j]
		if ts[j] >= c.params.EscalateLow {
			escIdx = append(escIdx, i)
		}
	}
	if len(escIdx) == 0 {
		return out, nil
	}
	esc := make([]string, len(escIdx))
	for j, i := range escIdx {
		esc[j] = lines[i]
	}
	fs, err := c.confirm.Score(esc)
	if err != nil {
		return nil, fmt.Errorf("tuning: cascade confirm rung: %w", err)
	}
	if len(fs) != len(esc) {
		return nil, fmt.Errorf("tuning: cascade confirm rung returned %d scores for %d lines", len(fs), len(esc))
	}
	c.escalated.Add(int64(len(esc)))
	for j, i := range escIdx {
		out[i] = fs[j]
	}
	return out, nil
}

// CascadeStats snapshots the per-rung traffic counters of this replica.
func (c *CascadeScorer) CascadeStats() CascadeStats {
	return CascadeStats{
		Cleared:   c.cleared.Load(),
		Triaged:   c.triaged.Load(),
		Escalated: c.escalated.Load(),
	}
}

// Replicate returns an independent same-scoring cascade: the rarity table
// and params are shared (immutable), both model rungs are replicated
// (shared frozen artifacts, fresh engine scratch and an empty memo), and
// the traffic counters start at zero.
func (c *CascadeScorer) Replicate() Scorer {
	// Constructor-checked: both rungs are Replicable.
	return &CascadeScorer{
		rarity:  c.rarity,
		triage:  c.triage.(Replicable).Replicate(),
		confirm: c.confirm.(Replicable).Replicate(),
		params:  c.params,
	}
}

// CacheStats sums the score-memo counters of both model rungs.
func (c *CascadeScorer) CacheStats() CacheStats {
	var out CacheStats
	for _, s := range []Scorer{c.triage, c.confirm} {
		if cs, ok := s.(CacheStatser); ok {
			st := cs.CacheStats()
			out.Hits += st.Hits
			out.Misses += st.Misses
			out.Entries += st.Entries
		}
	}
	return out
}

// Precision reports the confirm rung's serving precision — the rung that
// defines the cascade's accuracy contract. The triage rung is pinned at its
// own (low) precision by construction.
func (c *CascadeScorer) Precision() model.Precision {
	if p, ok := ScorerPrecision(c.confirm); ok {
		return p
	}
	return model.PrecisionFloat64
}

// AtPrecision returns an independent cascade whose confirm rung serves at
// precision p while the triage rung and thresholds are unchanged — the
// degradation lever the streaming layer's overload policy pulls. Degrading
// a cascade therefore cheapens only the escalation band; rung-0 clears and
// int8 triage already cost as little as they can.
func (c *CascadeScorer) AtPrecision(p model.Precision) (Scorer, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("tuning: unknown precision %q", p)
	}
	confirm, err := AtPrecision(c.confirm, p)
	if err != nil {
		return nil, fmt.Errorf("tuning: cascade confirm rung: %w", err)
	}
	triage := c.triage.(Replicable).Replicate()
	return NewCascadeScorer(c.rarity, triage, confirm, c.params)
}
