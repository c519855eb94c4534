package tuning

// The scoring cascade: two rungs behind one Scorer.
//
//	rung 1  int8 triage   the int8 engine scores every line
//	rung 2  f64 confirm   exact re-score of lines whose triage score
//	                      lands in the escalation band (≥ EscalateLow)
//
// EscalateLow is calibrated at build time (internal/core) against the f64
// scorer's own score distribution on the fitting corpus, so the composed
// scorer's per-line deviation from f64-only stays inside the documented
// parity bounds: non-escalated lines deviate by the int8 rung's parity
// bound, and escalated lines not at all. Repeated lines are served by each
// rung's own score memo (Engine.Score), so the cascade keeps no memo.

import (
	"fmt"
	"math"
	"sync/atomic"

	"clmids/internal/model"
)

// CascadeParams are the calibrated cascade thresholds; they ride the bundle
// manifest so a served cascade is byte-reproducible from the artifact.
// Bundles written before the cascade lost its rarity pre-filter also carry
// clear_* keys; decoding ignores them.
type CascadeParams struct {
	// EscalateLow is the bottom of the escalation band: triage scores at or
	// above it are re-scored exactly on the f64 confirm rung.
	EscalateLow float64 `json:"escalate_low"`
}

// Validate rejects parameter sets no calibration could have produced.
func (p CascadeParams) Validate() error {
	if math.IsNaN(p.EscalateLow) || math.IsInf(p.EscalateLow, 0) {
		return fmt.Errorf("tuning: cascade escalation floor %v is not finite", p.EscalateLow)
	}
	return nil
}

// CascadeStats counts how much traffic each rung absorbed since the scorer
// (replica) was built. Triaged is the lines scored; Escalated is the subset
// of Triaged that also went to the f64 confirm rung. A line counts on every
// rung it is handed to, whether that rung's score memo answered it or not.
type CascadeStats struct {
	// Cleared is always zero: the cascade no longer has a rarity rung. It
	// stays only because the benchmark reads it, and goes when the
	// benchmark retires its cleared-fraction metric.
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

// CascadeScorer composes the two rungs behind the plain Scorer interface.
// It is replicable (replicas share the frozen model artifacts and carry
// their own engines, score memos, and counters), cache-aware (CacheStats
// sums both rungs), and precision-switchable (the degrade policy moves the
// confirm rung to int8, so an overloaded shard confirms escalations at int8
// instead of stalling).
type CascadeScorer struct {
	triage  Scorer
	confirm Scorer
	params  CascadeParams

	triaged   atomic.Int64
	escalated atomic.Int64
}

// NewCascadeScorer builds a cascade from a triage scorer (conventionally
// the int8 rung) and a confirm scorer (the f64 rung). Both scorers must be
// Replicable so the cascade itself can fan out across shards, and both
// must score the same artifact — calibration and parity only hold when
// triage is a lower-precision variant of confirm.
//
// The first parameter is ignored. It once took the rarity table of a
// pre-filter rung and stays only so the benchmark's call still compiles;
// it goes when the benchmark next changes.
func NewCascadeScorer(_ any, triage, confirm Scorer, params CascadeParams) (*CascadeScorer, error) {
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
	return &CascadeScorer{triage: triage, confirm: confirm, params: params}, nil
}

// Params returns the calibrated thresholds the cascade scores with.
func (c *CascadeScorer) Params() CascadeParams { return c.params }

// Score batch-scores every line on the triage rung and overwrites triage
// scores inside the escalation band with an exact confirm-rung re-score.
// Output order matches input order.
func (c *CascadeScorer) Score(lines []string) ([]float64, error) {
	if len(lines) == 0 {
		return []float64{}, nil
	}
	out, err := c.triage.Score(lines)
	if err != nil {
		return nil, fmt.Errorf("tuning: cascade triage rung: %w", err)
	}
	if len(out) != len(lines) {
		return nil, fmt.Errorf("tuning: cascade triage rung returned %d scores for %d lines", len(out), len(lines))
	}
	c.triaged.Add(int64(len(lines)))
	var escIdx []int
	var esc []string
	for i, s := range out {
		if s >= c.params.EscalateLow {
			escIdx = append(escIdx, i)
			esc = append(esc, lines[i])
		}
	}
	if len(esc) == 0 {
		return out, nil
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
		Triaged:   c.triaged.Load(),
		Escalated: c.escalated.Load(),
	}
}

// Replicate returns an independent same-scoring cascade: the params are
// shared (immutable), both rungs are replicated (shared frozen artifacts,
// fresh engine scratch and an empty memo), and the traffic counters start
// at zero.
func (c *CascadeScorer) Replicate() Scorer {
	// Constructor-checked: both rungs are Replicable.
	return &CascadeScorer{
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
// a cascade therefore cheapens only the escalation band; int8 triage
// already costs as little as it can.
func (c *CascadeScorer) AtPrecision(p model.Precision) (Scorer, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("tuning: unknown precision %q", p)
	}
	confirm, err := AtPrecision(c.confirm, p)
	if err != nil {
		return nil, fmt.Errorf("tuning: cascade confirm rung: %w", err)
	}
	triage := c.triage.(Replicable).Replicate()
	return NewCascadeScorer(nil, triage, confirm, c.params)
}
