package tuning

import (
	"fmt"

	"clmids/internal/model"
)

// Scorer precision plumbing. Heads are always trained in float64 (so two
// bundles of the same seed carry identical heads regardless of serve
// precision); the precision rung is a property of the serving engine only,
// and the bundle manifest alone picks it: nothing shifts a serving scorer
// to another rung at run time. SetScorerPrecision binds a built scorer's
// engine to the bundle's rung at load, and AtPrecision derives the
// cascade's int8 triage rung from its f64 confirm scorer. Either way the
// frozen backbone, trained head, and fitted artifacts are shared, and the
// new engine's score memo starts empty (scores computed at different rungs
// differ in the low bits, so a memo never mixes provenance).

// ScorerPrecision reports the serving precision of s, or false for scorer
// types without an engine. A cascade reports its confirm rung's.
func ScorerPrecision(s Scorer) (model.Precision, bool) {
	if c, ok := s.(*CascadeScorer); ok {
		s = c.confirm
	}
	if e := engineOf(s); e != nil {
		return e.Precision(), true
	}
	return "", false
}

// AtPrecision returns an independent scorer serving at precision p while s
// keeps serving untouched at its own rung: a Replicable engine-backed
// scorer is replicated (shared frozen artifacts, fresh engine scratch +
// empty memo) and its replica's engine rebound to p before it ever scores.
// Bundle loading builds a cascade's triage rung this way.
func AtPrecision(s Scorer, p model.Precision) (Scorer, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("tuning: unknown precision %q", p)
	}
	r, ok := s.(Replicable)
	if !ok {
		return nil, fmt.Errorf("tuning: scorer %T cannot switch precision", s)
	}
	c := r.Replicate()
	if err := SetScorerPrecision(c, p); err != nil {
		return nil, err
	}
	return c, nil
}

// SetScorerPrecision swaps s's serving engine for a fresh one at precision
// p (same engine configuration otherwise). It must be called before the
// scorer starts serving — the swap is not synchronized against concurrent
// Score calls; a hot reload swaps whole scorers via the stream layer's
// SwapScorer instead.
func SetScorerPrecision(s Scorer, p model.Precision) error {
	if !p.Valid() {
		return fmt.Errorf("tuning: unknown precision %q", p)
	}
	e := engineOf(s)
	if e == nil {
		return fmt.Errorf("tuning: scorer %T has no serving engine to set precision on", s)
	}
	if p == "" {
		p = model.PrecisionFloat64
	}
	if e.Precision() == p {
		return nil
	}
	swapEngine(s, e.WithPrecision(p))
	return nil
}

// engineOf returns the serving engine of the four method scorers.
func engineOf(s Scorer) *Engine {
	switch sc := s.(type) {
	case *Classifier:
		return sc.engine
	case *RetrievalScorer:
		return sc.engine
	case *ReconsTuner:
		return sc.engine
	case *PCAScorer:
		return sc.engine
	}
	return nil
}

// swapEngine installs e into s; callers have already matched the type via
// engineOf.
func swapEngine(s Scorer, e *Engine) {
	switch sc := s.(type) {
	case *Classifier:
		sc.engine = e
	case *RetrievalScorer:
		sc.engine = e
	case *ReconsTuner:
		sc.engine = e
	case *PCAScorer:
		sc.engine = e
	}
}
