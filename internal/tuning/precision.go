package tuning

import (
	"fmt"

	"clmids/internal/model"
)

// Scorer precision plumbing. Heads are always trained in float64, and a
// bundle's scorer always loads at float64; the precision rung is a
// property of the serving engine only. AtPrecision derives the cascade's
// int8 triage rung from its f64 confirm scorer: the frozen backbone,
// trained head, and fitted artifacts are shared, and the new engine's
// score memo starts empty (scores computed at different rungs differ in
// the low bits, so a memo never mixes provenance).

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
	e := engineOf(c)
	if e == nil {
		return nil, fmt.Errorf("tuning: scorer %T has no serving engine to set precision on", s)
	}
	if p == "" {
		p = model.PrecisionFloat64
	}
	if e.Precision() != p {
		swapEngine(c, e.WithPrecision(p))
	}
	return c, nil
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
