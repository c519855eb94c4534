package tuning

import (
	"fmt"

	"clmids/internal/model"
)

// Scorer precision plumbing. Heads are always trained in float64 (so two
// bundles of the same seed carry identical heads regardless of serve
// precision); the precision rung is a property of the serving engine only.
// SetScorerPrecision rebinds a built scorer's engine to a different rung —
// the frozen backbone, trained head, and fitted artifacts are untouched,
// and the new engine's score memo starts empty (scores computed at
// different rungs differ in the low bits, so a swap never mixes provenance
// within one memo).

// PrecisionSwitcher is implemented by scorers that can report their serving
// rung and stamp out an independent variant of themselves at another rung —
// the hook the streaming layer's graceful-degradation policy shifts scorers
// through. The four engine-backed method scorers get this behavior from
// AtPrecision without implementing the interface; wrappers (fault
// injectors, custom scorers) implement it to stay degradable.
type PrecisionSwitcher interface {
	Scorer
	// Precision reports the current serving rung.
	Precision() model.Precision
	// AtPrecision returns an independent scorer that scores the same lines
	// at precision p; the receiver is left untouched and keeps serving.
	AtPrecision(p model.Precision) (Scorer, error)
}

// ScorerPrecision reports the serving precision of s, or false for scorer
// types without an engine (or a PrecisionSwitcher implementation).
func ScorerPrecision(s Scorer) (model.Precision, bool) {
	if ps, ok := s.(PrecisionSwitcher); ok {
		return ps.Precision(), true
	}
	if e := engineOf(s); e != nil {
		return e.Precision(), true
	}
	return "", false
}

// AtPrecision returns an independent scorer serving at precision p while s
// keeps serving untouched at its own rung: a PrecisionSwitcher delegates,
// any other Replicable engine-backed scorer is replicated (shared frozen
// artifacts, fresh engine scratch + empty memo) and its replica's engine
// rebound to p before it ever scores. This is the off-hot-path half of a
// precision downshift; installing the result goes through the stream
// layer's SwapScorer so no in-flight batch mixes rungs.
func AtPrecision(s Scorer, p model.Precision) (Scorer, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("tuning: unknown precision %q", p)
	}
	if ps, ok := s.(PrecisionSwitcher); ok {
		return ps.AtPrecision(p)
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
// Score calls; hot paths swap whole scorers via the stream layer's
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
