package anomaly

import (
	"fmt"

	"clmids/internal/linalg"
	"clmids/internal/tensor"
)

// Fitted detectors persist through exported state structs so the artifact
// layer (core bundles) can embed them in one serialized value. Everything
// is plain slices and matrices — no maps — so gob encoding of the same
// fitted detector is byte-deterministic, which is what lets bundle
// checksums and content-derived versions work.

const (
	pcaDetFormat    = "clmids-pcadet v1"
	retrievalFormat = "clmids-retrieval v1"
)

// PCADetectorState is the serializable form of a fitted PCADetector.
type PCADetectorState struct {
	Format string
	Opts   linalg.PCAOptions
	PCA    *linalg.PCA
}

// State snapshots a fitted detector for serialization.
func (d *PCADetector) State() (*PCADetectorState, error) {
	if d.pca == nil {
		return nil, fmt.Errorf("anomaly: PCADetector.State before Fit")
	}
	return &PCADetectorState{Format: pcaDetFormat, Opts: d.Opts, PCA: d.pca}, nil
}

// RestorePCADetector rebuilds a fitted detector from its serialized state,
// validating shapes so corrupt input fails with an error instead of a
// panic at first Score.
func RestorePCADetector(st *PCADetectorState) (*PCADetector, error) {
	if st == nil || st.Format != pcaDetFormat {
		return nil, fmt.Errorf("anomaly: bad PCA detector state format %q", stateFormat(st))
	}
	if err := validatePCA(st.PCA); err != nil {
		return nil, fmt.Errorf("anomaly: PCA detector state: %w", err)
	}
	return &PCADetector{Opts: st.Opts, pca: st.PCA}, nil
}

func stateFormat(st *PCADetectorState) string {
	if st == nil {
		return "<nil>"
	}
	return st.Format
}

// validatePCA checks a deserialized PCA for internal consistency.
func validatePCA(p *linalg.PCA) error {
	if p == nil {
		return fmt.Errorf("missing PCA")
	}
	if err := validMatrix(p.W); err != nil {
		return fmt.Errorf("projection: %w", err)
	}
	if p.W.Rows < 1 || p.W.Rows > p.W.Cols {
		return fmt.Errorf("projection keeps %d of %d components", p.W.Rows, p.W.Cols)
	}
	if len(p.Mean) != p.W.Cols {
		return fmt.Errorf("mean has %d dims, projection %d", len(p.Mean), p.W.Cols)
	}
	return nil
}

// RetrievalState is the serializable form of a fitted Retrieval index: the
// full labeled training matrix, from which FitLabeled deterministically
// rebuilds the malicious sub-index on restore.
type RetrievalState struct {
	Format string
	K      int
	All    *tensor.Matrix
	Labels []bool
}

// State snapshots a fitted index for serialization.
func (r *Retrieval) State() (*RetrievalState, error) {
	if r.all == nil {
		return nil, fmt.Errorf("anomaly: Retrieval.State before FitLabeled")
	}
	return &RetrievalState{Format: retrievalFormat, K: r.K, All: r.all, Labels: r.labels}, nil
}

// RestoreRetrieval rebuilds a fitted index from its serialized state.
func RestoreRetrieval(st *RetrievalState) (*Retrieval, error) {
	if st == nil || st.Format != retrievalFormat {
		format := "<nil>"
		if st != nil {
			format = st.Format
		}
		return nil, fmt.Errorf("anomaly: bad retrieval state format %q", format)
	}
	if err := validMatrix(st.All); err != nil {
		return nil, fmt.Errorf("anomaly: retrieval state index: %w", err)
	}
	ret := NewRetrieval(st.K)
	if err := ret.FitLabeled(st.All, st.Labels); err != nil {
		return nil, fmt.Errorf("anomaly: retrieval state: %w", err)
	}
	return ret, nil
}

// validMatrix rejects matrices whose header and data disagree — the shape
// a truncated or bit-flipped gob stream produces — before any Row call can
// panic on them.
func validMatrix(m *tensor.Matrix) error {
	if m == nil {
		return fmt.Errorf("missing matrix")
	}
	return m.Validate()
}
