// Scorer-head persistence: the artifact layer that splits training from
// serving. Each of the four §III/§IV method scorers decomposes into a
// frozen backbone (saved separately, model.Save) plus a small method head
// — classifier MLP weights and standardizer, fitted PCA, retrieval index,
// reconstruction tuner's final projection. SaveScorerHead persists the
// head; LoadScorerHead rebuilds the exact serving scorer over a restored
// backbone, with the same persistent memoizing engine BuildScorer-style
// construction produces, so loaded scorers score byte-identically to
// freshly tuned ones and replicate across shards the same way.
//
// The snapshot is one gob value of plain slices and matrices (no maps), so
// saving the same head twice yields identical bytes — bundle checksums and
// content-derived versions depend on that.

package tuning

import (
	"encoding/gob"
	"fmt"
	"io"

	"clmids/internal/anomaly"
	"clmids/internal/bpe"
	"clmids/internal/linalg"
	"clmids/internal/model"
	"clmids/internal/nn"
	"clmids/internal/tensor"
)

// Method names of the persistable scorers, shared by head snapshots and
// bundle manifests (core.ScorerMethods lists the same values).
const (
	MethodClassifier     = "classifier"
	MethodRetrieval      = "retrieval"
	MethodReconstruction = "reconstruction"
	MethodPCA            = "pca"
)

const headFormat = "clmids-scorer-head v1"

// headSnapshot is the single serialized value: the format header, the
// method discriminator, and exactly one populated section.
type headSnapshot struct {
	Format string
	Method string

	Classifier *classifierHead
	Retrieval  *anomaly.RetrievalState
	Recons     *reconsHead
	PCA        *anomaly.PCADetectorState
}

// classifierHead is the §IV-B head: the two-layer perceptron's weight
// matrices in layer order plus the feature standardizer and pooling mode.
type classifierHead struct {
	MeanPool           bool
	Mean, Std          []float64
	L1W, L1B, L2W, L2B *tensor.Matrix
}

// reconsHead is the §IV-A head: the final fitted projection W. The tuned
// encoder f(·) is the scorer's serving backbone and is saved as the
// bundle's model section, not here.
type reconsHead struct {
	PCA *linalg.PCA
}

// ScorerMethod names the persistence method of a scorer, or "" with false
// for scorer types the artifact layer does not cover.
func ScorerMethod(s Scorer) (string, bool) {
	switch s.(type) {
	case *Classifier:
		return MethodClassifier, true
	case *RetrievalScorer:
		return MethodRetrieval, true
	case *ReconsTuner:
		return MethodReconstruction, true
	case *PCAScorer:
		return MethodPCA, true
	default:
		return "", false
	}
}

// SaveScorerHead writes s's method head to w. The backbone and tokenizer
// are not included: they are shared artifacts the caller persists once
// (model.Save, bpe's Save), and LoadScorerHead takes them back explicitly.
func SaveScorerHead(w io.Writer, s Scorer) error {
	snap := headSnapshot{Format: headFormat}
	switch sc := s.(type) {
	case *Classifier:
		snap.Method = MethodClassifier
		snap.Classifier = &classifierHead{
			MeanPool: sc.meanPool,
			Mean:     sc.std.Mean,
			Std:      sc.std.Std,
			L1W:      sc.head.L1.W.Val, L1B: sc.head.L1.B.Val,
			L2W: sc.head.L2.W.Val, L2B: sc.head.L2.B.Val,
		}
	case *RetrievalScorer:
		st, err := sc.ret.State()
		if err != nil {
			return err
		}
		snap.Method = MethodRetrieval
		snap.Retrieval = st
	case *ReconsTuner:
		snap.Method = MethodReconstruction
		snap.Recons = &reconsHead{PCA: sc.pca}
	case *PCAScorer:
		st, err := sc.det.State()
		if err != nil {
			return err
		}
		snap.Method = MethodPCA
		snap.PCA = st
	default:
		return fmt.Errorf("tuning: scorer %T has no persistable head", s)
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("tuning: encoding %s head: %w", snap.Method, err)
	}
	return nil
}

// LoadScorerHead reads a head written by SaveScorerHead and rebuilds the
// serving scorer over the (frozen) backbone and tokenizer it was trained
// with — for the reconstruction method that backbone is the tuned encoder.
// The returned scorer holds a fresh default-configured memoizing engine
// and is Replicable, exactly like a freshly built one. The method name is
// returned so callers can cross-check it against manifest metadata.
func LoadScorerHead(r io.Reader, enc *model.Encoder, tok *bpe.Tokenizer) (Scorer, string, error) {
	return LoadScorerHeadPrec(r, enc, tok, model.PrecisionFloat64)
}

// LoadScorerHeadPrec is LoadScorerHead with the serving engine built at
// the given precision rung — the restore half of quantized bundles. The
// head itself is precision-free (it was trained, and is applied, in
// float64); only the backbone forward runs at prec.
func LoadScorerHeadPrec(r io.Reader, enc *model.Encoder, tok *bpe.Tokenizer, prec model.Precision) (Scorer, string, error) {
	if !prec.Valid() {
		return nil, "", fmt.Errorf("tuning: unknown precision %q", prec)
	}
	var snap headSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, "", fmt.Errorf("tuning: decoding scorer head: %w", err)
	}
	if snap.Format != headFormat {
		return nil, "", fmt.Errorf("tuning: unknown scorer-head format %q", snap.Format)
	}
	ecfg := DefaultEngineConfig()
	ecfg.Precision = prec
	engine := NewEngine(enc, tok, ecfg)
	hidden := enc.Config().Hidden
	switch snap.Method {
	case MethodClassifier:
		c, err := restoreClassifier(snap.Classifier, engine, hidden)
		if err != nil {
			return nil, "", err
		}
		return c, snap.Method, nil
	case MethodRetrieval:
		ret, err := anomaly.RestoreRetrieval(snap.Retrieval)
		if err != nil {
			return nil, "", err
		}
		if ret.Dim() != hidden {
			return nil, "", fmt.Errorf("tuning: retrieval index dim %d, backbone hidden %d",
				ret.Dim(), hidden)
		}
		return &RetrievalScorer{engine: engine, ret: ret}, snap.Method, nil
	case MethodReconstruction:
		if snap.Recons == nil {
			return nil, "", fmt.Errorf("tuning: reconstruction head missing payload")
		}
		if err := validLoadedPCA(snap.Recons.PCA, hidden); err != nil {
			return nil, "", fmt.Errorf("tuning: reconstruction head: %w", err)
		}
		return &ReconsTuner{engine: engine, pca: snap.Recons.PCA}, snap.Method, nil
	case MethodPCA:
		det, err := anomaly.RestorePCADetector(snap.PCA)
		if err != nil {
			return nil, "", err
		}
		if det.PCA().Dim() != hidden {
			return nil, "", fmt.Errorf("tuning: PCA head dim %d, backbone hidden %d",
				det.PCA().Dim(), hidden)
		}
		return NewPCAScorer(engine, det), snap.Method, nil
	default:
		return nil, "", fmt.Errorf("tuning: unknown scorer-head method %q", snap.Method)
	}
}

// restoreClassifier validates the deserialized head shapes against the
// backbone and reassembles the inference-only MLP.
func restoreClassifier(h *classifierHead, engine *Engine, hidden int) (*Classifier, error) {
	if h == nil {
		return nil, fmt.Errorf("tuning: classifier head missing payload")
	}
	for name, m := range map[string]*tensor.Matrix{
		"L1 weights": h.L1W, "L1 bias": h.L1B, "L2 weights": h.L2W, "L2 bias": h.L2B,
	} {
		if m == nil || m.Rows < 1 || m.Cols < 1 || len(m.Data) != m.Rows*m.Cols {
			return nil, fmt.Errorf("tuning: classifier head %s malformed", name)
		}
	}
	switch {
	case h.L1W.Rows != hidden:
		return nil, fmt.Errorf("tuning: classifier head input dim %d, backbone hidden %d", h.L1W.Rows, hidden)
	case h.L1B.Rows != 1 || h.L1B.Cols != h.L1W.Cols:
		return nil, fmt.Errorf("tuning: classifier L1 bias %dx%d does not match width %d", h.L1B.Rows, h.L1B.Cols, h.L1W.Cols)
	case h.L2W.Rows != h.L1W.Cols || h.L2W.Cols != 2:
		return nil, fmt.Errorf("tuning: classifier L2 weights %dx%d, want %dx2", h.L2W.Rows, h.L2W.Cols, h.L1W.Cols)
	case h.L2B.Rows != 1 || h.L2B.Cols != 2:
		return nil, fmt.Errorf("tuning: classifier L2 bias %dx%d, want 1x2", h.L2B.Rows, h.L2B.Cols)
	case len(h.Mean) != hidden || len(h.Std) != hidden:
		return nil, fmt.Errorf("tuning: classifier standardizer dims %d/%d, want %d", len(h.Mean), len(h.Std), hidden)
	}
	head := &nn.MLP{
		L1:         &nn.Linear{W: tensor.Var(h.L1W), B: tensor.Var(h.L1B)},
		L2:         &nn.Linear{W: tensor.Var(h.L2W), B: tensor.Var(h.L2B)},
		Activation: tensor.ReLU,
	}
	std := &anomaly.Standardizer{Mean: h.Mean, Std: h.Std}
	return &Classifier{engine: engine, head: head, std: std, meanPool: h.MeanPool}, nil
}

// validLoadedPCA mirrors anomaly's PCA validation for the projection the
// reconstruction head carries directly.
func validLoadedPCA(p *linalg.PCA, hidden int) error {
	if p == nil || p.W == nil {
		return fmt.Errorf("missing projection")
	}
	if p.W.Rows < 1 || p.W.Cols < 1 || len(p.W.Data) != p.W.Rows*p.W.Cols {
		return fmt.Errorf("projection %dx%d backed by %d values", p.W.Rows, p.W.Cols, len(p.W.Data))
	}
	if p.W.Cols != hidden || len(p.Mean) != hidden {
		return fmt.Errorf("projection dim %d (mean %d), backbone hidden %d", p.W.Cols, len(p.Mean), hidden)
	}
	return nil
}
