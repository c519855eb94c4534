package core

import (
	"fmt"

	"clmids/internal/linalg"
	"clmids/internal/model"
	"clmids/internal/tuning"
)

// ScorerConfig selects and parameterizes a detection method for serving.
// The same construction backs cmd/clmdetect and cmd/clmserve, so both
// produce identical scorers from identical flags.
type ScorerConfig struct {
	// Method is one of classifier | retrieval | reconstruction | pca.
	Method string
	// Epochs tunes the classifier head (0 = method default).
	Epochs int
	// Seed drives tuning randomness.
	Seed int64
}

// ScorerMethods lists the valid ScorerConfig.Method values.
func ScorerMethods() []string {
	return []string{
		tuning.MethodClassifier, tuning.MethodRetrieval,
		tuning.MethodReconstruction, tuning.MethodPCA,
	}
}

// ValidateMethod rejects method names BuildScorer would not accept, with
// an error that lists the valid ones. Commands call it before loading
// anything so a typo fails in milliseconds, not after minutes of tuning.
func ValidateMethod(method string) error {
	for _, m := range ScorerMethods() {
		if method == m {
			return nil
		}
	}
	return fmt.Errorf("core: unknown method %q (want one of %v)", method, ScorerMethods())
}

// ReplicateScorer turns one built scorer into n scorers that score
// byte-identically: the original first, then n-1 replicas sharing every
// frozen artifact (backbone weights, trained head, fitted PCA or retrieval
// index) while owning their own inference engine (scratch pool + score
// memo). This is the construction the sharded streaming detector uses —
// one replica per shard, no re-tuning, no cross-shard lock contention.
// Every method BuildScorer returns is replicable.
func ReplicateScorer(s tuning.Scorer, n int) ([]tuning.Scorer, error) {
	return tuning.Replicas(s, n)
}

// BuiltScorer is a freshly tuned scorer together with the artifacts a
// bundle must persist to reconstruct it: the serving backbone (the
// pipeline's model, or the tuned clone for the reconstruction method,
// whose encoder IS the scorer) and the build provenance.
type BuiltScorer struct {
	Scorer tuning.Scorer
	// Backbone is the model the scorer's engine runs on.
	Backbone *model.Model
	// Config is the resolved scorer configuration.
	Config ScorerConfig
	// Provenance records where the head's supervision came from.
	Provenance BundleProvenance
	// Cascade, when set (CalibrateCascade), makes SaveBundle emit a cascade
	// bundle: the calibrated escalation floor in the manifest. The int8
	// triage rung lowers the backbone's weights at load.
	Cascade *CascadeArtifact
}

// BuildScorer constructs the requested §III/§IV method over the pipeline's
// backbone. Every returned scorer holds a persistent memoizing inference
// engine (the backbone is frozen after construction), so a long-running
// service scores a repeated log line once, and every
// returned scorer is safe for concurrent Score calls.
//
// baseLines is the labeled baseline log; labels carries its (noisy)
// supervision. The unsupervised pca method ignores labels.
func BuildScorer(pl *Pipeline, cfg ScorerConfig, baseLines []string, labels []bool) (tuning.Scorer, error) {
	bs, err := BuildScorerFull(pl, cfg, baseLines, labels)
	if err != nil {
		return nil, err
	}
	return bs.Scorer, nil
}

// BuildScorerFull is BuildScorer keeping hold of the bundle artifacts —
// the build half of the train-once / serve-many split. Callers that only
// score keep using BuildScorer; callers that persist pass the result to
// SaveBundle, and serving processes restore it with LoadScorerBundle
// without re-tuning anything.
func BuildScorerFull(pl *Pipeline, cfg ScorerConfig, baseLines []string, labels []bool) (*BuiltScorer, error) {
	bs := &BuiltScorer{
		Backbone: pl.Model,
		Config:   cfg,
		Provenance: BundleProvenance{
			BaselineLines: len(baseLines),
			Seed:          cfg.Seed,
		},
	}
	var err error
	switch cfg.Method {
	case tuning.MethodClassifier:
		ccfg := tuning.DefaultClassifierConfig()
		if cfg.Epochs > 0 {
			ccfg.Epochs = cfg.Epochs
		}
		if cfg.Seed != 0 {
			ccfg.Seed = cfg.Seed
		}
		ccfg.MeanPoolFeatures = true
		bs.Scorer, err = pl.NewClassifier(baseLines, labels, ccfg)
	case tuning.MethodRetrieval:
		bs.Scorer, err = pl.NewRetrieval(baseLines, labels, 1)
	case tuning.MethodReconstruction:
		// Reconstruction tunes the encoder itself; the tuned clone — not
		// the pipeline's pristine model — is what a bundle must carry as
		// the serving backbone.
		rcfg := tuning.DefaultReconsConfig()
		if cfg.Seed != 0 {
			rcfg.Seed = cfg.Seed
		}
		var clone *model.Model
		clone, err = pl.CloneModel()
		if err != nil {
			return nil, err
		}
		bs.Backbone = clone
		bs.Scorer, err = tuning.TrainReconstruction(clone.Encoder, pl.Tok, baseLines, labels, rcfg)
	case tuning.MethodPCA:
		bs.Scorer, err = tuning.TrainPCA(pl.Model.Encoder, pl.Tok, baseLines, linalg.PCAOptions{})
	default:
		// Methods are exhaustively matched above, so this is exactly
		// ValidateMethod's error.
		return nil, ValidateMethod(cfg.Method)
	}
	if err != nil {
		return nil, err
	}
	return bs, nil
}
