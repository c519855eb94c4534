// Package clmids is a from-scratch Go implementation of "Intrusion
// Detection at Scale with the Assistance of a Command-line Language Model"
// (Lin, Guo, Chen; DSN 2024).
//
// The library covers the paper's full pipeline (Fig. 1):
//
//	logging → pre-processing (shell parser + command-frequency filter)
//	        → BPE tokenization → masked-LM pre-training (BERT-style encoder)
//	        → adaptation with noisy supervision (four methods, §IV)
//	        → inference.
//
// The package is a facade over the internal implementation:
//
//   - GenerateCorpus synthesizes production-style command-line logs
//     (the proprietary-data substitute; see DESIGN.md),
//   - Build trains the backbone (filter + tokenizer + encoder),
//   - the four Train* constructors build the §IV detection methods, all of
//     which implement Scorer,
//   - RunExperiments / RunUnsupervised regenerate the paper's tables and
//     figures,
//   - NewCommercialIDS exposes the simulated supervision source.
//
// See examples/ for runnable end-to-end programs and cmd/ for the CLI
// tools (clmgen, clmtrain, clmdetect, clmrepro).
package clmids

import (
	"io"

	"clmids/internal/commercial"
	"clmids/internal/core"
	"clmids/internal/corpus"
	"clmids/internal/model"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// Re-exported configuration and result types. The aliases keep the public
// surface in one import while the implementation stays internal.
type (
	// CorpusConfig controls synthetic log generation.
	CorpusConfig = corpus.Config
	// Dataset is one generated split.
	Dataset = corpus.Dataset
	// Sample is one logged command line with ground truth.
	Sample = corpus.Sample

	// PipelineConfig controls backbone training.
	PipelineConfig = core.PipelineConfig
	// Pipeline is the trained backbone.
	Pipeline = core.Pipeline
	// ModelConfig describes the transformer encoder.
	ModelConfig = model.Config

	// ClassifierConfig controls classification-based tuning (§IV-B).
	ClassifierConfig = tuning.ClassifierConfig
	// ReconsConfig controls reconstruction-based tuning (§IV-A).
	ReconsConfig = tuning.ReconsConfig
	// Event is one logged command line with its user and execution time,
	// the unit of multi-line input construction (§IV-C).
	Event = stream.Event

	// ExperimentConfig controls a full reproduction run (§V).
	ExperimentConfig = core.ExperimentConfig
	// Results carries every reproduced table and figure.
	Results = core.Results
	// UnsupConfig and UnsupResults cover the §III experiment.
	UnsupConfig = core.UnsupConfig
	// UnsupResults reports the §III experiment.
	UnsupResults = core.UnsupResults

	// CommercialIDS is the simulated supervision source.
	CommercialIDS = commercial.IDS
	// SupervisionNoise configures label noise.
	SupervisionNoise = commercial.Noise

	// ScorerConfig selects a serving detection method (the clmdetect /
	// clmserve construction path).
	ScorerConfig = core.ScorerConfig
	// BuiltScorer is a tuned scorer plus the artifacts a bundle persists.
	BuiltScorer = core.BuiltScorer
	// BundleManifest describes a saved scorer bundle.
	BundleManifest = core.BundleManifest
	// LoadedBundle is a bundle restored for serving.
	LoadedBundle = core.LoadedBundle
)

// Scorer is the common contract of all detection methods: one intrusion
// score per command line, higher = more suspicious.
type Scorer = tuning.Scorer

// Label values for Sample.
const (
	Benign    = corpus.Benign
	Intrusion = corpus.Intrusion
)

// DefaultCorpusConfig returns the paper-shaped synthetic-log configuration.
func DefaultCorpusConfig() CorpusConfig { return corpus.DefaultConfig() }

// TableIIIPairs returns the paper's Table III (in-box, out-of-box) example
// pairs with fixed synthetic arguments.
func TableIIIPairs() [][2]string { return corpus.TableIIIPairs() }

// GenerateCorpus synthesizes train and test splits deterministically.
func GenerateCorpus(cfg CorpusConfig) (train, test *Dataset, err error) {
	return corpus.Generate(cfg)
}

// ReadCorpusJSONL loads a dataset written with Dataset.WriteJSONL.
func ReadCorpusJSONL(r io.Reader) (*Dataset, error) { return corpus.ReadJSONL(r) }

// DefaultPipelineConfig returns a single-CPU-scale backbone recipe; use
// BERTBaseConfig for the paper's exact architecture.
func DefaultPipelineConfig() PipelineConfig { return core.DefaultPipelineConfig() }

// BERTBaseConfig is the paper's exact encoder: 12 layers, 12 heads, hidden
// 768, sequence length 1024.
func BERTBaseConfig(vocabSize int) ModelConfig { return model.BERTBase(vocabSize) }

// Build trains the Fig. 1 backbone on raw logged lines: pre-processing,
// BPE tokenizer, and masked-LM pre-training.
func Build(trainLines []string, cfg PipelineConfig) (*Pipeline, error) {
	return core.BuildPipeline(trainLines, cfg)
}

// NewCommercialIDS returns the simulated commercial IDS whose rules cover
// the paper's in-box patterns and miss the Table III blind spots.
func NewCommercialIDS() *CommercialIDS { return commercial.Default() }

// DefaultSupervisionNoise matches the paper's "very noisy" supervision.
func DefaultSupervisionNoise() SupervisionNoise { return commercial.DefaultNoise() }

// DefaultClassifierConfig returns the §IV-B recipe.
func DefaultClassifierConfig() ClassifierConfig { return tuning.DefaultClassifierConfig() }

// DefaultReconsConfig returns the §IV-A recipe (5 alternations, 95% of
// components kept).
func DefaultReconsConfig() ReconsConfig { return tuning.DefaultReconsConfig() }

// TrainClassifier builds classification-based tuning (§IV-B) on a trained
// pipeline.
func TrainClassifier(p *Pipeline, lines []string, labels []bool, cfg ClassifierConfig) (Scorer, error) {
	return p.NewClassifier(lines, labels, cfg)
}

// TrainMultiLineClassifier builds the multi-line variant (§IV-C): the
// log's inputs are built with BuildContexts(log, window) and classified
// with the same head.
func TrainMultiLineClassifier(p *Pipeline, log []Event, labels []bool, window int, cfg ClassifierConfig) (Scorer, error) {
	return p.NewClassifier(BuildContexts(log, window), labels, cfg)
}

// TrainReconstruction builds reconstruction-based tuning (§IV-A) on a
// cloned backbone.
func TrainReconstruction(p *Pipeline, lines []string, labels []bool, cfg ReconsConfig) (Scorer, error) {
	return p.NewReconstruction(lines, labels, cfg)
}

// TrainRetrieval builds the retrieval-based method (§IV-D); k = 1
// reproduces the paper's 1NN setting.
func TrainRetrieval(p *Pipeline, lines []string, labels []bool, k int) (Scorer, error) {
	return p.NewRetrieval(lines, labels, k)
}

// BuildMethodScorer tunes one of the four serving methods over a trained
// pipeline and keeps the artifacts a bundle needs — the build half of the
// train-once / serve-many artifact layer.
func BuildMethodScorer(p *Pipeline, cfg ScorerConfig, lines []string, labels []bool) (*BuiltScorer, error) {
	return core.BuildScorerFull(p, cfg, lines, labels)
}

// SaveScorerBundle persists a built scorer as a versioned bundle directory
// (manifest + tokenizer + backbone + method head, per-section checksums).
// An empty version derives a content-addressed one.
func SaveScorerBundle(dir string, p *Pipeline, bs *BuiltScorer, version string) (*BundleManifest, error) {
	return core.SaveBundle(dir, p, bs, version)
}

// LoadScorerBundle restores a bundle for serving: checksums verified, no
// baseline corpus, no tuning, scores byte-identical to the saved scorer.
func LoadScorerBundle(dir string) (*LoadedBundle, error) {
	return core.LoadScorerBundle(dir)
}

// ReplicateScorer fans a built or bundle-loaded scorer out into n
// byte-identical replicas (shared frozen artifacts, per-replica engine) —
// one per shard of a sharded streaming detector.
func ReplicateScorer(s Scorer, n int) ([]Scorer, error) {
	return core.ReplicateScorer(s, n)
}

// BuildContexts converts a time-ordered log into §IV-C multi-line inputs
// of up to window lines (the paper uses 3): the scoring inputs a
// streaming detector with that context window builds for the same log.
func BuildContexts(log []Event, window int) []string {
	cfg := stream.DefaultConfig()
	cfg.ContextWindow = window
	return stream.BuildContexts(log, cfg)
}

// TinyExperiment and SmallExperiment size the reproduction for one CPU.
func TinyExperiment() ExperimentConfig { return core.TinyExperiment() }

// SmallExperiment is the default reproduction scale of cmd/clmrepro.
func SmallExperiment() ExperimentConfig { return core.SmallExperiment() }

// RunExperiments executes the full §V reproduction: Tables I–III, the F1
// comparison, the preference analysis, and the Fig. 2 statistics.
func RunExperiments(cfg ExperimentConfig) (*Results, error) { return core.Run(cfg) }

// DefaultUnsupConfig sizes the §III unsupervised experiment.
func DefaultUnsupConfig() UnsupConfig { return core.DefaultUnsupConfig() }

// RunUnsupervised executes the §III PCA anomaly-detection experiment.
func RunUnsupervised(cfg UnsupConfig) (*UnsupResults, error) {
	return core.RunUnsupervised(cfg)
}
