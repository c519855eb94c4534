// Package core wires the substrates into the paper's end-to-end IDS
// (Fig. 1): logging → pre-processing → BPE tokenization → masked-LM
// pre-training → supervision-based adaptation → inference. It also hosts
// the experiment runner that regenerates every table and figure of the
// evaluation (§V); see DESIGN.md for the experiment index.
package core

import (
	"fmt"
	"io"
	"math/rand"

	"clmids/internal/bpe"
	"clmids/internal/modality"
	"clmids/internal/model"
	"clmids/internal/preprocess"
	"clmids/internal/pretrain"
	"clmids/internal/tuning"
)

// PipelineConfig controls end-to-end training of the IDS backbone.
type PipelineConfig struct {
	// Preprocess configures the Fig. 2 filters.
	Preprocess preprocess.Config
	// VocabSize is the BPE vocabulary target (paper: 50 000).
	VocabSize int
	// Model describes the encoder; VocabSize is overwritten with the
	// tokenizer's actual vocabulary after BPE training.
	Model model.Config
	// Pretrain configures the MLM stage.
	Pretrain pretrain.Config
	// MaxPretrainLines caps how many filtered lines feed pre-training
	// (0 = all).
	MaxPretrainLines int
	// Seed drives model initialization.
	Seed int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// DefaultPipelineConfig returns a single-CPU-scale recipe.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Preprocess: preprocess.DefaultConfig(),
		VocabSize:  800,
		Model:      model.Default(800),
		Pretrain:   pretrain.DefaultConfig(),
		Seed:       1,
	}
}

// Pipeline is a trained IDS backbone: the pre-processing filter, the BPE
// tokenizer, and the pre-trained command-line language model. Detection
// methods (§IV) are constructed on top of it.
type Pipeline struct {
	Pre   *preprocess.Preprocessor
	Tok   *bpe.Tokenizer
	Model *model.Model
	// History records the pre-training trajectory.
	History pretrain.History
}

// BuildPipeline trains the full Fig. 1 stack on raw logged lines.
func BuildPipeline(trainLines []string, cfg PipelineConfig) (*Pipeline, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := modality.Validate(cfg.Preprocess.Modality); err != nil {
		// Fail before any training, with the registered-names listing.
		return nil, err
	}

	pre := preprocess.New(cfg.Preprocess)
	res := pre.FitProcess(trainLines)
	logf("preprocess[%s]: kept %d/%d lines (%d invalid, %d rare-command, %d unparsable at fit)",
		pre.Modality(), len(res.Kept), len(trainLines), res.DroppedInvalid, res.DroppedRare, pre.Unparsable())
	if len(res.Kept) == 0 {
		return nil, fmt.Errorf("core: pre-processing removed every line")
	}
	kept := make([]string, len(res.Kept))
	for i, r := range res.Kept {
		kept[i] = r.Line
	}

	tok, err := bpe.Train(kept, bpe.TrainConfig{VocabSize: cfg.VocabSize})
	if err != nil {
		return nil, fmt.Errorf("core: training tokenizer: %w", err)
	}
	logf("bpe: vocab %d (%d merges)", tok.VocabSize(), tok.NumMerges())

	mcfg := cfg.Model
	mcfg.VocabSize = tok.VocabSize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	mdl, err := model.NewModel(mcfg, rng)
	if err != nil {
		return nil, fmt.Errorf("core: building model: %w", err)
	}

	lines := kept
	if cfg.MaxPretrainLines > 0 && len(lines) > cfg.MaxPretrainLines {
		lines = lines[:cfg.MaxPretrainLines]
	}
	seqs := make([][]int, len(lines))
	for i, l := range lines {
		seqs[i] = tok.EncodeForModel(l, mcfg.MaxSeqLen)
	}
	pcfg := cfg.Pretrain
	if pcfg.Logf == nil {
		pcfg.Logf = logf
	}
	hist, err := pretrain.Run(mdl, seqs, pcfg)
	if err != nil {
		return nil, fmt.Errorf("core: pre-training: %w", err)
	}
	logf("pretrain: %d steps, final MLM loss %.4f", hist.Steps, hist.FinalLoss)

	return &Pipeline{Pre: pre, Tok: tok, Model: mdl, History: hist}, nil
}

// CloneModel deep-copies the backbone via its serialized form, so tuning
// methods that mutate the encoder (reconstruction tuning) do not disturb
// the other methods.
func (p *Pipeline) CloneModel() (*model.Model, error) {
	var buf memBuffer
	if err := p.Model.Save(&buf); err != nil {
		return nil, err
	}
	return model.Load(&buf)
}

// memBuffer is a minimal in-memory io.ReadWriter for model cloning.
type memBuffer struct {
	data []byte
	off  int
}

func (b *memBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *memBuffer) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

// NewClassifier trains classification-based tuning on the pipeline's
// backbone (§IV-B).
func (p *Pipeline) NewClassifier(lines []string, labels []bool, cfg tuning.ClassifierConfig) (*tuning.Classifier, error) {
	return tuning.TrainClassifier(p.Model.Encoder, p.Tok, lines, labels, cfg)
}

// NewReconstruction trains reconstruction-based tuning (§IV-A) on a cloned
// backbone, leaving the pipeline's model untouched.
func (p *Pipeline) NewReconstruction(lines []string, labels []bool, cfg tuning.ReconsConfig) (*tuning.ReconsTuner, error) {
	clone, err := p.CloneModel()
	if err != nil {
		return nil, err
	}
	return tuning.TrainReconstruction(clone.Encoder, p.Tok, lines, labels, cfg)
}

// NewRetrieval indexes the training lines for retrieval-based detection
// (§IV-D).
func (p *Pipeline) NewRetrieval(lines []string, labels []bool, k int) (*tuning.RetrievalScorer, error) {
	return tuning.TrainRetrieval(p.Model.Encoder, p.Tok, lines, labels, k)
}
