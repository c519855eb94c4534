// Command clmtrain trains the IDS backbone — pre-processing filter, BPE
// tokenizer, and masked-LM pre-trained encoder — on a JSONL log produced by
// clmgen (or any file in the same format), and saves its three parts to
// the -out directory (preprocess.json, tokenizer.txt, model.gob). Serving
// does not read that directory: clmdetect and clmserve start only from a
// scorer bundle.
//
// Usage:
//
//	clmtrain -data data/train.jsonl -out model/ -epochs 2 -hidden 48
//
// With -bundle the command additionally runs the serving-side adaptation
// once — supervision from the simulated commercial IDS over the training
// log, then the -method head — and emits a versioned scorer bundle
// (internal/core): the train-once half of train-once / serve-many.
// clmserve -bundle and clmdetect -bundle then cold-start from it with no
// baseline corpus and no tuning, serving exactly what its manifest
// records: the method, -precision (float64 | int8), and with -cascade the
// scoring cascade.
//
//	clmtrain -data data/train.jsonl -out model/ \
//	         -bundle bundle/ -method retrieval
package main

import (
	"flag"
	"fmt"
	"os"

	"clmids/internal/commercial"
	"clmids/internal/core"
	"clmids/internal/corpus"
	"clmids/internal/modality"
	"clmids/internal/model"
	"clmids/internal/preprocess"
	"clmids/internal/pretrain"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clmtrain:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clmtrain", flag.ContinueOnError)
	data := fs.String("data", "train.jsonl", "training log (JSONL)")
	out := fs.String("out", "model", "output directory")
	vocab := fs.Int("vocab", 700, "BPE vocabulary size (paper: 50000)")
	hidden := fs.Int("hidden", 48, "encoder hidden size (paper: 768)")
	layers := fs.Int("layers", 2, "transformer blocks (paper: 12)")
	heads := fs.Int("heads", 4, "attention heads (paper: 12)")
	ffn := fs.Int("ffn", 96, "feed-forward width (paper: 3072)")
	seqLen := fs.Int("seq", 48, "max tokens per line (paper: 1024)")
	epochs := fs.Int("epochs", 2, "pre-training epochs")
	batch := fs.Int("batch", 16, "pre-training batch size")
	lr := fs.Float64("lr", 1e-3, "peak learning rate")
	maskProb := fs.Float64("mask", 0.15, "MLM masking probability q")
	minFreq := fs.Int("min-freq", 3, "command-frequency filter threshold")
	mod := fs.String("modality", "", "log modality of the training data: "+modality.FlagHelp())
	maxLines := fs.Int("max-lines", 0, "cap on pre-training lines (0 = all)")
	seed := fs.Int64("seed", 1, "training seed")
	bundle := fs.String("bundle", "", "also emit a versioned scorer bundle to this directory (train-once / serve-many)")
	method := fs.String("method", "retrieval", "bundle detection method: classifier | retrieval | reconstruction | pca")
	bundleEpochs := fs.Int("bundle-epochs", 8, "bundle classifier tuning epochs")
	bundleVersion := fs.String("bundle-version", "", "bundle version label (default: content-derived)")
	precision := fs.String("precision", "", "bundle serve-path precision: float64 | int8 (int8 adds a quantized weight section; the head is trained in float64 either way)")
	cascade := fs.Bool("cascade", false, "calibrate the scoring cascade (int8 triage -> f64 confirm) against the training log and emit its escalation threshold with the bundle")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate before the minutes of pre-training, not after.
	prec, err := model.ParsePrecision(*precision)
	if err != nil {
		return err
	}
	if *cascade {
		if *bundle == "" {
			return fmt.Errorf("-cascade needs -bundle: the cascade artifact rides the bundle format")
		}
		if prec.Low() {
			return fmt.Errorf("-cascade and -precision int8 are mutually exclusive: cascade bundles pin int8 triage under a float64 confirm rung")
		}
	}
	if err := modality.Validate(*mod); err != nil {
		return err
	}
	if *bundle != "" {
		if err := core.ValidateMethod(*method); err != nil {
			return err
		}
	}

	f, err := os.Open(*data)
	if err != nil {
		return err
	}
	ds, err := corpus.ReadJSONL(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d lines from %s\n", len(ds.Samples), *data)

	pcfg := core.PipelineConfig{
		Preprocess: preprocess.Config{MinCommandFreq: *minFreq, Modality: *mod},
		VocabSize:  *vocab,
		Model: model.Config{
			VocabSize: *vocab, MaxSeqLen: *seqLen, Hidden: *hidden,
			Layers: *layers, Heads: *heads, FFN: *ffn,
			LayerNormEps: 1e-5, Dropout: 0.05,
		},
		Pretrain: pretrain.Config{
			Epochs: *epochs, BatchSize: *batch, LR: *lr,
			WarmupFrac: 0.1, WeightDecay: 0.01, GradClip: 1.0,
			Mask: pretrain.MaskConfig{Prob: *maskProb, MaskRatio: 0.8, RandomRatio: 0.1},
			Seed: *seed,
		},
		MaxPretrainLines: *maxLines,
		Seed:             *seed,
		Logf: func(format string, a ...any) {
			fmt.Printf(format+"\n", a...)
		},
	}
	pl, err := core.BuildPipeline(ds.Lines(), pcfg)
	if err != nil {
		return err
	}
	if err := pl.SaveDir(*out); err != nil {
		return err
	}
	fmt.Printf("saved pipeline to %s (vocab %d, final MLM loss %.4f)\n",
		*out, pl.Tok.VocabSize(), pl.History.FinalLoss)

	if *bundle == "" {
		return nil
	}
	// Bundle emit: the training log doubles as the labeled baseline. On the
	// shell modality supervision comes from the simulated commercial IDS,
	// computed once here so that serving never reads a corpus or tunes a
	// head. The IDS rule set is shell-only, so
	// other modalities fall back to the in-box oracle the log itself carries
	// (an intrusion record whose variant is marked in-box), mirroring a rule
	// set that knows exactly the known patterns.
	baseLines := ds.Lines()
	var labels []bool
	if modality.Canonical(*mod) == modality.Shell {
		labels, err = commercial.Default().Label(baseLines, commercial.DefaultNoise(), *seed)
		if err != nil {
			return err
		}
	} else {
		labels = make([]bool, len(ds.Samples))
		for i, s := range ds.Samples {
			labels[i] = s.Label == corpus.Intrusion && s.InBox
		}
	}
	fmt.Printf("tuning %s head over %d baseline lines...\n", *method, len(baseLines))
	bs, err := core.BuildScorerFull(pl, core.ScorerConfig{
		Method: *method, Epochs: *bundleEpochs, Seed: *seed, Precision: prec,
	}, baseLines, labels)
	if err != nil {
		return err
	}
	bs.Provenance.Corpus = *data
	if *cascade {
		// Calibrate the cascade against the freshly tuned f64 scorer's own
		// score distribution on the training log; the escalation floor
		// rides the bundle manifest so serving needs no corpus.
		art, err := core.CalibrateCascade(bs.Scorer, baseLines)
		if err != nil {
			return err
		}
		bs.Cascade = art
		fmt.Printf("calibrated cascade (int8 triage, f64 confirm at escalate>=%.4g)\n", art.Params.EscalateLow)
	}
	man, err := core.SaveBundle(*bundle, pl, bs, *bundleVersion)
	if err != nil {
		return err
	}
	fmt.Printf("saved %s bundle %s to %s\n", man.Method, man.Version, *bundle)
	return nil
}
