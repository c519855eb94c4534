package core

import (
	"fmt"
	"sort"

	"clmids/internal/anomaly"
	"clmids/internal/commercial"
	"clmids/internal/corpus"
	"clmids/internal/metrics"
	"clmids/internal/model"
	"clmids/internal/preprocess"
	"clmids/internal/pretrain"
	"clmids/internal/stream"
	"clmids/internal/tensor"
	"clmids/internal/tuning"
)

// Method names used across results.
const (
	MethodReconstruction = "Reconstruction"
	MethodClassification = "Classification"
	MethodClassMulti     = "Classification (multi)"
	MethodRetrieval      = "Retrieval"
	MethodEnsemble       = "Ensemble"
)

// ExperimentConfig controls a full reproduction run (§V).
type ExperimentConfig struct {
	// Corpus configures the synthetic data substrate.
	Corpus corpus.Config
	// Pipeline configures pre-processing, tokenizer, and pre-training.
	Pipeline PipelineConfig
	// Noise is the supervision noise of the commercial IDS.
	Noise commercial.Noise
	// Runs is the number of fine-tuning repetitions (paper: 5).
	Runs int
	// RecallTarget is u, the in-box recall anchoring thresholds (≈1).
	RecallTarget float64
	// TopVs are the v values for PO@v. The paper uses 100 and 1000 on 10M
	// test lines; scaled-down corpora use proportionally smaller values.
	TopVs []int
	// Classifier and Recons configure the tuning methods.
	Classifier tuning.ClassifierConfig
	Recons     tuning.ReconsConfig
	// ContextWindow is the number of in-gap session lines joined into each
	// multi-line input (§IV-C; the paper uses 3).
	ContextWindow int
	// RetrievalK is the neighbour count (paper: 1).
	RetrievalK int
	// Ensemble enables the §V-C future-work ensemble of all methods.
	Ensemble bool
	// Seed offsets per-run seeds.
	Seed int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// TinyExperiment is sized for unit tests: it exercises every stage in tens
// of seconds on one CPU.
func TinyExperiment() ExperimentConfig {
	ccfg := corpus.DefaultConfig()
	ccfg.TrainLines = 1600
	ccfg.TestLines = 800
	ccfg.IntrusionRate = 0.22
	ccfg.OutOfBoxFrac = 0.45

	pcfg := DefaultPipelineConfig()
	pcfg.VocabSize = 500
	pcfg.Model = model.Config{
		VocabSize: 500, MaxSeqLen: 40, Hidden: 32, Layers: 1, Heads: 2,
		FFN: 64, LayerNormEps: 1e-5, Dropout: 0.05,
	}
	pcfg.Pretrain = pretrain.DefaultConfig()
	pcfg.Pretrain.Epochs = 2
	pcfg.Pretrain.BatchSize = 16
	pcfg.Pretrain.LR = 1e-3

	clf := tuning.DefaultClassifierConfig()
	clf.Epochs = 10
	// Small encoders trained briefly have weak [CLS] summaries; mean-pooled
	// features recover the gap (the paper-scale config keeps CLS).
	clf.MeanPoolFeatures = true
	rec := tuning.DefaultReconsConfig()
	rec.Rounds = 2
	rec.LR = 5e-4

	return ExperimentConfig{
		Corpus:        ccfg,
		Pipeline:      pcfg,
		Noise:         commercial.DefaultNoise(),
		Runs:          2,
		RecallTarget:  1.0,
		TopVs:         []int{5, 20},
		Classifier:    clf,
		Recons:        rec,
		ContextWindow: 3,
		RetrievalK:    1,
		Seed:          1,
	}
}

// SmallExperiment is the default reproduction scale for cmd/clmrepro and
// the benchmark harness: minutes on one CPU, with enough signal for the
// paper's qualitative ordering to emerge.
func SmallExperiment() ExperimentConfig {
	cfg := TinyExperiment()
	cfg.Corpus.TrainLines = 6000
	cfg.Corpus.TestLines = 3000
	cfg.Corpus.IntrusionRate = 0.15
	cfg.Corpus.OutOfBoxFrac = 0.45
	cfg.Pipeline.VocabSize = 700
	cfg.Pipeline.Model = model.Config{
		VocabSize: 700, MaxSeqLen: 48, Hidden: 48, Layers: 2, Heads: 4,
		FFN: 96, LayerNormEps: 1e-5, Dropout: 0.05,
	}
	cfg.Pipeline.Pretrain.Epochs = 2
	cfg.Pipeline.MaxPretrainLines = 4000
	cfg.Runs = 5
	cfg.TopVs = []int{10, 50}
	cfg.Recons.Rounds = 3
	cfg.Ensemble = true
	return cfg
}

// MethodStat is a mean ± standard deviation pair over runs.
type MethodStat struct {
	Mean, Std float64
}

// MethodEval aggregates one method's metrics over all runs (Tables I & II).
type MethodEval struct {
	Name string
	// Runs is the number of repetitions aggregated (1 for retrieval).
	Runs int
	// SkipOverall marks methods whose PO/PO&I are not comparable (the
	// multi-line classifier; see the paper's note on de-duplication).
	SkipOverall bool
	PO          MethodStat
	POI         MethodStat
	InBoxRecall MethodStat
	POAt        map[int]MethodStat
}

// Fig2Stats summarizes pre-processing (Fig. 2).
type Fig2Stats struct {
	Total          int
	Kept           int
	DroppedInvalid int
	DroppedRare    int
	TopCommands    []preprocess.CommandCount
}

// UnsupStats summarizes the §III unsupervised PCA analysis.
type UnsupStats struct {
	// MasscanBestRank is the best rank (1-based) of a masscan-family line
	// among all deduplicated test lines ordered by reconstruction error.
	MasscanBestRank int
	// Top10Families lists the family of each of the top-10 scored lines.
	Top10Families []string
	// WeirdBenignInTop50 counts "abnormal yet benign" lines in the top 50 —
	// the paper's false-positive observation (mass mv, gibberish echo).
	WeirdBenignInTop50 int
}

// GeneralizationCase is one Table III row scored by the tuned classifier.
type GeneralizationCase struct {
	InBox, OutOfBox   string
	InScore, OutScore float64
	// OutDetected reports whether the out-of-box variant clears the
	// classification threshold.
	OutDetected bool
}

// FamilyPref is one row of the §V-C preference analysis: how many
// out-of-box intrusions of a family each method detects at its threshold.
type FamilyPref struct {
	Family   string
	TotalOOB int
	Detected map[string]int // method name -> detected count
}

// Results carries everything the reproduction reports.
type Results struct {
	Fig2       Fig2Stats
	Methods    []MethodEval
	F1         metrics.F1Comparison
	Unsup      UnsupStats
	TableIII   []GeneralizationCase
	Preference []FamilyPref
	// PretrainLoss is the MLM loss per epoch (Fig. 1 sanity).
	PretrainLoss []float64
}

// Method looks up a MethodEval by name (nil if absent).
func (r *Results) Method(name string) *MethodEval {
	for i := range r.Methods {
		if r.Methods[i].Name == name {
			return &r.Methods[i]
		}
	}
	return nil
}

// testItem is one kept test line with its evaluation context.
type testItem struct {
	line    string
	context string // multi-line input
	sample  corpus.Sample
	flagged bool // commercial IDS verdict (in-box indicator)
}

// Run executes the full reproduction and aggregates all tables/figures.
func Run(cfg ExperimentConfig) (*Results, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	if cfg.RecallTarget <= 0 || cfg.RecallTarget > 1 {
		cfg.RecallTarget = 1.0
	}
	if cfg.RetrievalK <= 0 {
		cfg.RetrievalK = 1
	}

	train, test, err := corpus.Generate(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	logf("corpus: %d train / %d test lines (%d/%d intrusions)",
		len(train.Samples), len(test.Samples),
		train.CountLabel(corpus.Intrusion), test.CountLabel(corpus.Intrusion))

	pl, err := BuildPipeline(train.Lines(), cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	ids := commercial.Default()
	res := &Results{PretrainLoss: pl.History.EpochLoss}

	// ---- Fig. 2 stats on the training split.
	trainProc := pl.Pre.Process(train.Lines())
	freqs := pl.Pre.Frequencies()
	if len(freqs) > 12 {
		freqs = freqs[:12]
	}
	res.Fig2 = Fig2Stats{
		Total:          len(train.Samples),
		Kept:           len(trainProc.Kept),
		DroppedInvalid: trainProc.DroppedInvalid,
		DroppedRare:    trainProc.DroppedRare,
		TopCommands:    freqs,
	}

	// ---- Kept train lines with supervision.
	keptTrain := make([]string, 0, len(trainProc.Kept))
	keptTrainSamples := make([]corpus.Sample, 0, len(trainProc.Kept))
	for _, rec := range trainProc.Kept {
		keptTrain = append(keptTrain, rec.Line)
		keptTrainSamples = append(keptTrainSamples, train.Samples[rec.Index])
	}
	trainLabels, err := ids.Label(keptTrain, cfg.Noise, cfg.Seed+100)
	if err != nil {
		return nil, err
	}

	// ---- Kept test lines with ground truth and IDS verdicts.
	testProc := pl.Pre.Process(test.Lines())
	items := make([]testItem, 0, len(testProc.Kept))
	for _, rec := range testProc.Kept {
		s := test.Samples[rec.Index]
		items = append(items, testItem{
			line:    rec.Line,
			sample:  s,
			flagged: ids.Match(rec.Line) != "",
		})
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("core: no test lines survived pre-processing")
	}
	logf("splits: %d kept train (%d labeled positive), %d kept test",
		len(keptTrain), countTrue(trainLabels), len(items))

	// ---- Multi-line contexts (train and test).
	ctxCfg := stream.DefaultConfig()
	ctxCfg.ContextWindow = cfg.ContextWindow
	trainTimed := make([]stream.Event, len(keptTrainSamples))
	for i, s := range keptTrainSamples {
		trainTimed[i] = stream.Event{User: s.User, Time: s.Time, Line: keptTrain[i]}
	}
	trainContexts := stream.BuildContexts(trainTimed, ctxCfg)
	testTimed := make([]stream.Event, len(items))
	for i, it := range items {
		testTimed[i] = stream.Event{User: it.sample.User, Time: it.sample.Time, Line: it.line}
	}
	testContexts := stream.BuildContexts(testTimed, ctxCfg)
	for i := range items {
		items[i].context = testContexts[i]
	}

	// ---- Shared test features under the frozen backbone.
	testLines := make([]string, len(items))
	for i, it := range items {
		testLines[i] = it.line
	}
	testEmb, err := tuning.EmbedLines(pl.Model.Encoder, pl.Tok, testLines)
	if err != nil {
		return nil, err
	}
	// The classifier head consumes whichever feature the config selects.
	testFeats := testEmb
	if !cfg.Classifier.MeanPoolFeatures {
		testFeats, err = tuning.CLSLines(pl.Model.Encoder, pl.Tok, testLines)
		if err != nil {
			return nil, err
		}
	}

	// ---- Per-run method training and scoring.
	perRun := map[string][]metrics.Report{}
	run0Scores := map[string][]float64{}
	run0Thresholds := map[string]float64{}
	var run0Clf *tuning.Classifier

	record := func(name string, run int, scores []float64, useContext bool) error {
		scored := buildScored(items, scores, useContext)
		rep, err := metrics.Evaluate(metrics.Dedup(scored), cfg.RecallTarget, cfg.TopVs)
		if err != nil {
			return fmt.Errorf("core: evaluating %s run %d: %w", name, run, err)
		}
		perRun[name] = append(perRun[name], rep)
		if run == 0 {
			run0Scores[name] = scores
			run0Thresholds[name] = rep.Threshold
		}
		return nil
	}

	for run := 0; run < cfg.Runs; run++ {
		seed := cfg.Seed + int64(run)*1000

		ccfg := cfg.Classifier
		ccfg.Seed = seed
		clf, err := pl.NewClassifier(keptTrain, trainLabels, ccfg)
		if err != nil {
			return nil, err
		}
		if err := record(MethodClassification, run, clf.ScoreFeatures(testFeats), false); err != nil {
			return nil, err
		}
		if run == 0 {
			run0Clf = clf
		}

		mcfg := cfg.Classifier
		mcfg.Seed = seed + 1
		mclf, err := pl.NewClassifier(trainContexts, trainLabels, mcfg)
		if err != nil {
			return nil, err
		}
		mscores, err := mclf.Score(testContexts)
		if err != nil {
			return nil, err
		}
		if err := record(MethodClassMulti, run, mscores, true); err != nil {
			return nil, err
		}

		rcfg := cfg.Recons
		rcfg.Seed = seed + 2
		rec, err := pl.NewReconstruction(keptTrain, trainLabels, rcfg)
		if err != nil {
			return nil, err
		}
		rscores, err := rec.Score(testLines)
		if err != nil {
			return nil, err
		}
		if err := record(MethodReconstruction, run, rscores, false); err != nil {
			return nil, err
		}
		logf("run %d/%d complete", run+1, cfg.Runs)
	}

	// Retrieval needs no tuning: a single run (as in the paper).
	ret, err := pl.NewRetrieval(keptTrain, trainLabels, cfg.RetrievalK)
	if err != nil {
		return nil, err
	}
	retScores := make([]float64, len(items))
	for i := 0; i < testEmb.Rows; i++ {
		retScores[i] = ret.Retrieval().Score(testEmb.Row(i))
	}
	if err := record(MethodRetrieval, 0, retScores, false); err != nil {
		return nil, err
	}

	if cfg.Ensemble {
		ens := ensembleScores([][]float64{
			run0Scores[MethodClassification],
			run0Scores[MethodReconstruction],
			run0Scores[MethodRetrieval],
		})
		if err := record(MethodEnsemble, 0, ens, false); err != nil {
			return nil, err
		}
	}

	// ---- Aggregate Tables I & II.
	order := []string{MethodReconstruction, MethodClassification, MethodClassMulti, MethodRetrieval}
	if cfg.Ensemble {
		order = append(order, MethodEnsemble)
	}
	for _, name := range order {
		reps := perRun[name]
		me := MethodEval{
			Name:        name,
			Runs:        len(reps),
			SkipOverall: name == MethodClassMulti,
			POAt:        make(map[int]MethodStat, len(cfg.TopVs)),
		}
		var pos, pois, recalls []float64
		for _, rep := range reps {
			pos = append(pos, rep.PO)
			pois = append(pois, rep.POAndI)
			recalls = append(recalls, rep.InBoxRecall)
		}
		me.PO.Mean, me.PO.Std = metrics.MeanStd(pos)
		me.POI.Mean, me.POI.Std = metrics.MeanStd(pois)
		me.InBoxRecall.Mean, me.InBoxRecall.Std = metrics.MeanStd(recalls)
		for _, v := range cfg.TopVs {
			var vals []float64
			for _, rep := range reps {
				vals = append(vals, rep.POAt[v])
			}
			var st MethodStat
			st.Mean, st.Std = metrics.MeanStd(vals)
			me.POAt[v] = st
		}
		res.Methods = append(res.Methods, me)
	}

	// ---- §V-B F1 comparison, on run 0 of classification-based tuning.
	clfScored := metrics.Dedup(buildScored(items, run0Scores[MethodClassification], false))
	f1cmp, err := metrics.CompareWithIDS(clfScored, run0Thresholds[MethodClassification])
	if err != nil {
		return nil, err
	}
	res.F1 = f1cmp

	// ---- §III unsupervised PCA analysis.
	unsup, err := unsupAnalysis(pl, keptTrain, items, testEmb)
	if err != nil {
		return nil, err
	}
	res.Unsup = *unsup

	// ---- Table III generalization cases, scored by the run-0 classifier.
	th := run0Thresholds[MethodClassification]
	for _, pair := range corpus.TableIIIPairs() {
		scores, err := run0Clf.Score([]string{pair[0], pair[1]})
		if err != nil {
			return nil, err
		}
		res.TableIII = append(res.TableIII, GeneralizationCase{
			InBox: pair[0], OutOfBox: pair[1],
			InScore: scores[0], OutScore: scores[1],
			OutDetected: scores[1] >= th,
		})
	}

	// ---- §V-C preference analysis on run-0 scores.
	res.Preference = preferenceAnalysis(items, run0Scores, run0Thresholds)
	return res, nil
}

func countTrue(xs []bool) int {
	n := 0
	for _, x := range xs {
		if x {
			n++
		}
	}
	return n
}

// buildScored converts items+scores into the metrics input. useContext
// selects the multi-line text for de-duplication (the paper notes the
// multi-line test set de-duplicates differently).
func buildScored(items []testItem, scores []float64, useContext bool) []metrics.Scored {
	out := make([]metrics.Scored, len(items))
	for i, it := range items {
		line := it.line
		if useContext {
			line = it.context
		}
		out[i] = metrics.Scored{
			Line:          line,
			Score:         scores[i],
			TrueIntrusion: it.sample.Label == corpus.Intrusion,
			IDSFlagged:    it.flagged,
		}
	}
	return out
}

// ensembleScores rank-normalizes each method's scores to [0,1] and
// averages them — the §V-C "ensemble of all these methods" future work.
func ensembleScores(all [][]float64) []float64 {
	n := len(all[0])
	out := make([]float64, n)
	for _, scores := range all {
		ranks := rankNormalize(scores)
		for i, r := range ranks {
			out[i] += r / float64(len(all))
		}
	}
	return out
}

// rankNormalize maps scores to their percentile rank in [0,1].
func rankNormalize(scores []float64) []float64 {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	for r, i := range idx {
		out[i] = float64(r) / float64(n-1)
	}
	return out
}

// unsupAnalysis reproduces §III: fit PCA on training embeddings, rank test
// lines by reconstruction error, locate masscan and the weird-benign false
// positives.
func unsupAnalysis(pl *Pipeline, keptTrain []string, items []testItem, testEmb *tensor.Matrix) (*UnsupStats, error) {
	trainEmb, err := tuning.EmbedLines(pl.Model.Encoder, pl.Tok, keptTrain)
	if err != nil {
		return nil, err
	}
	det := &anomaly.PCADetector{}
	if err := det.Fit(trainEmb); err != nil {
		return nil, err
	}
	type ranked struct {
		score  float64
		family string
	}
	seen := make(map[string]bool, len(items))
	var rankedItems []ranked
	for i, it := range items {
		if seen[it.line] {
			continue
		}
		seen[it.line] = true
		rankedItems = append(rankedItems, ranked{score: det.Score(testEmb.Row(i)), family: it.sample.Family})
	}
	sort.SliceStable(rankedItems, func(a, b int) bool { return rankedItems[a].score > rankedItems[b].score })

	stats := &UnsupStats{MasscanBestRank: -1}
	for r, it := range rankedItems {
		if it.family == "masscan" {
			stats.MasscanBestRank = r + 1
			break
		}
	}
	for r, it := range rankedItems {
		if r < 10 {
			stats.Top10Families = append(stats.Top10Families, it.family)
		}
		if r < 50 && it.family == "weird" {
			stats.WeirdBenignInTop50++
		}
		if r >= 50 {
			break
		}
	}
	return stats, nil
}

// preferenceAnalysis counts, per attack family, how many out-of-box
// intrusion lines each method detects at its run-0 threshold (§V-C).
func preferenceAnalysis(items []testItem, scores map[string][]float64, thresholds map[string]float64) []FamilyPref {
	methods := []string{MethodClassification, MethodClassMulti, MethodReconstruction, MethodRetrieval}
	byFamily := map[string]*FamilyPref{}
	for i, it := range items {
		if it.sample.Label != corpus.Intrusion || it.sample.InBox {
			continue
		}
		fp := byFamily[it.sample.Family]
		if fp == nil {
			fp = &FamilyPref{Family: it.sample.Family, Detected: make(map[string]int)}
			byFamily[it.sample.Family] = fp
		}
		fp.TotalOOB++
		for _, m := range methods {
			s, ok := scores[m]
			if !ok || i >= len(s) {
				continue
			}
			if s[i] >= thresholds[m] {
				fp.Detected[m]++
			}
		}
	}
	fams := make([]string, 0, len(byFamily))
	for f := range byFamily {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	out := make([]FamilyPref, 0, len(fams))
	for _, f := range fams {
		out = append(out, *byFamily[f])
	}
	return out
}
