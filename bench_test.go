package clmids

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (§V) and prints the same rows the paper reports. Experiment
// training is shared across benchmarks (it runs once per `go test -bench`
// invocation); each benchmark then times its evaluation path and reports
// the headline numbers as custom metrics.
//
// Scale: the default is the tiny preset (seconds). Set
// CLMIDS_BENCH_SCALE=small to use the EXPERIMENTS.md scale (minutes).

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"clmids/internal/anomaly"
	"clmids/internal/commercial"
	"clmids/internal/core"
	"clmids/internal/corpus"
	"clmids/internal/modality"
	"clmids/internal/model"
	"clmids/internal/preprocess"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

var (
	benchOnce sync.Once
	benchRes  *core.Results
	benchErr  error

	benchUnsupOnce sync.Once
	benchUnsupRes  *core.UnsupResults
	benchUnsupErr  error
)

func benchConfig() core.ExperimentConfig {
	if os.Getenv("CLMIDS_BENCH_SCALE") == "small" {
		return core.SmallExperiment()
	}
	return core.TinyExperiment()
}

func benchResults(b *testing.B) *core.Results {
	b.Helper()
	benchOnce.Do(func() {
		fmt.Fprintln(os.Stderr, "bench: training pipeline and all methods (shared across benchmarks)...")
		benchRes, benchErr = core.Run(benchConfig())
	})
	if benchErr != nil {
		b.Fatalf("experiment: %v", benchErr)
	}
	return benchRes
}

func benchUnsup(b *testing.B) *core.UnsupResults {
	b.Helper()
	benchUnsupOnce.Do(func() {
		cfg := core.DefaultUnsupConfig()
		if os.Getenv("CLMIDS_BENCH_SCALE") == "small" {
			cfg.Corpus.TrainLines = 6000
			cfg.Corpus.TestLines = 3000
		}
		benchUnsupRes, benchUnsupErr = core.RunUnsupervised(cfg)
	})
	if benchUnsupErr != nil {
		b.Fatalf("unsupervised experiment: %v", benchUnsupErr)
	}
	return benchUnsupRes
}

// printOnce guards table printing so -benchtime reruns stay readable.
var printed sync.Map

func printTable(name string, emit func()) {
	if _, loaded := printed.LoadOrStore(name, true); !loaded {
		emit()
	}
}

// BenchmarkFigure1Pipeline regenerates the Fig. 1 training pipeline
// end-to-end: logging -> pre-processing -> tokenizer -> MLM pre-training.
func BenchmarkFigure1Pipeline(b *testing.B) {
	ccfg := corpus.DefaultConfig()
	ccfg.TrainLines = 400
	ccfg.TestLines = 50
	train, _, err := corpus.Generate(ccfg)
	if err != nil {
		b.Fatal(err)
	}
	pcfg := core.TinyExperiment().Pipeline
	pcfg.Pretrain.Epochs = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildPipeline(train.Lines(), pcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Inference measures scoring throughput of the trained
// system (tokens/s through the encoder), the deployment-side half of
// Fig. 1.
func BenchmarkFigure1Inference(b *testing.B) {
	ccfg := corpus.DefaultConfig()
	ccfg.TrainLines = 400
	ccfg.TestLines = 100
	train, test, err := corpus.Generate(ccfg)
	if err != nil {
		b.Fatal(err)
	}
	pcfg := core.TinyExperiment().Pipeline
	pcfg.Pretrain.Epochs = 1
	pl, err := core.BuildPipeline(train.Lines(), pcfg)
	if err != nil {
		b.Fatal(err)
	}
	lines := test.Lines()
	tokens := 0
	for _, l := range lines {
		tokens += len(pl.Tok.EncodeForModel(l, pl.Model.Encoder.Config().MaxSeqLen))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuning.EmbedLines(pl.Model.Encoder, pl.Tok, lines); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(tokens)
	b.ReportMetric(perOp*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
}

// inferBench holds the shared fixture of the inference-throughput
// benchmarks: one trained tiny-preset pipeline and a long scoring stream
// (corpus test lines with their natural exact-duplicate structure),
// consumed in windows like a production log tail.
const inferBenchWindow = 1000

var (
	inferBenchOnce  sync.Once
	inferBenchPl    *core.Pipeline
	inferBenchStr   []string
	inferBenchDS    *corpus.Dataset
	inferBenchTrain []string
	inferBenchErr   error
)

func inferBenchFixture(b *testing.B) (*core.Pipeline, []string) {
	b.Helper()
	inferBenchOnce.Do(func() {
		ccfg := corpus.DefaultConfig()
		ccfg.TrainLines = 400
		ccfg.TestLines = 24 * inferBenchWindow
		train, test, err := corpus.Generate(ccfg)
		if err != nil {
			inferBenchErr = err
			return
		}
		pcfg := core.TinyExperiment().Pipeline
		pcfg.Pretrain.Epochs = 1
		inferBenchPl, inferBenchErr = core.BuildPipeline(train.Lines(), pcfg)
		inferBenchStr = test.Lines()
		inferBenchDS = test
		inferBenchTrain = train.Lines()
	})
	if inferBenchErr != nil {
		b.Fatalf("inference fixture: %v", inferBenchErr)
	}
	return inferBenchPl, inferBenchStr
}

// inferBenchWindowAt returns the i-th window of the stream, wrapping.
func inferBenchWindowAt(lines []string, i int) []string {
	windows := len(lines) / inferBenchWindow
	at := (i % windows) * inferBenchWindow
	return lines[at : at+inferBenchWindow]
}

// BenchmarkEncode measures the BPE tokenizer hot path in its steady state:
// the pre-token LRU is warm, so most fields resolve with one cache probe
// and the merge loop runs only on novel fields. AppendForModel reuses one
// buffer, so the loop is allocation-free — this is the per-line tokenizer
// cost an engine pays on an embedding-cache miss whose words recur.
func BenchmarkEncode(b *testing.B) {
	pl, lines := inferBenchFixture(b)
	maxLen := pl.Model.Encoder.Config().MaxSeqLen
	pl.Tok.ResetEncodeCache()
	buf := make([]int, 0, maxLen)
	for _, l := range lines { // converge the pre-token cache
		buf = pl.Tok.AppendForModel(buf[:0], l, maxLen)
	}
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range inferBenchWindowAt(lines, i) {
			buf = pl.Tok.AppendForModel(buf[:0], l, maxLen)
			sink += len(buf)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("encode sink is zero; fixture broken")
	}
	b.ReportMetric(float64(inferBenchWindow)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkEncodeCold is the tokenizer's worst case: the pre-token cache is
// dropped before every window, so each field pays the full merge loop. The
// tentpole acceptance bar for the heap-based encoder is ≥2× the rescan
// implementation it replaced on this metric (CHANGES.md records both).
func BenchmarkEncodeCold(b *testing.B) {
	pl, lines := inferBenchFixture(b)
	maxLen := pl.Model.Encoder.Config().MaxSeqLen
	buf := make([]int, 0, maxLen)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Tok.ResetEncodeCache()
		for _, l := range inferBenchWindowAt(lines, i) {
			buf = pl.Tok.AppendForModel(buf[:0], l, maxLen)
			sink += len(buf)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("encode sink is zero; fixture broken")
	}
	b.ReportMetric(float64(inferBenchWindow)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkInferenceThroughputCold is the engine's embedding path, which
// nothing caches: only within-call dedup and the tape-free kernels help and
// every unique line pays full encoder cost.
func BenchmarkInferenceThroughputCold(b *testing.B) {
	coldBenchAtPrecision(b, model.PrecisionFloat64)
}

// coldBenchAtPrecision is the cold embedding benchmark with the engine
// pinned to one serving precision: every unique line pays full encoder
// cost at that precision.
func coldBenchAtPrecision(b *testing.B, prec model.Precision) {
	pl, lines := inferBenchFixture(b)
	ecfg := tuning.DefaultEngineConfig()
	ecfg.Precision = prec
	engine := tuning.NewEngine(pl.Model.Encoder, pl.Tok, ecfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.EmbedLines(inferBenchWindowAt(lines, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(inferBenchWindow)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkInferenceThroughputColdInt8 is the cold engine at int8:
// quantized weights, int32 accumulation, float32 activations. The
// acceptance bar for the int8 path is ≥2× the float64 cold rate.
func BenchmarkInferenceThroughputColdInt8(b *testing.B) {
	coldBenchAtPrecision(b, model.PrecisionInt8)
}

// BenchmarkInferenceThroughputTape is the autograd-tape baseline the
// engine replaced (the seed's EmbedLines path), on the same windows.
func BenchmarkInferenceThroughputTape(b *testing.B) {
	pl, lines := inferBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuning.EmbedLinesTape(pl.Model.Encoder, pl.Tok, inferBenchWindowAt(lines, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(inferBenchWindow)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}

// cascadeBenchScorer builds a cold (memo off) cascade over the bench
// fixture: the f64 retrieval scorer as the confirm rung, its int8 variant
// as the triage rung, and a rarity table calibrated on the training split —
// the composition clmserve serves from a cascade bundle. Retrieval (not
// PCA) because calibration needs O(1)-magnitude scores; the tiny PCA head's
// reconstruction errors sit at the float rounding floor, where the int8
// rung's quantization noise swamps the escalation band.
func cascadeBenchScorer(b *testing.B) *tuning.CascadeScorer {
	b.Helper()
	pl, _ := inferBenchFixture(b)
	ecfg := tuning.DefaultEngineConfig()
	ecfg.CacheLines = 0
	engine := tuning.NewEngine(pl.Model.Encoder, pl.Tok, ecfg)
	emb, err := engine.EmbedLines(inferBenchTrain)
	if err != nil {
		b.Fatal(err)
	}
	labels, err := commercial.Default().Label(inferBenchTrain, commercial.DefaultNoise(), 1)
	if err != nil {
		b.Fatal(err)
	}
	ret := anomaly.NewRetrieval(1)
	if err := ret.FitLabeled(emb, labels); err != nil {
		b.Fatal(err)
	}
	confirm := tuning.NewRetrievalScorer(engine, ret)
	// Calibrate on a full-sized training log, as clmtrain does: the clear
	// threshold's reach tracks the rarity table's unit coverage, and the 400
	// lines the tiny bench pipeline trains on undersell it badly.
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = 3
	calib, _, err := corpus.Generate(ccfg)
	if err != nil {
		b.Fatal(err)
	}
	art, err := core.CalibrateCascade(confirm, modality.Shell, calib.Lines(), core.DefaultCascadeConfig())
	if err != nil {
		b.Fatal(err)
	}
	casc, err := core.BuildCascade(confirm, art)
	if err != nil {
		b.Fatal(err)
	}
	return casc
}

// BenchmarkCascadeCold measures the scoring cascade's worst case: memos
// off, every uncleared line pays full encoder cost on the int8 triage rung
// and escalations pay it again at float64. The acceptance bar (ROADMAP item
// 1) is ≥3× BenchmarkInferenceThroughputCold's f64 lines/s; the per-rung
// traffic split is reported as custom metrics so the gate can see where the
// speedup comes from.
func BenchmarkCascadeCold(b *testing.B) {
	casc := cascadeBenchScorer(b)
	_, lines := inferBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := casc.Score(inferBenchWindowAt(lines, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := float64(inferBenchWindow) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "lines/s")
	st := casc.CascadeStats()
	b.ReportMetric(float64(st.Cleared)/total, "cleared-frac")
	b.ReportMetric(float64(st.Escalated)/total, "escalated-frac")
}

// BenchmarkCascadeRarityFilter isolates rung 0: parsing a window and
// looking up its unit rarities, with no model in the loop. Its lines/s is
// the ceiling the cascade approaches as the clear fraction goes to one, and
// documents that the pre-filter is cheap enough to sit in front of every
// line.
func BenchmarkCascadeRarityFilter(b *testing.B) {
	_, lines := inferBenchFixture(b)
	rt, err := tuning.FitRarity(modality.Shell, inferBenchTrain)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, line := range inferBenchWindowAt(lines, i) {
			sink += rt.Rarity(line)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("rarity sink is zero; fixture broken")
	}
	b.ReportMetric(float64(inferBenchWindow)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}

// streamBenchScorer builds the unsupervised PCA scorer over the bench
// fixture with an explicit engine memo size (0 disables), so the warm and
// cold streaming benchmarks share one construction.
func streamBenchScorer(b *testing.B, cacheLines int) tuning.Scorer {
	b.Helper()
	pl, _ := inferBenchFixture(b)
	ecfg := tuning.DefaultEngineConfig()
	ecfg.CacheLines = cacheLines
	engine := tuning.NewEngine(pl.Model.Encoder, pl.Tok, ecfg)
	emb, err := engine.EmbedLines(inferBenchTrain)
	if err != nil {
		b.Fatal(err)
	}
	det := &anomaly.PCADetector{}
	if err := det.Fit(emb); err != nil {
		b.Fatal(err)
	}
	return tuning.NewPCAScorer(engine, det)
}

// streamBenchRun replays the corpus test split through the full streaming
// stack (Replayer -> Service queue -> Detector sessions -> engine-backed
// scorer) in 1000-event windows and reports end-to-end lines/s.
func streamBenchRun(b *testing.B, scorer tuning.Scorer, warmPasses int) {
	_, _ = inferBenchFixture(b)
	det := stream.NewDetector(scorer, stream.DefaultConfig())
	svc := stream.NewService(det, stream.ServiceConfig{})
	defer svc.Close()
	rep := corpus.NewReplayer(inferBenchDS, true)
	submit := func() {
		samples := rep.NextBatch(inferBenchWindow)
		events := make([]stream.Event, len(samples))
		for i, s := range samples {
			events[i] = stream.Event{User: s.User, Time: s.Time, Line: s.Line}
		}
		if _, err := svc.Submit(events); err != nil {
			b.Fatal(err)
		}
	}
	windows := len(inferBenchDS.Samples) / inferBenchWindow
	for i := 0; i < warmPasses*windows; i++ {
		submit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
	b.StopTimer()
	b.ReportMetric(float64(inferBenchWindow)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkStreamingThroughput measures the streaming serving layer in its
// deployment configuration: a recurrent event stream replayed through the
// bounded-queue service over a scorer with a warm score memo — the steady
// state a long-running clmserve converges to. Compare with
// BenchmarkStreamingThroughputCold (memo off: every unique line pays full
// encoder cost, bounding the layer's worst case from below).
func BenchmarkStreamingThroughput(b *testing.B) {
	streamBenchRun(b, streamBenchScorer(b, 16384), 1)
}

// BenchmarkStreamingThroughputCold is the same stack with the score memo
// disabled.
func BenchmarkStreamingThroughputCold(b *testing.B) {
	streamBenchRun(b, streamBenchScorer(b, 0), 0)
}

// BenchmarkShardedThroughput is the scaling curve of the sharded streaming
// stack: the same replayed stream through a ShardedService at 1/2/4/8
// shards, each shard owning a scorer replica (shared frozen backbone,
// per-shard memo) with a warm memo. One full pass warms every shard before
// measurement. On a multi-core runner the warm-memo bottleneck — the
// coalescing worker's session updates and memo probes — parallelizes
// across shards, so lines/s should grow with shards up to the core count
// (the CI gate records the curve; the 4-shard point is the acceptance
// metric on 4-vCPU runners). On a single core the curve is flat and the
// benchmark doubles as an overhead check.
func BenchmarkShardedThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			base := streamBenchScorer(b, 16384)
			replicas, err := tuning.Replicas(base, shards)
			if err != nil {
				b.Fatal(err)
			}
			sharded, err := stream.NewShardedDetector(replicas, stream.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			svc := stream.NewShardedService(sharded, stream.ServiceConfig{})
			defer svc.Close()
			rep := corpus.NewReplayer(inferBenchDS, true)
			submit := func() {
				samples := rep.NextBatch(inferBenchWindow)
				events := make([]stream.Event, len(samples))
				for i, s := range samples {
					events[i] = stream.Event{User: s.User, Time: s.Time, Line: s.Line}
				}
				if _, err := svc.Submit(events); err != nil {
					b.Fatal(err)
				}
			}
			// One full pass warms every shard's memo (each replica sees only
			// its own users' lines, so one pass converges all memos).
			windows := len(inferBenchDS.Samples) / inferBenchWindow
			for i := 0; i < windows; i++ {
				submit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
			b.StopTimer()
			b.ReportMetric(float64(inferBenchWindow)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

// BenchmarkFigure2Preprocessing regenerates the Fig. 2 pre-processing:
// parser rejection plus the command-frequency filter, reporting the drop
// counts alongside throughput.
func BenchmarkFigure2Preprocessing(b *testing.B) {
	res := benchResults(b)
	printTable("fig2", func() { res.WriteFig2(os.Stdout) })

	ccfg := corpus.DefaultConfig()
	ccfg.TrainLines = 2000
	ccfg.TestLines = 100
	train, _, err := corpus.Generate(ccfg)
	if err != nil {
		b.Fatal(err)
	}
	lines := train.Lines()
	p := preprocess.New(preprocess.DefaultConfig())
	p.Fit(lines)
	b.ResetTimer()
	var out preprocess.Result
	for i := 0; i < b.N; i++ {
		out = p.Process(lines)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(lines))*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
	b.ReportMetric(float64(out.DroppedInvalid), "dropped-invalid")
	b.ReportMetric(float64(out.DroppedRare), "dropped-rare")
}

// BenchmarkSection3Unsupervised regenerates the §III analysis: PCA
// reconstruction-error ranking with the masscan anecdote.
func BenchmarkSection3Unsupervised(b *testing.B) {
	res := benchUnsup(b)
	printTable("unsup", func() {
		fmt.Printf("== Section III: masscan rank #%d (%.1fx median error), weird-benign in top-%d: %d ==\n",
			res.MasscanBestRank, res.MasscanScore/res.MedianScore, len(res.Top), res.WeirdInTop)
		for _, r := range res.Top {
			fmt.Printf("  #%2d %10.3e %-9s %.64s\n", r.Rank, r.Score, r.Family, r.Line)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultUnsupConfig()
		cfg.Corpus.TrainLines = 600
		cfg.Corpus.TestLines = 300
		cfg.Pipeline.Pretrain.Epochs = 1
		if _, err := core.RunUnsupervised(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.MasscanBestRank), "masscan-rank")
	b.ReportMetric(res.MasscanScore/res.MedianScore, "masscan/median")
}

// BenchmarkTable1 regenerates Table I: PO and PO&I for every method at the
// threshold recalling all in-box intrusions.
func BenchmarkTable1(b *testing.B) {
	res := benchResults(b)
	printTable("table1", func() { res.WriteTable1(os.Stdout) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink float64
		for _, m := range res.Methods {
			sink += m.PO.Mean + m.POI.Mean
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	}
	b.StopTimer()
	clf := res.Method(core.MethodClassification)
	ret := res.Method(core.MethodRetrieval)
	rec := res.Method(core.MethodReconstruction)
	b.ReportMetric(clf.PO.Mean, "PO-classif")
	b.ReportMetric(clf.POI.Mean, "PO&I-classif")
	b.ReportMetric(rec.POI.Mean, "PO&I-recons")
	b.ReportMetric(ret.PO.Mean, "PO-retrieval")
}

// BenchmarkTable2 regenerates Table II: PO@v for every method.
func BenchmarkTable2(b *testing.B) {
	res := benchResults(b)
	printTable("table2", func() { res.WriteTable2(os.Stdout) })
	vs := []int{}
	for v := range res.Method(core.MethodClassification).POAt {
		vs = append(vs, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink float64
		for _, m := range res.Methods {
			for _, v := range vs {
				sink += m.POAt[v].Mean
			}
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	}
	b.StopTimer()
	minV := vs[0]
	for _, v := range vs {
		if v < minV {
			minV = v
		}
	}
	b.ReportMetric(res.Method(core.MethodClassification).POAt[minV].Mean, "PO@small-classif")
	b.ReportMetric(res.Method(core.MethodClassMulti).POAt[minV].Mean, "PO@small-multi")
	b.ReportMetric(res.Method(core.MethodRetrieval).POAt[minV].Mean, "PO@small-retrieval")
}

// BenchmarkTable3Generalization regenerates Table III: the tuned classifier
// scoring the paper's in-box/out-of-box pairs.
func BenchmarkTable3Generalization(b *testing.B) {
	res := benchResults(b)
	printTable("table3", func() { res.WriteTable3(os.Stdout) })
	detected := 0
	for _, c := range res.TableIII {
		if c.OutDetected {
			detected++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := 0
		for _, c := range res.TableIII {
			if c.OutDetected {
				d++
			}
		}
		if d != detected {
			b.Fatal("inconsistent")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(detected), "oob-detected-of-6")
}

// BenchmarkSection5BF1 regenerates the §V-B F1 comparison against the
// commercial IDS.
func BenchmarkSection5BF1(b *testing.B) {
	res := benchResults(b)
	printTable("f1", func() { res.WriteF1(os.Stdout) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.F1.PaperStyle.Ours.F1 < 0 {
			b.Fatal("impossible")
		}
	}
	b.StopTimer()
	b.ReportMetric(res.F1.PaperStyle.Ours.F1, "F1-ours")
	b.ReportMetric(res.F1.PaperStyle.IDS.F1, "F1-ids")
	b.ReportMetric(res.F1.Empirical.Ours.F1, "F1-ours-empirical")
	b.ReportMetric(res.F1.Empirical.IDS.F1, "F1-ids-empirical")
}

// BenchmarkSection5CPreference regenerates the §V-C per-family preference
// analysis.
func BenchmarkSection5CPreference(b *testing.B) {
	res := benchResults(b)
	printTable("pref", func() { res.WritePreference(os.Stdout) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, p := range res.Preference {
			total += p.TotalOOB
		}
		if total < 0 {
			b.Fatal("impossible")
		}
	}
	b.StopTimer()
	chains := 0
	for _, p := range res.Preference {
		if p.Family == "download_exec" {
			chains = p.Detected[core.MethodClassMulti]
		}
	}
	b.ReportMetric(float64(chains), "chains-by-multi")
}
