package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clmids/internal/bpe"
	"clmids/internal/core"
	"clmids/internal/corpus"
	"clmids/internal/model"
	"clmids/internal/preprocess"
)

func TestTrainProducesLoadablePipeline(t *testing.T) {
	dir := t.TempDir()
	dataPath := writeTrainCorpus(t, dir)

	out := filepath.Join(dir, "model")
	err := run([]string{
		"-data", dataPath, "-out", out,
		"-vocab", "400", "-hidden", "16", "-layers", "1", "-heads", "2",
		"-ffn", "32", "-seq", "24", "-epochs", "1",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Each -out part reads back through its own package's loader.
	open := func(name string) *os.File {
		t.Helper()
		f, err := os.Open(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	if _, err := preprocess.Load(open("preprocess.json")); err != nil {
		t.Fatalf("preprocess.Load: %v", err)
	}
	tok, err := bpe.Load(open("tokenizer.txt"))
	if err != nil {
		t.Fatalf("bpe.Load: %v", err)
	}
	if tok.VocabSize() == 0 {
		t.Error("empty tokenizer after training")
	}
	if _, err := model.Load(open("model.gob")); err != nil {
		t.Fatalf("model.Load: %v", err)
	}
}

func TestTrainMissingData(t *testing.T) {
	if err := run([]string{"-data", "/nonexistent/x.jsonl"}); err == nil {
		t.Error("missing data file accepted")
	}
}

// writeTrainCorpus writes a small labeled shell corpus to dir and returns
// its path.
func writeTrainCorpus(t *testing.T, dir string) string {
	t.Helper()
	ccfg := corpus.DefaultConfig()
	ccfg.TrainLines = 300
	ccfg.TestLines = 50
	ccfg.IntrusionRate = 0.2
	train, _, err := corpus.Generate(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(dir, "train.jsonl")
	f, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := train.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	return dataPath
}

// tinyTrain runs clmtrain at the tiny test shapes with a retrieval bundle
// written to bundleDir, plus any extra flags.
func tinyTrain(t *testing.T, dataPath, bundleDir string, extra ...string) {
	t.Helper()
	args := append([]string{
		"-data", dataPath, "-out", filepath.Join(t.TempDir(), "model"),
		"-vocab", "400", "-hidden", "16", "-layers", "1", "-heads", "2",
		"-ffn", "32", "-seq", "24", "-epochs", "1",
		"-bundle", bundleDir, "-method", "retrieval",
	}, extra...)
	if err := run(args); err != nil {
		t.Fatalf("run %v: %v", extra, err)
	}
}

// TestTrainEmitsServableBundle is the train-once / serve-many loop at the
// command level: clmtrain -bundle emits a bundle that cold-loads into a
// working scorer with no baseline corpus in sight.
func TestTrainEmitsServableBundle(t *testing.T) {
	dir := t.TempDir()
	dataPath := writeTrainCorpus(t, dir)
	bundleDir := filepath.Join(dir, "bundle")
	tinyTrain(t, dataPath, bundleDir)
	lb, err := core.LoadScorerBundle(bundleDir)
	if err != nil {
		t.Fatalf("LoadScorerBundle: %v", err)
	}
	if lb.Manifest.Method != "retrieval" || lb.Manifest.Version == "" {
		t.Fatalf("manifest: %+v", lb.Manifest)
	}
	if lb.Manifest.Provenance.Corpus != dataPath {
		t.Fatalf("provenance corpus %q, want %q", lb.Manifest.Provenance.Corpus, dataPath)
	}
	sc, err := lb.Serving()
	if err != nil {
		t.Fatalf("Serving: %v", err)
	}
	scores, err := sc.Score([]string{"nc -lvnp 4444", "ls -la"})
	if err != nil {
		t.Fatalf("cold-loaded scorer: %v", err)
	}
	if len(scores) != 2 {
		t.Fatalf("%d scores", len(scores))
	}
}

// TestTrainBundleKinds: clmtrain writes two kinds of bundle. The default
// is a cascade bundle, whose manifest carries the calibrated cascade
// block; -cascade=false writes a float64-only bundle with none. The two
// share all four data sections. -precision, which once chose a plain int8
// bundle, is no longer a flag.
func TestTrainBundleKinds(t *testing.T) {
	dir := t.TempDir()
	dataPath := writeTrainCorpus(t, dir)
	cascadeDir, f64Dir := filepath.Join(dir, "cascade"), filepath.Join(dir, "f64")
	tinyTrain(t, dataPath, cascadeDir)
	tinyTrain(t, dataPath, f64Dir, "-cascade=false")

	casc, err := core.LoadScorerBundle(cascadeDir)
	if err != nil {
		t.Fatal(err)
	}
	f64, err := core.LoadScorerBundle(f64Dir)
	if err != nil {
		t.Fatal(err)
	}
	if casc.Manifest.Cascade == nil {
		t.Error("default bundle carries no cascade block")
	}
	if f64.Manifest.Cascade != nil {
		t.Errorf("-cascade=false bundle carries a cascade block: %+v", f64.Manifest.Cascade)
	}
	for name, sum := range f64.Manifest.Checksums {
		if casc.Manifest.Checksums[name] != sum {
			t.Errorf("section %s differs between the cascade and float64 bundles", name)
		}
	}
	if casc.Manifest.Version == f64.Manifest.Version {
		t.Errorf("both bundles have version %s", casc.Manifest.Version)
	}

	err = run([]string{"-data", dataPath, "-bundle", t.TempDir(), "-precision", "int8"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -precision") {
		t.Fatalf("-precision int8: %v", err)
	}
}

// TestTrainRejectsBadBundleMethod: the method typo fails before minutes of
// pre-training start.
func TestTrainRejectsBadBundleMethod(t *testing.T) {
	err := run([]string{"-data", "/nonexistent/x.jsonl", "-bundle", t.TempDir(), "-method", "retreival"})
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("bad bundle method: %v", err)
	}
}

// TestTrainRejectsFloat32Precision: float32 is no longer a serving
// precision, and neither is a plain int8 bundle: -precision is not a flag,
// and saying so waits for neither the data nor pre-training.
func TestTrainRejectsFloat32Precision(t *testing.T) {
	err := run([]string{"-data", "/nonexistent/x.jsonl", "-bundle", t.TempDir(), "-precision", "float32"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -precision") {
		t.Fatalf("-precision float32: %v", err)
	}
}
