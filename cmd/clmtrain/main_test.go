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
	// Generate a small corpus file first.
	ccfg := corpus.DefaultConfig()
	ccfg.TrainLines = 300
	ccfg.TestLines = 50
	train, _, err := corpus.Generate(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(dir, "train.jsonl")
	f, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := train.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := filepath.Join(dir, "model")
	err = run([]string{
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

// TestTrainEmitsServableBundle is the train-once / serve-many loop at the
// command level: clmtrain -bundle emits a bundle that cold-loads into a
// working scorer with no baseline corpus in sight.
func TestTrainEmitsServableBundle(t *testing.T) {
	dir := t.TempDir()
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
	if err := train.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	bundleDir := filepath.Join(dir, "bundle")
	err = run([]string{
		"-data", dataPath, "-out", filepath.Join(dir, "model"),
		"-vocab", "400", "-hidden", "16", "-layers", "1", "-heads", "2",
		"-ffn", "32", "-seq", "24", "-epochs", "1",
		"-bundle", bundleDir, "-method", "retrieval",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
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
	scores, err := lb.Scorer.Score([]string{"nc -lvnp 4444", "ls -la"})
	if err != nil {
		t.Fatalf("cold-loaded scorer: %v", err)
	}
	if len(scores) != 2 {
		t.Fatalf("%d scores", len(scores))
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
