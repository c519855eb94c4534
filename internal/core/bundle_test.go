package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"clmids/internal/commercial"
	"clmids/internal/corpus"
	"clmids/internal/faults"
)

// bundleFixture is one tiny trained pipeline plus a labeled baseline and
// held-out evaluation lines, shared across the bundle tests (building it
// costs seconds; every method round-trip reuses it).
type bundleFixture struct {
	pl        *Pipeline
	baseLines []string
	labels    []bool
	evalLines []string
}

var (
	bundleOnce sync.Once
	bundleFix  *bundleFixture
	bundleErr  error
)

func getBundleFixture(t *testing.T) *bundleFixture {
	t.Helper()
	bundleOnce.Do(func() {
		ccfg := corpus.DefaultConfig()
		ccfg.TrainLines = 300
		ccfg.TestLines = 80
		ccfg.IntrusionRate = 0.2
		train, test, err := corpus.Generate(ccfg)
		if err != nil {
			bundleErr = err
			return
		}
		pcfg := TinyExperiment().Pipeline
		pcfg.Pretrain.Epochs = 1
		pl, err := BuildPipeline(train.Lines(), pcfg)
		if err != nil {
			bundleErr = err
			return
		}
		baseLines := train.Lines()
		labels, err := commercial.Default().Label(baseLines, commercial.DefaultNoise(), 1)
		if err != nil {
			bundleErr = err
			return
		}
		bundleFix = &bundleFixture{
			pl: pl, baseLines: baseLines, labels: labels, evalLines: test.Lines(),
		}
	})
	if bundleErr != nil {
		t.Fatalf("fixture: %v", bundleErr)
	}
	return bundleFix
}

// TestBundleRoundTripGolden pins the acceptance contract of the artifact
// layer: for every method at a fixed seed, a bundle loaded from disk
// scores the evaluation corpus byte-identically to the freshly tuned
// scorer it was saved from — train once, serve many, zero drift.
func TestBundleRoundTripGolden(t *testing.T) {
	f := getBundleFixture(t)
	for _, method := range ScorerMethods() {
		t.Run(method, func(t *testing.T) {
			cfg := ScorerConfig{Method: method, Epochs: 2, Seed: 7}
			bs, err := BuildScorerFull(f.pl, cfg, f.baseLines, f.labels)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			want, err := bs.Scorer.Score(f.evalLines)
			if err != nil {
				t.Fatalf("fresh score: %v", err)
			}

			dir := t.TempDir()
			man, err := SaveBundle(dir, f.pl, bs, "")
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			if man.Method != method || man.Version == "" || len(man.Checksums) != 4 {
				t.Fatalf("manifest incomplete: %+v", man)
			}
			if man.Provenance.BaselineLines != len(f.baseLines) {
				t.Fatalf("provenance %d baseline lines, want %d",
					man.Provenance.BaselineLines, len(f.baseLines))
			}

			lb, err := LoadScorerBundle(dir)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if lb.Manifest.Version != man.Version || lb.Manifest.Method != method {
				t.Fatalf("loaded manifest %+v does not match saved %+v", lb.Manifest, man)
			}
			got, err := lb.Scorer.Score(f.evalLines)
			if err != nil {
				t.Fatalf("loaded score: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d scores, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: line %d scores diverge: fresh %v, loaded %v",
						method, i, want[i], got[i])
				}
			}

			// Loaded scorers replicate like built ones (sharded serving).
			reps, err := ReplicateScorer(lb.Scorer, 3)
			if err != nil {
				t.Fatalf("replicate loaded scorer: %v", err)
			}
			rgot, err := reps[2].Score(f.evalLines[:10])
			if err != nil {
				t.Fatalf("replica score: %v", err)
			}
			for i := range rgot {
				if rgot[i] != want[i] {
					t.Fatalf("replica diverges at line %d: %v vs %v", i, rgot[i], want[i])
				}
			}
		})
	}
}

// TestBundleVersionContentAddressed: the derived version is a function of
// the artifact bytes alone — saving the same built scorer twice yields the
// same version, so fleet operators can compare bundles by version.
func TestBundleVersionContentAddressed(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: "pca", Seed: 1}, f.baseLines, nil)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := SaveBundle(t.TempDir(), f.pl, bs, "")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := SaveBundle(t.TempDir(), f.pl, bs, "")
	if err != nil {
		t.Fatal(err)
	}
	if m1.Version != m2.Version {
		t.Fatalf("same artifacts, different versions: %s vs %s", m1.Version, m2.Version)
	}
	// An explicit label wins over derivation.
	m3, err := SaveBundle(t.TempDir(), f.pl, bs, "prod-2026-07")
	if err != nil {
		t.Fatal(err)
	}
	if m3.Version != "prod-2026-07" {
		t.Fatalf("explicit version not honored: %s", m3.Version)
	}
}

// TestBundleLoadRejectsCorruption: a flipped byte, a truncated section, a
// missing section, and a wrong format header all fail with descriptive
// errors — never a panic, never a silently different scorer.
func TestBundleLoadRejectsCorruption(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: "pca", Seed: 1}, f.baseLines, nil)
	if err != nil {
		t.Fatal(err)
	}
	save := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		if _, err := SaveBundle(dir, f.pl, bs, ""); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("bit flip", func(t *testing.T) {
		dir := save(t)
		path := filepath.Join(dir, "scorer.bin")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScorerBundle(dir); err == nil ||
			!strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corrupted section load: %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		dir := save(t)
		path := filepath.Join(dir, "model.gob")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScorerBundle(dir); err == nil ||
			!strings.Contains(err.Error(), "checksum") {
			t.Fatalf("truncated section load: %v", err)
		}
	})
	t.Run("missing section", func(t *testing.T) {
		dir := save(t)
		if err := os.Remove(filepath.Join(dir, "tokenizer.txt")); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScorerBundle(dir); err == nil {
			t.Fatal("missing section load succeeded")
		}
	})
	t.Run("wrong format", func(t *testing.T) {
		dir := save(t)
		path := filepath.Join(dir, "manifest.json")
		mj, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m BundleManifest
		if err := json.Unmarshal(mj, &m); err != nil {
			t.Fatal(err)
		}
		m.Format = "clmids-bundle v99"
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScorerBundle(dir); err == nil ||
			!strings.Contains(err.Error(), "format") {
			t.Fatalf("future-format load: %v", err)
		}
	})
	t.Run("missing dir", func(t *testing.T) {
		if _, err := LoadScorerBundle(filepath.Join(t.TempDir(), "nope")); err == nil {
			t.Fatal("missing bundle dir load succeeded")
		}
	})
}

func TestValidateMethod(t *testing.T) {
	for _, m := range ScorerMethods() {
		if err := ValidateMethod(m); err != nil {
			t.Errorf("valid method %s rejected: %v", m, err)
		}
	}
	err := ValidateMethod("classifer")
	if err == nil || !strings.Contains(err.Error(), "classifier") ||
		!strings.Contains(err.Error(), "pca") {
		t.Fatalf("invalid method error does not list valid ones: %v", err)
	}
}

// TestBundleCorruptTyped: every integrity failure — any section flipped or
// torn, a mangled manifest — is errors.Is(…, ErrBundleCorrupt), so callers
// (clmserve /reload) can distinguish "artifact damaged, keep the old scorer"
// from operational errors. A format-version mismatch is deliberately NOT
// corruption: that is a deployment skew, reported separately.
func TestBundleCorruptTyped(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: "pca", Seed: 1}, f.baseLines, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	m, err := SaveBundle(src, f.pl, bs, "")
	if err != nil {
		t.Fatal(err)
	}
	secs := SectionFiles(m)
	if len(secs) != 4 {
		t.Fatalf("float64 bundle SectionFiles = %v, want 4 sections", secs)
	}

	for _, sec := range secs {
		for damage, apply := range map[string]func(string, string, string) error{
			"corrupt":  faults.CorruptBundleCopy,
			"truncate": faults.TruncateBundleCopy,
		} {
			dst := filepath.Join(t.TempDir(), damage+"-"+sec)
			if err := apply(src, dst, sec); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadScorerBundle(dst); !errors.Is(err, ErrBundleCorrupt) {
				t.Errorf("%s %s: error %v, want ErrBundleCorrupt", damage, sec, err)
			}
		}
	}

	// Mangled manifest → corrupt.
	dst := filepath.Join(t.TempDir(), "mangled")
	if err := faults.CorruptBundleCopy(src, dst, secs[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, ManifestFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScorerBundle(dst); !errors.Is(err, ErrBundleCorrupt) {
		t.Errorf("mangled manifest: error %v, want ErrBundleCorrupt", err)
	}

	// Format skew → a different failure class, not corruption.
	skew := filepath.Join(t.TempDir(), "skew")
	if err := faults.TruncateBundleCopy(src, skew, secs[0]); err != nil {
		t.Fatal(err)
	}
	mj, err := os.ReadFile(filepath.Join(src, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var skewed BundleManifest
	if err := json.Unmarshal(mj, &skewed); err != nil {
		t.Fatal(err)
	}
	skewed.Format = "clmids-bundle v99"
	out, err := json.Marshal(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(skew, ManifestFile), out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScorerBundle(skew); err == nil || errors.Is(err, ErrBundleCorrupt) {
		t.Errorf("format skew misclassified as corruption: %v", err)
	}

	// The pristine bundle still loads — the damage helpers copy, not mutate.
	if _, err := LoadScorerBundle(src); err != nil {
		t.Errorf("pristine bundle no longer loads: %v", err)
	}
}

// TestBundleLoadsLegacyEstimatorSection: bundles written before the
// token-length estimator was removed carry an estimator.json section, an
// "estimator": true manifest key and that section's checksum. The key is
// now unknown and the file is never listed, so such a bundle must load and
// score byte-identically to the same bundle without them.
func TestBundleLoadsLegacyEstimatorSection(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: "pca", Seed: 1}, f.baseLines, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := SaveBundle(dir, f.pl, bs, ""); err != nil {
		t.Fatal(err)
	}
	want := loadAndScore(t, dir, f.evalLines)

	// Turn the bundle into one an estimator-era clmtrain would have written.
	est := []byte("clmids-estimator v1\n{\"weights\":[0.5,0.25,0,0,0,0,0,0,0,0,0,0,0,1],\"mae\":0.4}\n")
	if err := os.WriteFile(filepath.Join(dir, "estimator.json"), est, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestFile)
	mj, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]json.RawMessage
	if err := json.Unmarshal(mj, &man); err != nil {
		t.Fatal(err)
	}
	var sums map[string]string
	if err := json.Unmarshal(man["checksums"], &sums); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(est)
	sums["estimator.json"] = hex.EncodeToString(sum[:])
	if man["checksums"], err = json.Marshal(sums); err != nil {
		t.Fatal(err)
	}
	man["estimator"] = json.RawMessage("true")
	if mj, err = json.MarshalIndent(man, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mj, 0o644); err != nil {
		t.Fatal(err)
	}

	got := loadAndScore(t, dir, f.evalLines)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("legacy bundle diverges at line %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// loadAndScore loads the bundle in dir and scores lines with it.
func loadAndScore(t *testing.T, dir string, lines []string) []float64 {
	t.Helper()
	lb, err := LoadScorerBundle(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	scores, err := lb.Scorer.Score(lines)
	if err != nil {
		t.Fatal(err)
	}
	return scores
}
