package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clmids/internal/model"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// TestQuantizedBundleRoundTrip pins the quantized-bundle contract: an int8
// bundle saves the quant section, records the precision in the manifest,
// cold-loads into a scorer serving at that precision, and two independent
// cold loads score byte-identically.
func TestQuantizedBundleRoundTrip(t *testing.T) {
	f := getBundleFixture(t)
	for _, prec := range []model.Precision{model.PrecisionInt8} {
		t.Run(string(prec), func(t *testing.T) {
			cfg := ScorerConfig{Method: tuning.MethodPCA, Seed: 7, Precision: prec}
			bs, err := BuildScorerFull(f.pl, cfg, f.baseLines, f.labels)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if p, _ := tuning.ScorerPrecision(bs.Scorer); p != prec {
				t.Fatalf("built scorer serves at %q, want %q", p, prec)
			}
			want, err := bs.Scorer.Score(f.evalLines)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			man, err := SaveBundle(dir, f.pl, bs, "")
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			if man.Precision != string(prec) {
				t.Fatalf("manifest precision %q, want %q", man.Precision, prec)
			}
			if _, ok := man.Checksums["quant.gob"]; !ok {
				t.Fatal("manifest lists no quantized section")
			}

			lb, err := LoadScorerBundle(dir)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if p, _ := tuning.ScorerPrecision(lb.Scorer); p != prec {
				t.Fatalf("loaded scorer serves at %q, want %q", p, prec)
			}
			// Without a cascade section the served stack is the scorer
			// itself, already at the manifest precision.
			if sv, err := lb.Serving(); err != nil || sv != lb.Scorer {
				t.Fatalf("Serving() = %T, %v; want the loaded scorer", sv, err)
			}
			got, err := lb.Scorer.Score(f.evalLines)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("line %d: cold-load %g, built %g (same rung must match bitwise)",
						i, got[i], want[i])
				}
			}

			// A second independent cold start reproduces the same bytes.
			lb2, err := LoadScorerBundle(dir)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := lb2.Scorer.Score(f.evalLines)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != got2[i] {
					t.Fatalf("line %d: two cold loads diverge", i)
				}
			}

			// Tampering with the quant section must fail checksum
			// verification, not deserialize garbage.
			qpath := filepath.Join(dir, "quant.gob")
			raw, err := os.ReadFile(qpath)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x40
			if err := os.WriteFile(qpath, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadScorerBundle(dir); err == nil {
				t.Fatal("tampered quant section loaded")
			}
		})
	}
}

// TestQuantizedBundleSharesHead: the float64 and int8 bundles of one
// training run differ only in manifest and quant section — the trained
// head and backbone bytes are identical, so verdict differences come from
// arithmetic alone.
func TestQuantizedBundleSharesHead(t *testing.T) {
	f := getBundleFixture(t)
	build := func(prec model.Precision) *BundleManifest {
		bs, err := BuildScorerFull(f.pl,
			ScorerConfig{Method: tuning.MethodPCA, Seed: 7, Precision: prec},
			f.baseLines, f.labels)
		if err != nil {
			t.Fatal(err)
		}
		man, err := SaveBundle(t.TempDir(), f.pl, bs, "")
		if err != nil {
			t.Fatal(err)
		}
		return man
	}
	f64m := build(model.PrecisionFloat64)
	i8m := build(model.PrecisionInt8)
	for _, section := range []string{"scorer.bin", "model.gob", "preprocess.json", "tokenizer.txt"} {
		a, okA := f64m.Checksums[section]
		b, okB := i8m.Checksums[section]
		if !okA || !okB {
			// Section naming is part of the bundle contract; surface a
			// rename loudly.
			t.Fatalf("section %s missing from a manifest (%v/%v)", section, okA, okB)
		}
		if a != b {
			t.Errorf("section %s differs between float64 and int8 bundles", section)
		}
	}
	if f64m.Version == i8m.Version {
		t.Error("content-derived versions collide despite differing precision")
	}
}

// TestBundleRejectsFloat32 loads a bundle whose manifest says float32 — the
// precision clmtrain could once emit — and expects a clear retrain
// instruction, not a corruption error: the bundle is intact, this build
// just no longer serves that precision.
func TestBundleRejectsFloat32(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl,
		ScorerConfig{Method: tuning.MethodPCA, Seed: 7, Precision: model.PrecisionInt8},
		f.baseLines, f.labels)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := SaveBundle(dir, f.pl, bs, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestFile)
	mj, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(mj), `"precision": "int8"`, `"precision": "float32"`, 1)
	if edited == string(mj) {
		t.Fatalf("manifest carries no int8 precision field:\n%s", mj)
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadScorerBundle(dir)
	if err == nil {
		t.Fatal("float32 bundle loaded")
	}
	if errors.Is(err, ErrBundleCorrupt) {
		t.Errorf("float32 bundle reported as corrupt: %v", err)
	}
	for _, want := range []string{"float32", "-precision int8"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestHotSwapFloat64ToInt8UnderLoad hot-swaps a float64 scorer for the
// int8 build of the same head on a live sharded service and checks the
// stream keeps flowing with scores within the ladder tolerance.
func TestHotSwapFloat64ToInt8UnderLoad(t *testing.T) {
	f := getBundleFixture(t)
	bsF64, err := BuildScorerFull(f.pl,
		ScorerConfig{Method: tuning.MethodPCA, Seed: 7}, f.baseLines, f.labels)
	if err != nil {
		t.Fatal(err)
	}
	f64Dir, i8Dir := t.TempDir(), t.TempDir()
	if _, err := SaveBundle(f64Dir, f.pl, bsF64, ""); err != nil {
		t.Fatal(err)
	}
	bsF64.Config.Precision = model.PrecisionInt8
	if _, err := SaveBundle(i8Dir, f.pl, bsF64, ""); err != nil {
		t.Fatal(err)
	}

	lbF64, err := LoadScorerBundle(f64Dir)
	if err != nil {
		t.Fatal(err)
	}
	replicas, err := ReplicateScorer(lbF64.Scorer, 2)
	if err != nil {
		t.Fatal(err)
	}
	det, err := stream.NewShardedDetector(replicas, stream.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	det.SetScorerVersion(lbF64.Manifest.Version)
	svc := stream.NewShardedService(det, stream.ServiceConfig{})
	defer svc.Close()

	events := make([]stream.Event, len(f.evalLines))
	for i, line := range f.evalLines {
		events[i] = stream.Event{User: "u" + string(rune('a'+i%5)), Time: int64(1000 + i), Line: line}
	}
	pre, err := svc.Submit(events)
	if err != nil {
		t.Fatal(err)
	}

	lbI8, err := LoadScorerBundle(i8Dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SwapScorer(lbI8.Scorer, lbI8.Manifest.Version); err != nil {
		t.Fatal(err)
	}
	if det.ScorerVersion() != lbI8.Manifest.Version {
		t.Fatalf("version %q after swap", det.ScorerVersion())
	}
	post, err := svc.Submit(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(post) != len(pre) {
		t.Fatalf("%d verdicts after swap, %d before", len(post), len(pre))
	}
	// Same lines, new sessions state aside: per-line scores of the int8
	// scorer must sit within the ladder tolerance of the f64 ones (the
	// default config scores each line as its own context join, so the
	// line-score field is directly comparable across the two passes).
	for i := range post {
		if post[i].Line != pre[i].Line {
			t.Fatalf("verdict %d reordered across swap", i)
		}
		if !almostEqual(pre[i].LineScore, post[i].LineScore, 0.25) {
			t.Errorf("line %d: int8 score %g vs f64 %g beyond ladder tolerance",
				i, post[i].LineScore, pre[i].LineScore)
		}
	}
}

// TestBuildScorerRejectsUnknownPrecision: typos fail before tuning.
func TestBuildScorerRejectsUnknownPrecision(t *testing.T) {
	f := getBundleFixture(t)
	_, err := BuildScorerFull(f.pl,
		ScorerConfig{Method: tuning.MethodPCA, Seed: 7, Precision: "fp16"},
		f.baseLines, f.labels)
	if err == nil {
		t.Fatal("unknown precision accepted")
	}
}

// almostEqual helps future precision assertions stay tolerant but bounded.
func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a))
}
