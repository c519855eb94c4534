package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"clmids/internal/model"
	"clmids/internal/tuning"
)

// TestCalibrateCascadeShape: calibration must produce a usable operating
// point on a realistic corpus — a finite clear threshold that actually
// clears traffic, an escalation band that actually escalates, and a
// composed cascade whose per-line deviation from f64-only stays within the
// calibrated + ladder bounds on held-out lines.
func TestCalibrateCascadeShape(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: "retrieval", Seed: 7}, f.baseLines, f.labels)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	art, err := CalibrateCascade(bs.Scorer, f.pl.Pre.Modality(), f.baseLines, DefaultCascadeConfig())
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	p := art.Params
	if math.IsInf(p.ClearThreshold, 0) || p.ClearThreshold >= art.Rarity.MaxRarity() {
		t.Fatalf("clear threshold %v not inside the fitted rarity range (max %v)",
			p.ClearThreshold, art.Rarity.MaxRarity())
	}
	if p.MaxClearDeviation < 0 {
		t.Fatalf("negative max clear deviation %v", p.MaxClearDeviation)
	}

	casc, err := BuildCascade(bs.Scorer, art)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	got, err := casc.Score(f.evalLines)
	if err != nil {
		t.Fatalf("cascade score: %v", err)
	}
	want, err := bs.Scorer.Score(f.evalLines)
	if err != nil {
		t.Fatalf("f64 score: %v", err)
	}
	st := casc.CascadeStats()
	if st.Cleared == 0 || st.Triaged == 0 || st.Escalated == 0 {
		t.Fatalf("cascade not exercised on eval lines: %+v", st)
	}
	if st.Cleared+st.Triaged != int64(len(f.evalLines)) {
		t.Fatalf("rung counts %+v do not cover %d lines", st, len(f.evalLines))
	}
	// Escalated lines are exact; everything else stays within the measured
	// clear deviation or the int8 ladder bound (documented 0.15).
	tol := math.Max(p.MaxClearDeviation, 0.15)
	for i := range want {
		if got[i] >= p.EscalateLow && want[i] >= p.EscalateLow {
			continue // confirmed exactly; compared below via deviation too
		}
		if d := math.Abs(got[i] - want[i]); d > tol {
			t.Fatalf("line %d deviates by %v (> %v): cascade %v vs f64 %v",
				i, d, tol, got[i], want[i])
		}
	}
}

// TestCascadeBundleRoundTrip pins the cascade's train-once / serve-many
// contract: a cascade bundle restores a cascade that scores byte-identically
// to the one composed from the freshly calibrated artifact.
func TestCascadeBundleRoundTrip(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: "retrieval", Seed: 7}, f.baseLines, f.labels)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	art, err := CalibrateCascade(bs.Scorer, f.pl.Pre.Modality(), f.baseLines, DefaultCascadeConfig())
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	bs.Cascade = art
	fresh, err := BuildCascade(bs.Scorer, art)
	if err != nil {
		t.Fatalf("compose fresh: %v", err)
	}
	want, err := fresh.Score(f.evalLines)
	if err != nil {
		t.Fatalf("fresh cascade score: %v", err)
	}

	dir := t.TempDir()
	man, err := SaveBundle(dir, f.pl, bs, "")
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if man.Cascade == nil {
		t.Fatal("manifest carries no cascade block")
	}
	if man.Precision != "" {
		t.Fatalf("cascade bundle declares precision %q, want the float64 confirm default", man.Precision)
	}
	files := SectionFiles(man)
	wantFiles := map[string]bool{quantFile: false, rarityFile: false}
	for _, name := range files {
		if _, tracked := wantFiles[name]; tracked {
			wantFiles[name] = true
		}
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("section %s missing on disk: %v", name, err)
		}
		if _, ok := man.Checksums[name]; !ok {
			t.Fatalf("section %s has no manifest checksum", name)
		}
	}
	for name, seen := range wantFiles {
		if !seen {
			t.Fatalf("SectionFiles omits %s for a cascade bundle: %v", name, files)
		}
	}

	lb, err := LoadScorerBundle(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if lb.Cascade == nil {
		t.Fatal("loaded bundle carries no cascade artifact")
	}
	if lb.Cascade.Params != art.Params {
		t.Fatalf("loaded params %+v != calibrated %+v", lb.Cascade.Params, art.Params)
	}
	// The manifest's cascade section makes Serving compose the cascade.
	loaded, err := lb.Serving()
	if err != nil {
		t.Fatalf("compose loaded: %v", err)
	}
	if _, ok := loaded.(*tuning.CascadeScorer); !ok {
		t.Fatalf("cascade bundle serves %T, want *tuning.CascadeScorer", loaded)
	}
	got, err := loaded.Score(f.evalLines)
	if err != nil {
		t.Fatalf("loaded cascade score: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d diverges across bundle round-trip: fresh %v, loaded %v", i, want[i], got[i])
		}
	}

	// Cascade scorers replicate for sharded serving, counters isolated.
	reps, err := ReplicateScorer(loaded, 3)
	if err != nil {
		t.Fatalf("replicate: %v", err)
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
}

// TestCascadeBundleTamperRejected: the rarity section is integrity-checked
// like every other section — both by the bundle checksum and by the table's
// own embedded checksum.
func TestCascadeBundleTamperRejected(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: "pca", Seed: 7}, f.baseLines, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if bs.Cascade, err = CalibrateCascade(bs.Scorer, f.pl.Pre.Modality(), f.baseLines, DefaultCascadeConfig()); err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	dir := t.TempDir()
	if _, err := SaveBundle(dir, f.pl, bs, ""); err != nil {
		t.Fatalf("save: %v", err)
	}
	path := filepath.Join(dir, rarityFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", rarityFile, err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("tamper %s: %v", rarityFile, err)
	}
	if _, err := LoadScorerBundle(dir); !errors.Is(err, ErrBundleCorrupt) {
		t.Fatalf("tampered rarity section: got %v, want ErrBundleCorrupt", err)
	}
}

// TestCascadeBundleRejectsLowPrecision: the confirm rung is the float64
// path by construction; emitting a cascade bundle at a low rung is refused
// up front.
func TestCascadeBundleRejectsLowPrecision(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: "pca", Seed: 7, Precision: model.PrecisionInt8}, f.baseLines, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	bs.Cascade = &CascadeArtifact{Params: tuning.CascadeParams{}}
	if _, err := SaveBundle(t.TempDir(), f.pl, bs, ""); err == nil {
		t.Fatal("cascade bundle at int8 precision accepted")
	}
}
