package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"clmids/internal/model"
	"clmids/internal/tuning"
)

// TestCalibrateCascadeShape: calibration must produce a usable operating
// point on a realistic corpus — an escalation band that escalates some but
// not all lines, and a composed cascade whose per-line deviation from
// f64-only stays within the int8 ladder bound on held-out lines.
func TestCalibrateCascadeShape(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: "retrieval", Seed: 7}, f.baseLines, f.labels)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	art, err := CalibrateCascade(bs.Scorer, f.baseLines)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	p := art.Params

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
	if st.Escalated == 0 || st.Escalated >= st.Triaged {
		t.Fatalf("escalation band not exercised on eval lines: %+v", st)
	}
	if st.Triaged != int64(len(f.evalLines)) {
		t.Fatalf("rung counts %+v do not cover %d lines", st, len(f.evalLines))
	}
	// Escalated lines are exact; everything else stays within the int8
	// ladder bound (documented 0.15).
	const tol = 0.15
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
	art, err := CalibrateCascade(bs.Scorer, f.baseLines)
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
	if want := []string{preprocessFile, tokenizerFile, modelFile, scorerFile}; !slices.Equal(files, want) {
		t.Fatalf("cascade bundle sections %v, want %v", files, want)
	}
	for _, name := range files {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("section %s missing on disk: %v", name, err)
		}
		if _, ok := man.Checksums[name]; !ok {
			t.Fatalf("section %s has no manifest checksum", name)
		}
	}
	for _, legacy := range legacyFiles {
		if _, err := os.Stat(filepath.Join(dir, legacy)); !os.IsNotExist(err) {
			t.Fatalf("cascade bundle wrote %s: %v", legacy, err)
		}
	}
	// The float64 bundle of the same run shares every section; only the
	// cascade block tells the two apart, and the derived version hashes it.
	plain := *bs
	plain.Cascade = nil
	f64m, err := SaveBundle(t.TempDir(), f.pl, &plain, "")
	if err != nil {
		t.Fatalf("save float64: %v", err)
	}
	if f64m.Version == man.Version {
		t.Fatalf("cascade and float64 bundles share version %s", man.Version)
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

// TestCascadeBundleTamperRejected: a cascade bundle written by older
// builds carries clear_* keys in the manifest's cascade block and
// checksummed rarity.bin and quant.gob sections. It still loads and serves
// exactly what the same bundle without those extras serves, and each
// legacy section is still integrity-checked: a flipped byte is
// ErrBundleCorrupt.
func TestCascadeBundleTamperRejected(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: "pca", Seed: 7}, f.baseLines, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if bs.Cascade, err = CalibrateCascade(bs.Scorer, f.baseLines); err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	dir := t.TempDir()
	if _, err := SaveBundle(dir, f.pl, bs, ""); err != nil {
		t.Fatalf("save: %v", err)
	}
	want := servedScores(t, dir, f.evalLines)

	for _, clear := range []string{`"-inf"`, `2.75`} {
		for _, tampered := range legacyFiles {
			legacy := t.TempDir()
			writeLegacyBundle(t, dir, legacy, map[string][]byte{
				rarityFile: []byte("clmids-rarity v1\nmodality shell\ncmd 3\nls 2\ncat 1\n"),
				quantFile:  legacyQuant,
			}, map[string]string{
				"clear_threshold":     clear,
				"clear_score":         `0.125`,
				"max_clear_deviation": `0.0625`,
			})
			if got := servedScores(t, legacy, f.evalLines); !slices.Equal(got, want) {
				t.Fatalf("clear_threshold %s: legacy bundle serves different scores", clear)
			}
			flipByte(t, filepath.Join(legacy, tampered))
			if _, err := LoadScorerBundle(legacy); !errors.Is(err, ErrBundleCorrupt) {
				t.Fatalf("clear_threshold %s: tampered %s: got %v, want ErrBundleCorrupt", clear, tampered, err)
			}
		}
	}
}

// legacyQuant stands in for the quant.gob section older builds wrote into
// int8 and cascade bundles. This build verifies its checksum and never
// decodes it, so arbitrary bytes serve.
var legacyQuant = []byte("clmids-lowweights v1: pre-lowered int8 weights, ignored on load")

// writeLegacyBundle copies the bundle at src to dst and turns it into the
// shape older builds wrote: every entry of sections written beside the
// others and checksummed in the manifest, and every entry of cascadeKeys
// (raw JSON values) added to the manifest's cascade block.
func writeLegacyBundle(t *testing.T, src, dst string, sections map[string][]byte, cascadeKeys map[string]string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	mj, err := os.ReadFile(filepath.Join(src, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(mj, &m); err != nil {
		t.Fatal(err)
	}
	var sums map[string]string
	if err := json.Unmarshal(m["checksums"], &sums); err != nil {
		t.Fatal(err)
	}
	for name, data := range sections {
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		sums[name] = hex.EncodeToString(sum[:])
	}
	if m["checksums"], err = json.Marshal(sums); err != nil {
		t.Fatal(err)
	}
	if len(cascadeKeys) > 0 {
		var casc map[string]json.RawMessage
		if err := json.Unmarshal(m["cascade"], &casc); err != nil {
			t.Fatal(err)
		}
		for key, v := range cascadeKeys {
			casc[key] = json.RawMessage(v)
		}
		if m["cascade"], err = json.Marshal(casc); err != nil {
			t.Fatal(err)
		}
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, manifestFile), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// flipByte flips one bit in the middle of the file at path.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// servedScores loads the bundle at dir and scores lines through the stack
// its manifest says to serve.
func servedScores(t *testing.T, dir string, lines []string) []float64 {
	t.Helper()
	lb, err := LoadScorerBundle(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	sc, err := lb.Serving()
	if err != nil {
		t.Fatalf("serving %s: %v", dir, err)
	}
	scores, err := sc.Score(lines)
	if err != nil {
		t.Fatalf("score %s: %v", dir, err)
	}
	return scores
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
