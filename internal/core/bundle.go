package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"clmids/internal/bpe"
	"clmids/internal/modality"
	"clmids/internal/model"
	"clmids/internal/preprocess"
	"clmids/internal/tuning"
)

// A scorer bundle is the train-once / serve-many artifact: one directory
// holding everything a serving process needs to score without re-tuning —
// the pre-processing filter state, the BPE tokenizer, the serving backbone
// (for the reconstruction method, the tuned encoder), the method head, and
// a manifest binding them together with per-section checksums.
//
// Layout:
//
//	manifest.json     format version, method, config, provenance,
//	                  content-derived version, per-section sha256
//	preprocess.json   Fig. 2 filter state
//	tokenizer.txt     BPE vocabulary + merges
//	model.gob         serving backbone weights
//	scorer.bin        method head (tuning.SaveScorerHead)
//
// Every section serializes deterministically, so re-saving the same built
// scorer reproduces identical checksums and therefore the same derived
// version — bundle versions are content addresses, not timestamps.

// BundleFormat identifies the on-disk bundle layout; LoadScorerBundle
// rejects manifests written by a different major format.
const BundleFormat = "clmids-bundle v1"

// ErrBundleCorrupt flags a bundle that failed integrity verification — an
// unparseable manifest, a section with no checksum, or a section whose
// bytes do not match it. Callers (the /reload path, fault drills)
// distinguish "artifact damaged, keep the old scorer" from configuration
// errors with errors.Is.
var ErrBundleCorrupt = errors.New("core: bundle corrupt")

// ErrModalityMismatch flags a bundle whose modality differs from the one a
// serving process is pinned to. The /reload path treats it like corruption:
// reject the new bundle, keep the old scorer serving.
var ErrModalityMismatch = errors.New("core: bundle modality mismatch")

// ErrBundleUnsupported flags an intact manifest this build cannot serve:
// a different bundle format, or an unknown method or precision. Retraining
// the bundle with this build's clmtrain fixes it; an unknown modality is
// modality.ErrUnknown instead.
var ErrBundleUnsupported = errors.New("core: bundle unsupported")

// File names inside a bundle directory (preprocessFile, tokenizerFile and
// modelFile are shared with the pipeline layout in io.go). quantFile only
// exists in int8 bundles (manifest Precision int8): it carries the
// backbone's pre-lowered serving weights — int8 channels + scales — so a
// cold start installs them instead of re-converting, and the artifact pins
// the exact serving weights.
// Cascade bundles (manifest Cascade != nil) carry quant.gob too, so one
// artifact cold-starts both rungs over one backbone. rarityFile is the
// section older cascade bundles carried for a rarity pre-filter: when a
// manifest still lists it, load verifies its checksum and ignores it.
const (
	manifestFile = "manifest.json"
	scorerFile   = "scorer.bin"
	quantFile    = "quant.gob"
	rarityFile   = "rarity.bin"
)

// BundleProvenance records where a bundle's supervision came from, so a
// fleet operator can tell two same-method bundles apart.
type BundleProvenance struct {
	// BaselineLines is the size of the labeled baseline log the head was
	// tuned on.
	BaselineLines int `json:"baseline_lines"`
	// Seed is the tuning seed.
	Seed int64 `json:"seed"`
	// Corpus describes the baseline source (a path, a generator spec);
	// free-form, informational.
	Corpus string `json:"corpus,omitempty"`
}

// BundleManifest is the bundle's self-description, stored as manifest.json.
type BundleManifest struct {
	Format string `json:"format"`
	// Version identifies the bundle for fleet operations (/stats, /reload
	// logs). When SaveBundle is not given one it derives a content address
	// from the section checksums.
	Version string `json:"version"`
	// Method is the detection method of the head (core.ScorerMethods).
	Method string `json:"method"`
	// Modality names the log modality the stack was trained on (the
	// registered validator/normalizer the filter state requires). Empty in
	// pre-modality bundles and means shell. It is covered by the
	// preprocess.json checksum — the filter state embeds the same name — so
	// a manifest edit cannot silently retarget a bundle.
	Modality string `json:"modality,omitempty"`
	// Config is the ScorerConfig the head was built with.
	Config ScorerConfig `json:"config"`
	// Precision is the serve-path precision the bundle was emitted for;
	// empty or "float64" means the canonical path (no quantized section).
	// "int8" adds the quant.gob section holding the lowered backbone
	// weights, and loading builds the scorer's engine at this precision.
	// A "float32" manifest (an older build's middle rung) is refused with
	// a retrain instruction.
	Precision string `json:"precision,omitempty"`
	// Cascade carries the calibrated cascade thresholds when the bundle was
	// emitted with clmtrain -cascade; nil otherwise. Cascade bundles
	// additionally carry quant.gob (int8) so the triage rung cold-starts
	// from pinned weights, and their confirm rung is always the canonical
	// float64 path.
	Cascade *tuning.CascadeParams `json:"cascade,omitempty"`
	// CreatedUnix is the save time (informational; not part of Version).
	CreatedUnix int64            `json:"created_unix"`
	Provenance  BundleProvenance `json:"provenance"`
	// Checksums maps each section file to its sha256 (hex). Load verifies
	// every section against it before deserializing anything.
	Checksums map[string]string `json:"checksums"`
}

// SaveBundle persists a built scorer as a versioned bundle directory,
// creating it if needed. pl supplies the shared pipeline artifacts (filter
// state, tokenizer); the backbone written is bs.Backbone — for the
// reconstruction method the tuned clone, not pl.Model. An empty version
// derives a content-addressed one from the section checksums. Returns the
// manifest as written.
func SaveBundle(dir string, pl *Pipeline, bs *BuiltScorer, version string) (*BundleManifest, error) {
	method, ok := tuning.ScorerMethod(bs.Scorer)
	if !ok {
		return nil, fmt.Errorf("core: scorer %T has no bundle representation", bs.Scorer)
	}
	if bs.Config.Method != "" && bs.Config.Method != method {
		return nil, fmt.Errorf("core: built scorer is %s but config says %s", method, bs.Config.Method)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating %s: %w", dir, err)
	}

	prec := bs.Config.Precision
	if !prec.Valid() {
		return nil, fmt.Errorf("core: unknown precision %q", prec)
	}
	if bs.Cascade != nil && prec.Low() {
		return nil, fmt.Errorf("core: cascade bundles pin the confirm rung at float64; emit with the default precision")
	}
	sections := []struct {
		name string
		save func(*bytes.Buffer) error
	}{
		{preprocessFile, func(b *bytes.Buffer) error { return pl.Pre.Save(b) }},
		{tokenizerFile, func(b *bytes.Buffer) error { return pl.Tok.Save(b) }},
		{modelFile, func(b *bytes.Buffer) error { return bs.Backbone.Save(b) }},
		{scorerFile, func(b *bytes.Buffer) error { return tuning.SaveScorerHead(b, bs.Scorer) }},
	}
	quantPrec := prec
	if bs.Cascade != nil {
		// A cascade bundle serves its confirm rung at float64 but must
		// cold-start the int8 triage rung from pinned weights too.
		quantPrec = model.PrecisionInt8
	}
	if quantPrec.Low() {
		// The quantized section is derived deterministically from the
		// float64 backbone (Lowered caches the conversion), so re-saving
		// reproduces identical bytes and the content-derived version is
		// stable across float64 and low-precision emissions of the same
		// training run only differing in this section.
		sections = append(sections, struct {
			name string
			save func(*bytes.Buffer) error
		}{quantFile, func(b *bytes.Buffer) error {
			lw, err := bs.Backbone.Encoder.Lowered(quantPrec)
			if err != nil {
				return err
			}
			return model.SaveLowWeights(b, lw)
		}})
	}
	m := &BundleManifest{
		Format:      BundleFormat,
		Version:     version,
		Method:      method,
		Modality:    pl.Pre.Modality(),
		Config:      bs.Config,
		CreatedUnix: time.Now().Unix(),
		Provenance:  bs.Provenance,
		Checksums:   make(map[string]string, len(sections)),
	}
	if prec.Low() {
		m.Precision = string(prec)
	}
	if bs.Cascade != nil {
		params := bs.Cascade.Params
		m.Cascade = &params
	}
	for _, s := range sections {
		var buf bytes.Buffer
		if err := s.save(&buf); err != nil {
			return nil, fmt.Errorf("core: serializing bundle %s: %w", s.name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, s.name), buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("core: writing bundle %s: %w", s.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		m.Checksums[s.name] = hex.EncodeToString(sum[:])
	}
	if m.Version == "" {
		m.Version = deriveVersion(m.Checksums)
	}

	mj, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("core: encoding manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), append(mj, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("core: writing manifest: %w", err)
	}
	return m, nil
}

// deriveVersion hashes the section checksums (in file-name order) into a
// short content address: two bundles with identical sections always get
// the same derived version, regardless of when or where they were saved.
func deriveVersion(checksums map[string]string) string {
	names := make([]string, 0, len(checksums))
	for name := range checksums {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s %s\n", name, checksums[name])
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// SectionFiles lists the data files a manifest's bundle is made of, in
// layout order, manifest.json excluded — the surface a fault drill can
// corrupt or truncate to exercise the load-time verification. An older
// cascade bundle's rarity.bin is listed when its manifest checksums it:
// load verifies it, then ignores it.
func SectionFiles(m *BundleManifest) []string {
	names := []string{preprocessFile, tokenizerFile, modelFile, scorerFile}
	if model.Precision(m.Precision).Low() || m.Cascade != nil {
		names = append(names, quantFile)
	}
	if _, legacy := m.Checksums[rarityFile]; legacy {
		names = append(names, rarityFile)
	}
	return names
}

// ManifestFile is the manifest's file name inside a bundle directory.
const ManifestFile = manifestFile

// LoadedBundle is a bundle restored for serving: every artifact plus the
// ready-to-score engine-backed scorer (Replicable, so sharded services
// fan it out with ReplicateScorer as usual).
type LoadedBundle struct {
	Manifest BundleManifest
	Pre      *preprocess.Preprocessor
	Tok      *bpe.Tokenizer
	Model    *model.Model
	Scorer   tuning.Scorer
	// Cascade is the restored cascade artifact of a cascade bundle, nil
	// otherwise. Scorer stays the plain confirm-rung scorer either way;
	// Serving composes the two.
	Cascade *CascadeArtifact
}

// Serving returns the scorer stack the manifest says to serve: the
// cascade over Scorer when the bundle carries a cascade section, Scorer
// itself (already at the manifest precision) otherwise. clmserve,
// clmdetect and hot reloads all serve through it, so no flag overrides
// the bundle.
func (lb *LoadedBundle) Serving() (tuning.Scorer, error) {
	if lb.Cascade == nil {
		return lb.Scorer, nil
	}
	return BuildCascade(lb.Scorer, lb.Cascade)
}

// Modality returns the canonical modality the bundle was trained on
// ("shell" for pre-modality bundles).
func (lb *LoadedBundle) Modality() string {
	return modality.Canonical(lb.Manifest.Modality)
}

// CheckModality rejects a bundle whose modality differs from the one the
// caller is pinned to, with an error wrapping ErrModalityMismatch. An empty
// want means shell.
func (lb *LoadedBundle) CheckModality(want string) error {
	if got, pinned := lb.Modality(), modality.Canonical(want); got != pinned {
		return fmt.Errorf("%w: bundle is %q, server pinned to %q", ErrModalityMismatch, got, pinned)
	}
	return nil
}

// LoadScorerBundle restores a bundle saved by SaveBundle: it verifies the
// manifest format and every section checksum, then deserializes the
// backbone, tokenizer, and head into the same memoizing engine-backed
// scorer BuildScorer would have produced — no baseline corpus, no tuning.
// Scores from a float64 bundle are byte-identical to the freshly built
// scorer's; a low-precision bundle additionally installs its quantized
// section into the backbone and serves at the manifest's precision.
func LoadScorerBundle(dir string) (*LoadedBundle, error) {
	mj, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("core: reading bundle manifest: %w", err)
	}
	m, prec, err := parseManifest(mj)
	if err != nil {
		return nil, err
	}

	// Read and verify every section before deserializing any of them: a
	// truncated or tampered file fails with a checksum error naming the
	// section, not a decoder panic deep inside gob.
	names := SectionFiles(m)
	raw := make(map[string][]byte, len(names))
	for _, name := range names {
		want, ok := m.Checksums[name]
		if !ok {
			return nil, fmt.Errorf("%w: manifest lists no checksum for %s", ErrBundleCorrupt, name)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("core: reading bundle section: %w", err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			return nil, fmt.Errorf("%w: section %s checksum mismatch (manifest %s, file %s)",
				ErrBundleCorrupt, name, want[:12], got[:12])
		}
		raw[name] = data
	}

	lb := &LoadedBundle{Manifest: *m}
	if lb.Pre, err = preprocess.Load(bytes.NewReader(raw[preprocessFile])); err != nil {
		return nil, fmt.Errorf("core: bundle %s: %w", preprocessFile, err)
	}
	if want := modality.Canonical(m.Modality); lb.Pre.Modality() != want {
		// The filter state is sha256-verified, so a disagreement means the
		// manifest was edited by hand — treat it as corruption.
		return nil, fmt.Errorf("%w: manifest says modality %q but filter state is %q",
			ErrBundleCorrupt, want, lb.Pre.Modality())
	}
	if lb.Tok, err = bpe.Load(bytes.NewReader(raw[tokenizerFile])); err != nil {
		return nil, fmt.Errorf("core: bundle %s: %w", tokenizerFile, err)
	}
	if lb.Model, err = model.Load(bytes.NewReader(raw[modelFile])); err != nil {
		return nil, fmt.Errorf("core: bundle %s: %w", modelFile, err)
	}
	if wantQuant := quantPrecOf(m); wantQuant.Low() {
		lw, err := model.LoadLowWeights(bytes.NewReader(raw[quantFile]))
		if err != nil {
			return nil, fmt.Errorf("core: bundle %s: %w", quantFile, err)
		}
		if lw.Precision() != wantQuant {
			return nil, fmt.Errorf("core: bundle %s is %s but manifest says %s",
				quantFile, lw.Precision(), wantQuant)
		}
		// Install the pinned serving weights; the engine built below finds
		// them in the encoder's cache instead of re-lowering.
		if err := lb.Model.Encoder.SetLowered(lw); err != nil {
			return nil, fmt.Errorf("core: bundle %s: %w", quantFile, err)
		}
	}
	scorer, method, err := tuning.LoadScorerHeadPrec(bytes.NewReader(raw[scorerFile]), lb.Model.Encoder, lb.Tok, prec)
	if err != nil {
		return nil, fmt.Errorf("core: bundle %s: %w", scorerFile, err)
	}
	if method != m.Method {
		return nil, fmt.Errorf("core: bundle head is %s but manifest says %s", method, m.Method)
	}
	lb.Scorer = scorer
	if m.Cascade != nil {
		lb.Cascade = &CascadeArtifact{Params: *m.Cascade}
	}
	return lb, nil
}

// parseManifest decodes and validates manifest.json: the JSON itself, the
// format, method, modality and precision, and the cascade block. An
// unparseable manifest or an impossible cascade block is ErrBundleCorrupt;
// an intact one this build cannot serve is ErrBundleUnsupported or
// modality.ErrUnknown. It also returns the serving precision the manifest
// names. A valid manifest re-marshals to one that parses equal.
func parseManifest(mj []byte) (*BundleManifest, model.Precision, error) {
	var m BundleManifest
	if err := json.Unmarshal(mj, &m); err != nil {
		return nil, "", fmt.Errorf("%w: parsing manifest: %v", ErrBundleCorrupt, err)
	}
	if m.Format != BundleFormat {
		return nil, "", fmt.Errorf("%w: unknown bundle format %q (this build reads %q)", ErrBundleUnsupported, m.Format, BundleFormat)
	}
	if err := ValidateMethod(m.Method); err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrBundleUnsupported, err)
	}
	if err := modality.Validate(m.Modality); err != nil {
		return nil, "", fmt.Errorf("core: bundle manifest: %w", err)
	}
	prec, err := model.ParsePrecision(m.Precision)
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrBundleUnsupported, err)
	}
	if m.Cascade != nil {
		if prec.Low() {
			return nil, "", fmt.Errorf("%w: cascade bundle declares low confirm precision %q", ErrBundleCorrupt, m.Precision)
		}
		if err := m.Cascade.Validate(); err != nil {
			return nil, "", fmt.Errorf("%w: %v", ErrBundleCorrupt, err)
		}
	}
	return &m, prec, nil
}

// quantPrecOf is the precision the bundle's quant.gob section carries:
// the manifest precision for low-precision bundles, int8 for cascade
// bundles (whose manifest precision is the float64 confirm rung).
func quantPrecOf(m *BundleManifest) model.Precision {
	if p := model.Precision(m.Precision); p.Low() {
		return p
	}
	if m.Cascade != nil {
		return model.PrecisionInt8
	}
	return model.PrecisionFloat64
}
