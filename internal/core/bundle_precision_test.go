package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// TestQuantizedBundleSharesHead: the cascade bundle (int8 triage over the
// float64 confirm rung) and the float64 bundle of one training run differ
// only in their manifests — every data section is identical, so verdict
// differences come from the serving stack alone, and the derived version
// tells the two apart.
func TestQuantizedBundleSharesHead(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: tuning.MethodPCA, Seed: 7}, f.baseLines, f.labels)
	if err != nil {
		t.Fatal(err)
	}
	f64m, err := SaveBundle(t.TempDir(), f.pl, bs, "")
	if err != nil {
		t.Fatal(err)
	}
	if bs.Cascade, err = CalibrateCascade(bs.Scorer, f.baseLines); err != nil {
		t.Fatal(err)
	}
	cascm, err := SaveBundle(t.TempDir(), f.pl, bs, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(f64m.Checksums) != 4 || len(cascm.Checksums) != 4 {
		t.Fatalf("bundles checksum %d and %d sections, want 4 each", len(f64m.Checksums), len(cascm.Checksums))
	}
	for _, section := range []string{"scorer.bin", "model.gob", "preprocess.json", "tokenizer.txt"} {
		a, okA := f64m.Checksums[section]
		b, okB := cascm.Checksums[section]
		if !okA || !okB {
			// Section naming is part of the bundle contract; surface a
			// rename loudly.
			t.Fatalf("section %s missing from a manifest (%v/%v)", section, okA, okB)
		}
		if a != b {
			t.Errorf("section %s differs between float64 and cascade bundles", section)
		}
	}
	if f64m.Precision != "" || cascm.Precision != "" {
		t.Errorf("bundles declare precision %q and %q; none is written", f64m.Precision, cascm.Precision)
	}
	if f64m.Version == cascm.Version {
		t.Error("content-derived versions collide despite differing stacks")
	}
}

// TestBundleRejectsFloat32 loads bundles whose manifest names a precision
// an older clmtrain could emit — float32, and the plain int8 bundle — and
// expects a clear retrain instruction, not a corruption error: the bundle
// is intact, this build just no longer serves it.
func TestBundleRejectsFloat32(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: tuning.MethodPCA, Seed: 7}, f.baseLines, f.labels)
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	if _, err := SaveBundle(src, f.pl, bs, ""); err != nil {
		t.Fatal(err)
	}
	for _, prec := range []string{"float32", "int8"} {
		t.Run(prec, func(t *testing.T) {
			dir := t.TempDir()
			writeLegacyBundle(t, src, dir, nil, nil)
			setManifestKey(t, dir, "precision", prec)
			_, err := LoadScorerBundle(dir)
			if err == nil {
				t.Fatalf("%s bundle loaded", prec)
			}
			if !errors.Is(err, ErrBundleUnsupported) || errors.Is(err, ErrBundleCorrupt) {
				t.Errorf("%s bundle: got %v, want ErrBundleUnsupported", prec, err)
			}
			for _, want := range []string{prec, "retrain", "clmtrain -bundle"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// setManifestKey sets one top-level string field of the bundle manifest
// at dir, the way an older build would have written it.
func setManifestKey(t *testing.T, dir, key, value string) {
	t.Helper()
	path := filepath.Join(dir, ManifestFile)
	mj, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(mj, &m); err != nil {
		t.Fatal(err)
	}
	m[key] = value
	if mj, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mj, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHotSwapFloat64ToCascadeUnderLoad hot-swaps a float64 bundle's scorer
// for the cascade bundle of the same training run on a live sharded
// service while producers keep submitting. No event is dropped, every
// verdict carries its line's score on one of the two stacks, and no batch
// mixes them: each request is one user's, so it is scored in one shard
// batch.
func TestHotSwapFloat64ToCascadeUnderLoad(t *testing.T) {
	f := getBundleFixture(t)
	bs, err := BuildScorerFull(f.pl, ScorerConfig{Method: tuning.MethodRetrieval, Seed: 7}, f.baseLines, f.labels)
	if err != nil {
		t.Fatal(err)
	}
	f64Dir, cascDir := t.TempDir(), t.TempDir()
	if _, err := SaveBundle(f64Dir, f.pl, bs, ""); err != nil {
		t.Fatal(err)
	}
	if bs.Cascade, err = CalibrateCascade(bs.Scorer, f.baseLines); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveBundle(cascDir, f.pl, bs, ""); err != nil {
		t.Fatal(err)
	}
	lbF64, err := LoadScorerBundle(f64Dir)
	if err != nil {
		t.Fatal(err)
	}
	lbCasc, err := LoadScorerBundle(cascDir)
	if err != nil {
		t.Fatal(err)
	}
	casc, err := lbCasc.Serving()
	if err != nil {
		t.Fatal(err)
	}

	// Each stack's score of every evaluation line; only lines the two
	// stacks score differently tell them apart, so requests carry those.
	f64Want, err := lbF64.Scorer.Score(f.evalLines)
	if err != nil {
		t.Fatal(err)
	}
	cascWant, err := casc.Score(f.evalLines)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ f64, casc float64 }
	want := make(map[string]pair)
	var telling []string
	for i, line := range f.evalLines {
		if _, seen := want[line]; !seen && f64Want[i] != cascWant[i] {
			telling = append(telling, line)
		}
		want[line] = pair{f64Want[i], cascWant[i]}
	}
	if len(telling) < 2 {
		t.Fatalf("only %d lines score differently on the two stacks; the test cannot see a mixed batch", len(telling))
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
	svc := stream.NewShardedService(det, stream.ServiceConfig{QueueRequests: 4, BatchEvents: 64})
	defer svc.Close()

	// submit scores one user's request and reports which stack served it.
	submit := func(user string) (onCascade bool, err error) {
		events := make([]stream.Event, 16)
		for i := range events {
			events[i] = stream.Event{User: user, Time: int64(1000 + i), Line: telling[i%len(telling)]}
		}
		vs, err := svc.Submit(events)
		if err != nil {
			return false, err
		}
		if len(vs) != len(events) {
			return false, fmt.Errorf("%s: %d verdicts for %d events", user, len(vs), len(events))
		}
		for i, v := range vs {
			w := want[v.Line]
			if v.Line != events[i].Line {
				return false, fmt.Errorf("%s: verdict %d reordered", user, i)
			}
			if i == 0 {
				onCascade = v.LineScore == w.casc
			}
			if (onCascade && v.LineScore != w.casc) || (!onCascade && v.LineScore != w.f64) {
				return false, fmt.Errorf("%s: verdict %d scored %g, want %g (float64) or %g (cascade) like the rest of its batch",
					user, i, v.LineScore, w.f64, w.casc)
			}
		}
		return onCascade, nil
	}

	const producers, rounds = 3, 12
	var (
		wg      sync.WaitGroup
		served  [2]atomic.Int64 // requests served by float64, by the cascade
		started = make(chan struct{})
		// The swap waits for producer 0's third request, or for producer
		// 0 to give up early.
		start = sync.OnceFunc(func() { close(started) })
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if p == 0 {
				defer start()
			}
			for r := 0; r < rounds; r++ {
				onCascade, err := submit(fmt.Sprintf("p%d-r%d", p, r))
				if err != nil {
					t.Error(err)
					return
				}
				if onCascade {
					served[1].Add(1)
				} else {
					served[0].Add(1)
				}
				if p == 0 && r == 2 {
					start()
				}
			}
		}(p)
	}
	<-started
	if err := svc.SwapScorer(casc, lbCasc.Manifest.Version); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if det.ScorerVersion() != lbCasc.Manifest.Version {
		t.Fatalf("version %q after swap", det.ScorerVersion())
	}
	if onCascade, err := submit("after-swap"); err != nil || !onCascade {
		t.Fatalf("request after the swap: cascade %v, %v", onCascade, err)
	}
	if got := served[0].Load() + served[1].Load(); got != producers*rounds {
		t.Fatalf("%d of %d requests served", got, producers*rounds)
	}
	if served[0].Load() == 0 {
		t.Fatal("no request was served before the swap")
	}
}
