// Artifacts: the train-once / serve-many workflow in one file.
//
// Trains a tiny backbone, tunes a retrieval scorer once, saves it as a
// versioned bundle, cold-loads the bundle the way a serving fleet replica
// would (no baseline corpus, no tuning), verifies the loaded scorer is
// byte-identical, and finishes with a zero-downtime hot-reload on a live
// sharded streaming service — the library-level equivalent of
//
//	clmtrain -data train.jsonl -out model/ -bundle bundle/ -method retrieval
//	clmserve -bundle bundle/ &
//	curl -XPOST localhost:8080/reload?bundle=bundle-v2/
//
//	go run ./examples/artifacts
package main

import (
	"fmt"
	"log"
	"os"

	"clmids"
	"clmids/internal/stream"
)

func main() {
	// 1. Train once: backbone + noisy supervision + method head.
	ccfg := clmids.DefaultCorpusConfig()
	ccfg.TrainLines = 1500
	ccfg.IntrusionRate = 0.15
	train, test, err := clmids.GenerateCorpus(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	pipeline, err := clmids.Build(train.Lines(), clmids.TinyExperiment().Pipeline)
	if err != nil {
		log.Fatal(err)
	}
	labels, err := clmids.NewCommercialIDS().Label(train.Lines(), clmids.DefaultSupervisionNoise(), 1)
	if err != nil {
		log.Fatal(err)
	}
	built, err := clmids.BuildMethodScorer(pipeline,
		clmids.ScorerConfig{Method: "retrieval", Seed: 1}, train.Lines(), labels)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Save the bundle: one directory, checksummed sections, a
	// content-derived version.
	dir, err := os.MkdirTemp("", "clmids-bundle-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	manifest, err := clmids.SaveScorerBundle(dir, pipeline, built, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved %s bundle %s (%d sections)\n",
		manifest.Method, manifest.Version, len(manifest.Checksums))

	// 3. Serve many: a fleet replica cold-starts from the directory alone.
	// No baseline log, no tuning — and identical scores.
	loaded, err := clmids.LoadScorerBundle(dir)
	if err != nil {
		log.Fatal(err)
	}
	eval := test.Lines()[:64]
	want, err := built.Scorer.Score(eval)
	if err != nil {
		log.Fatal(err)
	}
	got, err := loaded.Scorer.Score(eval)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("score %d drifted across save/load: %v vs %v", i, want[i], got[i])
		}
	}
	fmt.Printf("cold-loaded scorer matches the trained one on %d lines exactly\n", len(eval))

	// 4. Hot-reload: swap a refreshed bundle into a live sharded service
	// between batches. Here the "new" bundle is the same artifact loaded
	// again; in production it is the retrained drift-refresh.
	replicas, err := clmids.ReplicateScorer(loaded.Scorer, 4)
	if err != nil {
		log.Fatal(err)
	}
	cfg := stream.DefaultConfig()
	cfg.SessionThreshold = 0.8
	det, err := stream.NewShardedDetector(replicas, cfg)
	if err != nil {
		log.Fatal(err)
	}
	det.SetScorerVersion(manifest.Version)
	svc := stream.NewShardedService(det, stream.ServiceConfig{})
	defer svc.Close()

	events := make([]stream.Event, 0, len(eval))
	for i, line := range eval {
		events = append(events, stream.Event{User: fmt.Sprintf("u%d", i%7), Time: int64(1700000000 + i), Line: line})
	}
	if _, err := svc.Submit(events); err != nil {
		log.Fatal(err)
	}

	refreshed, err := clmids.LoadScorerBundle(dir)
	if err != nil {
		log.Fatal(err)
	}
	if err := svc.SwapScorer(refreshed.Scorer, refreshed.Manifest.Version+"-refresh"); err != nil {
		log.Fatal(err)
	}
	if _, err := svc.Submit(events); err != nil {
		log.Fatal(err)
	}
	st := svc.Stats()
	fmt.Printf("hot-reloaded to %s with %d events scored and zero dropped\n",
		st.ScorerVersion, st.Events)
}
